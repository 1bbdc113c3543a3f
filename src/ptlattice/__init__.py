"""Non-symmetric driven lattice toolkit.

Core pieces: lattice (non-symmetric Bloch operators, bands, phase),
dynamics (driven mode propagation, power, band occupations), twomode
(closed-form sweep theory and its numerical check), plus the experiment
runners and CLI that turn them into CSV/SVG artifacts.
"""

__version__ = "0.1.0"

from .dynamics import (
    DriveParams,
    EvolutionTrace,
    IntegratorConfig,
    ModeVector,
    evolve,
    plateau_averages,
    power,
    prepare_band_state,
    project_onto_band,
    transition_probability,
)
from .errors import ConfigError, DegenerateBandError, ParameterError, PhaseError
from .lattice import (
    BandEigenpair,
    BandStructure,
    DimensionlessParams,
    LatticeParams,
    PhysicalParams,
    band_structure,
    build_hamiltonian,
    eigensystem,
    physical_to_dimensionless,
    pt_phase,
)
from .twomode import (
    TwoModeParams,
    TwoModeState,
    TwoModeTrace,
    amplification_ratio,
    anti_critical_limit,
    critical_survival,
    evolve_two_mode,
    lz_probability,
    lz_survival,
    multicross_power,
    two_mode_eigenvalues,
)

__all__ = [
    "__version__",
    "BandEigenpair",
    "BandStructure",
    "ConfigError",
    "DegenerateBandError",
    "DimensionlessParams",
    "DriveParams",
    "EvolutionTrace",
    "IntegratorConfig",
    "LatticeParams",
    "ModeVector",
    "ParameterError",
    "PhaseError",
    "PhysicalParams",
    "TwoModeParams",
    "TwoModeState",
    "TwoModeTrace",
    "amplification_ratio",
    "anti_critical_limit",
    "band_structure",
    "build_hamiltonian",
    "critical_survival",
    "eigensystem",
    "evolve",
    "evolve_two_mode",
    "lz_probability",
    "lz_survival",
    "multicross_power",
    "physical_to_dimensionless",
    "plateau_averages",
    "power",
    "prepare_band_state",
    "project_onto_band",
    "pt_phase",
    "transition_probability",
    "two_mode_eigenvalues",
]
