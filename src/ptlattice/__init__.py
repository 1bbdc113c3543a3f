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
    prepare_band_state,
    project_onto_band,
    transition_probability,
)
from .errors import ConfigError, DegenerateBandError, ParameterError, PhaseError
from .lattice import LatticeParams, build_hamiltonian
from .twomode import (
    TwoModeParams,
    TwoModeTrace,
    amplification_ratio,
    critical_survival,
    evolve_two_mode,
    lz_probability,
    lz_survival,
    multicross_power,
)

__all__ = [
    "__version__",
    "ConfigError",
    "DegenerateBandError",
    "DriveParams",
    "EvolutionTrace",
    "IntegratorConfig",
    "LatticeParams",
    "ModeVector",
    "ParameterError",
    "PhaseError",
    "TwoModeParams",
    "TwoModeTrace",
    "amplification_ratio",
    "build_hamiltonian",
    "critical_survival",
    "evolve",
    "evolve_two_mode",
    "lz_probability",
    "lz_survival",
    "multicross_power",
    "plateau_averages",
    "prepare_band_state",
    "project_onto_band",
    "transition_probability",
]
