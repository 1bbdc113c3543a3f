"""The public API: every exported name resolves, and the export list is pinned.

The export list only shrinks; a removal updates EXPECTED with a reason in
the change log, and any addition makes this test fail.
"""

import ptlattice

EXPECTED = {
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
}


def test_every_exported_name_resolves():
    missing = [name for name in ptlattice.__all__ if not hasattr(ptlattice, name)]
    assert missing == []


def test_export_list_is_pinned():
    assert len(ptlattice.__all__) == len(set(ptlattice.__all__))
    assert set(ptlattice.__all__) == EXPECTED
