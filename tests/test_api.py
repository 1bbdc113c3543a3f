"""The public API: every exported name resolves, and the export list is pinned.

The export list only shrinks; a removal updates EXPECTED with a reason in
the change log, and any addition makes this test fail.  The module
attributes and table interface that perfbench wraps and reads are pinned
as well, and so is every package name it imports: a refactor or deletion
that would break the benchmark fails here first.  So is the command line's
import footprint, which every run pays at start.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ptlattice
from ptlattice import cli, config, dynamics, experiments, lattice, results, twomode
from ptlattice.results import ResultTable, load_csv

EXPECTED = {
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
}


def test_every_exported_name_resolves():
    missing = [name for name in ptlattice.__all__ if not hasattr(ptlattice, name)]
    assert missing == []


def test_export_list_is_pinned():
    assert len(ptlattice.__all__) == len(set(ptlattice.__all__))
    assert set(ptlattice.__all__) == EXPECTED


def test_benchmark_surface_resolves(tmp_path):
    # what perfbench/tracing.py wraps, then what the rest of perfbench imports
    surface = {
        cli: ["main", "load_config", "render_chart", "RUNNERS"],
        experiments: ["evolve", "transition_probability", "evolve_two_mode", "render_line_chart"],
        dynamics: ["evolve", "project_onto_band"],
        lattice: ["eigensystem", "band_energies", "LatticeParams"],
        twomode: ["lz_probability", "lz_survival", "critical_survival"],
        config: ["parse_config", "load_config"],
        results: ["load_csv", "ResultTable"],
        ptlattice: ["DriveParams", "IntegratorConfig", "LatticeParams", "evolve",
                    "prepare_band_state"],
    }
    for module, names in surface.items():
        assert [name for name in names if not hasattr(module, name)] == [], module.__name__
    assert "write_csv" in ResultTable.__dict__
    path = tmp_path / "t.csv"
    table = ResultTable({"z": [0.0, 0.5], "band": [1, 2]}, {"warnings": []})
    assert table.write_csv(path) == path
    back = load_csv(path)
    assert back.rows == [(0.0, 1), (0.5, 2)]
    assert [type(cell) for cell in back.rows[0]] == [float, int]
    assert back.column("z").dtype == np.float64
    assert back.metadata == {"warnings": []}


def _modules_loaded_by(probe: str) -> list[str]:
    """The modules a fresh interpreter has loaded after running probe on this source tree."""
    src = str(Path(ptlattice.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", f"{probe}\nimport sys; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()


def test_cli_import_stays_light():
    # scipy (with its threaded BLAS) and xml.sax's urllib.request/http.client
    # cost tens to hundreds of ms per run; pathlib itself needs urllib.parse;
    # the sweep imports multiprocessing only when it runs in several processes
    loaded = _modules_loaded_by("import ptlattice.cli")
    assert "ptlattice.cli" in loaded
    heavy = [
        m for m in loaded
        if m.split(".")[0] in ("scipy", "http", "xml", "multiprocessing")
        or m in ("urllib.request", "concurrent.futures.process")
    ]
    assert heavy == []


def test_sweep_in_one_process_loads_no_multiprocessing():
    # jobs 1, and jobs 2 over a single rate, both run every point here
    sweep = {"kind": "sweep", "lattice": {"v_real": 0.2, "v_imag": 0.0},
             "sweep": {"rate_min": 0.1, "rate_max": 0.3, "count": 2,
                       "q_start": 0.0, "q_stop": 1.8}}
    one_rate = {**sweep, "sweep": {**sweep["sweep"], "count": 1}}
    loaded = _modules_loaded_by(
        "from ptlattice.config import parse_config\n"
        "from ptlattice.experiments import run_sweep\n"
        f"for doc, jobs in {[(sweep, 1), (one_rate, 2)]!r}:\n"
        "    run_sweep(parse_config(doc), jobs=jobs)"
    )
    assert "ptlattice.experiments" in loaded
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []
