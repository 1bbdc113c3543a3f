"""Front end: configs, runners, CSV/SVG artifacts, exit codes, presets."""

import json
import math
import multiprocessing
import os
import re
import time
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from ptlattice import dynamics, experiments, svgplot, twomode
from ptlattice.cli import main
from ptlattice.config import KINDS, load_config, parse_config
from ptlattice.errors import ConfigError, ParameterError
from ptlattice.lattice import MAX_L_MAX, band_arrays
from ptlattice.experiments import run_bands, run_evolve, run_multicross, run_sweep, run_twomode
from ptlattice.results import _BLOCK_ROWS, ResultTable, load_csv
from ptlattice.twomode import critical_survival, lz_probability, multicross_power


def bands_doc(**overrides):
    doc = {
        "kind": "bands",
        "lattice": {"v_real": 0.2, "v_imag": 0.15, "l_max": 12},
        "q_grid": {"start": -1.0, "stop": 1.0, "count": 41},
        "band_count": 2,
    }
    doc.update(overrides)
    return doc


def evolve_doc():
    return {
        "kind": "evolve",
        "lattice": {"v_real": 0.2, "v_imag": 0.0},
        "drive": {"rate": 0.1, "q_start": 0.0, "q_stop": 1.0},
    }


def twomode_doc():
    return {"kind": "twomode", "twomode": {"coupling": 0.4, "skew": 0.3, "rate": 0.12}}


def sweep_doc():
    return {
        "kind": "sweep",
        "lattice": {"v_real": 0.2, "v_imag": 0.0},
        "sweep": {"rate_min": 0.1, "rate_max": 0.3, "count": 5,
                  "q_start": 0.0, "q_stop": 1.8},
    }


class TestConfig:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(bands_doc(extra=1))

    def test_unknown_nested_field(self):
        doc = bands_doc()
        doc["lattice"]["typo"] = 3
        with pytest.raises(ConfigError, match="typo"):
            parse_config(doc)

    def test_missing_required_field(self):
        doc = bands_doc()
        del doc["q_grid"]
        with pytest.raises(ConfigError, match="q_grid"):
            parse_config(doc)

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config({"kind": "nope"})

    def test_invalid_numbers_rejected(self):
        doc = bands_doc()
        doc["lattice"]["v_real"] = "0.2"
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_resolved_includes_defaults(self):
        doc = parse_config(bands_doc()).doc
        assert doc["lattice"]["l_max"] == 12
        # sections read off their dataclasses keep the fields' order and defaults
        two = parse_config(twomode_doc()).doc
        assert list(two["twomode"]) == ["coupling", "skew", "rate"]
        assert two["integrator"] == {"step": None, "sample_stride": None, "convergence_check": False}

    @pytest.mark.parametrize("make, path, value", [
        (bands_doc, ("q_grid", "count"), True),
        (bands_doc, ("band_count",), True),
        (bands_doc, ("lattice", "v_imag"), True),
        (bands_doc, ("lattice", "l_max"), True),
        (evolve_doc, ("integrator", "sample_stride"), True),
        (sweep_doc, ("sweep", "count"), True),
        (sweep_doc, ("sweep", "spacing"), "cubic"),
        (twomode_doc, ("integrator", "sample_stride"), 0),
    ])
    def test_mistyped_field_rejected(self, make, path, value):
        doc = make()
        section = doc
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        with pytest.raises(ConfigError, match=r"\.".join(path)):
            parse_config(doc)

    def test_sweep_requires_positive_rates(self):
        doc = {
            "kind": "sweep",
            "lattice": {"v_real": 0.2, "v_imag": 0.0},
            "sweep": {"rate_min": -0.1, "rate_max": 0.3, "count": 5,
                      "q_start": 0.0, "q_stop": 1.8},
        }
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_drive_spans_fail_fast(self, tmp_path, monkeypatch, capsys):
        # a sweep point crosses exactly one odd-integer momentum: a wider or
        # shorter span is a config error before any propagation
        for q_stop in (3.9, 0.9):
            doc = sweep_doc()
            doc["sweep"]["q_stop"] = q_stop
            with pytest.raises(ConfigError, match="exactly one odd-integer"):
                parse_config(doc)
        calls = []
        monkeypatch.setattr(experiments, "transition_probability",
                            lambda *args: calls.append(args) or 0.0)
        doc = sweep_doc()
        doc["sweep"]["q_stop"] = 3.9
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "w")]) == 2
        assert "exactly one odd-integer" in capsys.readouterr().err
        assert calls == []

    def test_load_config_takes_a_preset_name(self, tmp_path, monkeypatch):
        root = resources.files("ptlattice").joinpath("presets")
        by_path = load_config(str(root.joinpath("fig3.json")))
        assert load_config("fig3").doc == by_path.doc
        assert load_config("fig3.json").doc == by_path.doc
        # a file at the given path wins over the preset of that name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig3").write_text(json.dumps(evolve_doc()))
        assert load_config("fig3").drive.rate == 0.1
        with pytest.raises(ConfigError, match="neither a file nor a bundled preset"):
            load_config("no_such_preset")

    def test_a_directory_does_not_hide_a_preset(self, tmp_path, monkeypatch, capsys):
        # only a file wins over the preset of its name; a directory that is
        # no preset is not found
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig1a").mkdir()
        (tmp_path / "runs").mkdir()
        root = resources.files("ptlattice").joinpath("presets")
        assert load_config("fig1a").doc == load_config(str(root.joinpath("fig1a.json"))).doc
        assert main(["bands", "--config", "fig1a", "--out", "run"]) == 0
        assert main(["bands", "--config", "runs", "--out", "run"]) == 2
        assert "config not found: 'runs'" in capsys.readouterr().err

    @pytest.mark.parametrize("l_max", [MAX_L_MAX + 1, 10**7])
    def test_l_max_above_the_ceiling_exits_2(self, tmp_path, capsys, l_max):
        # refused when parsed, before any (N, N) matrix of N = 2 * l_max + 1 modes
        doc = bands_doc()
        doc["lattice"]["l_max"] = l_max
        with pytest.raises(ConfigError, match=r"lattice: l_max .*\(MAX_L_MAX\)"):
            parse_config(doc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["bands", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ptlattice: error: ") and "MAX_L_MAX" in err
        assert not (tmp_path / "b.csv").exists()

    def test_evolve_rejects_zero_rate(self):
        doc = {
            "kind": "evolve",
            "lattice": {"v_real": 0.2, "v_imag": 0.0},
            "drive": {"rate": 0.0, "q_start": 0.0, "q_stop": 1.0},
        }
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_twomode_rejects_zero_rate(self, tmp_path, capsys):
        doc = twomode_doc()
        doc["twomode"]["rate"] = 0.0
        with pytest.raises(ConfigError, match="twomode: rate must be non-zero"):
            parse_config(doc)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["twomode", "--config", str(path), "--out", str(tmp_path / "z")]) == 2
        assert "rate must be non-zero" in capsys.readouterr().err

    @pytest.fixture
    def no_march(self, monkeypatch):
        """Steps marched by either kernel; a run rejected before any step marches none."""
        marched = []
        for module in (dynamics, twomode):
            monkeypatch.setattr(module, "_march", lambda *args: marched.append(args) or iter(()))
        return marched

    def test_twomode_detuning_underflow_exits_2(self, tmp_path, capsys, no_march):
        # rate * t_max / 2 underflows to 0, so there is no sweep to bound the step by
        doc = twomode_doc()
        doc["twomode"]["rate"] = 5e-324
        doc["t_max"] = 1.0
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["twomode", "--config", str(path), "--out", str(tmp_path / "t")]) == 2
        assert "must not underflow to 0" in capsys.readouterr().err
        assert no_march == []

    def test_evolve_grid_above_the_largest_exits_2(self, tmp_path, capsys, no_march):
        # about 2e302 grid steps, far above MAX_GRID_STEPS
        doc = evolve_doc()
        doc["drive"]["rate"] = 1e-300
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "e")]) == 2
        assert "MAX_GRID_STEPS" in capsys.readouterr().err
        assert no_march == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_grid_above_the_largest_exits_2(self, tmp_path, capsys, no_march, jobs):
        # the 0.3 point alone fits, but its two descending neighbours need
        # about 1e151 and 1e300 grid steps: no point marches, whatever jobs is
        doc = sweep_doc()
        doc["lattice"]["l_max"] = 6
        doc["sweep"].update(rate_min=0.3, rate_max=1e-300, count=3)
        with pytest.raises(ParameterError, match="MAX_GRID_STEPS"):
            run_sweep(parse_config(doc), jobs=jobs)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path), "--jobs", str(jobs),
                     "--out", str(tmp_path / "s")]) == 2
        assert "MAX_GRID_STEPS" in capsys.readouterr().err
        assert no_march == []
        assert not (tmp_path / "s.csv").exists()

    def test_evolve_overflow_exits_2_without_output(self, tmp_path, capsys):
        # deep in the broken phase the beam grows past the float range; the
        # run fails with no numpy warning (warnings are errors under pytest)
        doc = {
            "kind": "evolve",
            "lattice": {"v_real": 0.2, "v_imag": 1.0, "l_max": 4},
            "drive": {"rate": 0.001, "q_start": 0.0, "q_stop": 1.9},
            "integrator": {"step": 0.05},
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "float range" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("skew", [1.6, 3.0], ids=["intensities", "march"])
    def test_twomode_overflow_exits_2_without_output(self, tmp_path, capsys, skew):
        # past the exceptional point P = exp(838) at skew 1.6: the amplitudes
        # stay finite but their squares do not; at skew 3.0 the march itself
        # leaves the float range.  One error line, no numpy warning, no CSV.
        doc = {"kind": "twomode", "twomode": {"coupling": 0.4, "skew": skew, "rate": 0.0045}}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main(["twomode", "--config", str(path), "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ptlattice: error: ")
        assert "leave the float range" in err[0] and err[0].endswith(twomode._OVERFLOW_REMEDY)
        assert "v_imag" not in err[0]
        assert not (tmp_path / "t.csv").exists()

    def test_sweep_closed_form_overflow_exits_2_before_any_point(self, tmp_path, capsys,
                                                                   no_march):
        # exp(942) at rate 1e-3: the analytic column is computed before any point marches
        doc = sweep_doc()
        doc["lattice"]["v_imag"] = 0.8
        doc["sweep"]["rate_min"] = 1e-3
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ptlattice: error: ")
        assert "leaves the float range" in err[0]
        assert no_march == []
        assert not (tmp_path / "s.csv").exists()

    def test_multicross_prediction_overflow_exits_2_before_the_march(self, tmp_path, capsys,
                                                                     request):
        # far past the exceptional point the two-mode P = exp(785) leaves the
        # float range while the lattice's power peaks at 3.8e250: the run fails
        # on its plateau predictions before any step marches, and writes nothing
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 10.0, "l_max": 6},
            "drive": {"rate": 0.2, "q_start": 0.0, "q_stop": 3.9},
        }
        cfg = parse_config(doc)
        trace = dynamics.evolve(dynamics.prepare_band_state(cfg.lattice, 0.0, 1), cfg.lattice,
                                cfg.drive)
        assert np.all(np.isfinite(trace.power)) and trace.power.max() < 1e300
        no_march = request.getfixturevalue("no_march")
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main(["multicross", "--config", str(path), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ptlattice: error: ")
        assert "leaves the float range" in err[0]
        assert no_march == []
        assert not (tmp_path / "m.csv").exists()

    def test_zero_jobs_flag_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bands.json"
        path.write_text(json.dumps(bands_doc()))
        out = tmp_path / "b"
        assert main(["bands", "--config", str(path), "--jobs", "0", "--out", str(out)]) == 2
        assert "jobs: expected a positive integer" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()


class TestResultTable:
    def test_csv_round_trip(self, tmp_path):
        table = ResultTable(
            {"a": [1.5, 0.25], "b": [2, -3]}, metadata={"config": {"x": 1}, "warnings": []}
        )
        path = table.write_csv(tmp_path / "t.csv")
        back = load_csv(path)
        assert list(back.columns) == ["a", "b"]
        assert back.rows == [(1.5, 2), (0.25, -3)]
        assert back.metadata == {"config": {"x": 1}, "warnings": []}
        # an empty table keeps its header and names
        empty = ResultTable({"a": [], "b": []}, metadata={"warnings": []})
        path = empty.write_csv(tmp_path / "empty.csv")
        assert path.read_bytes() == b'# {"warnings":[]}\na,b\n'
        back = load_csv(path)
        assert list(back.columns) == ["a", "b"]
        assert back.rows == []
        assert back.metadata == {"warnings": []}

    def test_csv_cell_bytes(self, tmp_path):
        rows = [
            (True, np.bool_(False), 3, np.int64(-4), 0.1, np.float64(1e-300), "x", 2.5),
            (False, np.bool_(True), -7, np.int32(5), np.float32(0.5), -0.0, "y z", 1 / 3),
        ]
        columns = dict(zip("abcdefgh", zip(*rows)))
        path = ResultTable(columns).write_csv(tmp_path / "t.csv")
        assert path.read_bytes() == (
            b"# {}\n"
            b"a,b,c,d,e,f,g,h\n"
            b"True,False,3,-4,0.1,1e-300,x,2.5\n"
            b"False,True,-7,5,0.5,-0.0,y z,0.3333333333333333\n"
        )

    def test_csv_runs_print_each_cell(self, tmp_path):
        # runs of equal cells, the last one across a block edge: every cell
        # still prints as its own str, though 0.0 == -0.0 and nan != nan
        head = [0.0, 0.0, -0.0, -0.0, 0.0, math.nan, math.nan, math.inf, math.inf, -math.inf]
        floats = head + [1.5] * (_BLOCK_ROWS - len(head) - 1) + [-0.0] * 3
        n = len(floats)
        columns = {
            "f": floats,
            "i": [3, 3, -3] + [0] * (n - 3),
            "b": [True, True, False] + [True] * (n - 3),
            "s": ["a", "a", "b"] + ["c"] * (n - 3),
            "o": [None, None] + [2**70] * (n - 2),
        }
        one_row = {"f": [-0.0], "s": ["x"]}
        empty = {"f": np.array([]), "s": np.array([], dtype=str)}
        for i, cols in enumerate([columns, one_row, empty]):
            path = ResultTable(cols).write_csv(tmp_path / f"t{i}.csv")
            rows = "".join(",".join(map(str, row)) + "\n" for row in zip(*cols.values()))
            assert path.read_bytes() == ("# {}\n" + ",".join(cols) + "\n" + rows).encode()

    def test_metadata_line_alone_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('# {"warnings":[]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="column header row"):
            load_csv(path)

    def test_rows_must_be_rectangular(self):
        # columns of unequal length make ragged rows
        with pytest.raises(ValueError):
            ResultTable({"a": [1], "b": [1, 2]})


class TestRunners:
    def test_run_bands_gap_oracle(self):
        table = run_bands(parse_config(bands_doc()))
        q = table.column("q")
        band = table.column("band")
        energy = table.column("energy_re")
        gap_at = {}
        for qv in np.unique(q):
            sel = q == qv
            gap_at[qv] = energy[sel & (band == 2)][0] - energy[sel & (band == 1)][0]
        # avoided crossing: minimum gap 2 sqrt(v1^2 - v2^2) at the zone edge
        assert min(gap_at, key=gap_at.get) in (-1.0, 1.0)
        assert gap_at[1.0] == pytest.approx(2 * math.sqrt(0.04 - 0.0225), rel=0.01)
        assert table.metadata["phase"] == "unbroken"

    def test_run_bands_rows_follow_band_structure(self):
        # row order: the bands of each momentum in turn, as a per-row loop gives
        cfg = parse_config(bands_doc())
        grid = np.linspace(-1.0, 1.0, 41)
        energies = band_arrays(cfg.lattice, grid, bands=()).energies
        expected = [
            (float(q), band + 1, float(energy.real), float(energy.imag))
            for q, row in zip(grid, energies)
            for band, energy in enumerate(row[:2])
        ]
        assert run_bands(cfg).rows == expected

    def test_run_bands_critical_touch(self):
        doc = bands_doc()
        doc["lattice"]["v_imag"] = 0.2
        table = run_bands(parse_config(doc))
        q = table.column("q")
        band = table.column("band")
        energy = table.column("energy_re")
        sel = q == 1.0
        gap = energy[sel & (band == 2)][0] - energy[sel & (band == 1)][0]
        assert abs(gap) < 1e-8

    def test_run_bands_hermitian_gap(self):
        doc = bands_doc()
        doc["lattice"]["v_imag"] = 0.0
        table = run_bands(parse_config(doc))
        q = table.column("q")
        band = table.column("band")
        energy = table.column("energy_re")
        sel = q == 1.0
        gap = energy[sel & (band == 2)][0] - energy[sel & (band == 1)][0]
        assert gap == pytest.approx(0.4, rel=0.01)

    def test_run_evolve_hermitian_conservation(self):
        doc = {
            "kind": "evolve",
            "lattice": {"v_real": 0.2, "v_imag": 0.0},
            "drive": {"rate": 0.03, "q_start": 0.0, "q_stop": 1.8},
        }
        table = run_evolve(parse_config(doc))
        assert np.max(np.abs(table.column("power") - 1.0)) < 1e-6
        assert table.metadata["final_power"] == pytest.approx(1.0, abs=1e-6)

    def test_run_sweep_parallel_deterministic(self):
        doc = {
            "kind": "sweep",
            "lattice": {"v_real": 0.2, "v_imag": 0.15},
            "sweep": {"rate_min": 0.05, "rate_max": 0.3, "count": 3,
                      "q_start": 0.0, "q_stop": 1.8},
        }
        table = run_sweep(parse_config(doc), jobs=2)
        again = run_sweep(parse_config(doc), jobs=2)
        assert table.rows == again.rows
        assert list(table.column("rate")) == sorted(table.column("rate"))
        assert np.all(table.column("abs_error") <= 0.03)
        # analytic column comes from the closed form
        two_ref = math.exp(-math.pi * (0.16 - 0.09) / (2 * 4 * 0.3))
        assert table.rows[-1][2] == pytest.approx(two_ref, rel=1e-12)

    def test_sweep_rows_do_not_depend_on_jobs(self):
        doc = {
            "kind": "sweep",
            "lattice": {"v_real": 0.2, "v_imag": 0.15, "l_max": 6},
            "sweep": {"rate_min": 0.03, "rate_max": 0.3, "count": 5, "spacing": "log",
                      "q_start": 0.0, "q_stop": 1.8},
        }
        rows = [run_sweep(parse_config(doc), jobs=jobs).rows for jobs in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count, jobs, children", [(2, 3, 1), (1, 2, 0)])
    def test_sweep_starts_at_most_one_child_per_rate(self, monkeypatch, count, jobs, children):
        # the calling process computes points too, so jobs processes need jobs - 1 children
        started = []

        class RecordingProcess(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
        doc = sweep_doc()
        doc["sweep"]["count"] = count
        table = run_sweep(parse_config(doc), jobs=jobs)
        assert len(started) == children
        assert not any(child.is_alive() for child in started)
        assert len(table.rows) == count

    @pytest.mark.parametrize("failing_in, via_cli", [("child", False), ("child", True),
                                                     ("caller", False)],
                             ids=["child-api", "child-cli", "caller-api"])
    def test_sweep_point_failure_reaches_the_caller(self, monkeypatch, tmp_path, capfd,
                                                    failing_in, via_cli):
        # one process fails on its first point, its one rate, while each point
        # of the other waits first; the error moves the shared counter past
        # the end, so the other process takes no second point
        caller, real = os.getpid(), experiments.transition_probability
        waited = multiprocessing.Value("i", 0)

        def failing(lattice, drive, step=None, refine=1):
            if (os.getpid() == caller) == (failing_in == "caller"):
                raise ParameterError(f"rate {drive.rate:g} fails")
            with waited.get_lock():
                waited.value += 1
            time.sleep(0.5)
            return real(lattice, drive, step, refine)

        monkeypatch.setattr(experiments, "transition_probability", failing)
        doc = sweep_doc()
        if via_cli:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            assert main(["sweep", "--config", str(cfg), "--jobs", "2",
                         "--out", str(tmp_path / "o")]) == 2
            err = capfd.readouterr().err.splitlines()
            assert len(err) == 1 and re.fullmatch(r"ptlattice: error: rate [0-9.]+ fails", err[0])
        else:
            with pytest.raises(ParameterError, match=r"rate [0-9.]+ fails"):
                run_sweep(parse_config(doc), jobs=2)
        assert waited.value <= 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("via_cli", [False, True], ids=["api", "cli"])
    def test_sweep_child_that_dies_is_reported(self, monkeypatch, tmp_path, capfd, via_cli):
        # the child exits on its first point without sending it; the caller
        # computes its own points only once the child has died, so the child
        # always takes one, and the sweep fails instead of losing that point
        caller, real = os.getpid(), experiments.transition_probability
        died = multiprocessing.Value("i", 0)

        def dying(lattice, drive, step=None, refine=1):
            if os.getpid() != caller:
                died.value = 1
                os._exit(3)
            deadline = time.monotonic() + 60
            while not died.value and time.monotonic() < deadline:
                time.sleep(0.01)
            return real(lattice, drive, step, refine)

        monkeypatch.setattr(experiments, "transition_probability", dying)
        doc = sweep_doc()
        if via_cli:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            assert main(["sweep", "--config", str(cfg), "--jobs", "2",
                         "--out", str(tmp_path / "o")]) == 2
            err = capfd.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("ptlattice: error: ")
            assert "exited with code 3" in err[0]
            assert not (tmp_path / "o.csv").exists()
        else:
            with pytest.raises(ChildProcessError, match="exited with code 3"):
                run_sweep(parse_config(doc), jobs=2)
        assert died.value == 1
        assert multiprocessing.active_children() == []

    def test_linear_spacing_is_linspace(self):
        doc = sweep_doc()
        doc["lattice"]["l_max"] = 6
        doc["sweep"].update(spacing="linear", count=4)
        rows = []
        for jobs in (1, 2):
            table = run_sweep(parse_config(doc), jobs=jobs)
            np.testing.assert_array_equal(table.column("rate"), np.linspace(0.1, 0.3, 4))
            rows.append(table.rows)
        assert rows[0] == rows[1]

    def test_run_multicross_plateau_metadata(self):
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 0.1},
            "drive": {"rate": 0.1, "q_start": 0.0, "q_stop": 3.9},
        }
        table = run_multicross(parse_config(doc))
        plateaus = {p["crossings"]: p for p in table.metadata["plateaus"]}
        assert set(plateaus) == {0, 1, 2}
        assert plateaus[0]["mean_power"] == pytest.approx(1.0, abs=0.02)
        assert "predicted_power" in plateaus[1]
        assert plateaus[2]["mean_power"] > plateaus[1]["mean_power"]

    def test_driven_kinds_report_the_same_plateaus_and_final_power(self):
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 0.1, "l_max": 4},
            "drive": {"rate": 0.3, "q_start": 0.0, "q_stop": 3.9},
            "integrator": {"step": 0.005},
        }
        multicross = run_multicross(parse_config(doc))
        evolve = run_evolve(parse_config({**doc, "kind": "evolve"}))
        plateaus = evolve.metadata["plateaus"]
        assert plateaus == multicross.metadata["plateaus"]
        assert [p["crossings"] for p in plateaus] == [0, 1, 2]
        assert "predicted_power" not in plateaus[0]
        for p in plateaus[1:]:
            assert p["predicted_power"] == multicross_power(0.4, 0.2, 1.2, p["crossings"])
        for table in (evolve, multicross):
            assert table.metadata["final_power"] == table.rows[-1][2]
            assert "predicted_terminal_power" not in table.metadata

    def test_multicross_solves_bands_only_at_its_launch(self, monkeypatch, tmp_path):
        # multicross writes no band column, so it projects no sample: the
        # one band_arrays call prepares the launch, and its rows are the
        # z, q and power cells the evolve runner writes for the same drive
        momenta = []

        def spy(params, q, *args, **kwargs):
            momenta.append(np.atleast_1d(q).tolist())
            return band_arrays(params, q, *args, **kwargs)

        monkeypatch.setattr(dynamics, "band_arrays", spy)
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 0.15, "l_max": 4},
            "drive": {"rate": -0.3, "q_start": 0.0, "q_stop": -3.9},
            "integrator": {"step": 0.005},
        }
        multicross = run_multicross(parse_config(doc))
        assert momenta == [[0.0]]
        assert "projection_failures" not in multicross.metadata["integration"]
        evolve = run_evolve(parse_config({**doc, "kind": "evolve"}))
        assert momenta[1] == [0.0] and len(momenta[2]) == len(evolve.rows) > 100
        assert evolve.metadata["integration"]["projection_failures"] == 0
        lines = [table.write_csv(tmp_path / f"{name}.csv").read_text().splitlines()[2:]
                 for name, table in (("multicross", multicross), ("evolve", evolve))]
        assert lines[0] == [",".join(line.split(",")[:3]) for line in lines[1]]

    def test_run_multicross_needs_two_crossings(self):
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 0.1},
            "drive": {"rate": 0.1, "q_start": 0.0, "q_stop": 1.8},
        }
        with pytest.raises(ConfigError, match="at least two"):
            parse_config(doc)

    @pytest.mark.parametrize("v_imag", [0.2, 0.25, 0.3, -0.25])
    def test_sweep_past_the_exceptional_point_follows_the_closed_form(self, v_imag, tmp_path):
        # at and past |v_imag| = v_real the continued closed form is the
        # analytic column, and the lattice follows it (measured worst +1.83%,
        # at v_imag 0.3 and rate 0.03)
        doc = sweep_doc()
        doc["lattice"].update(v_imag=v_imag, l_max=12)
        doc["sweep"].update(rate_min=0.03, rate_max=0.3, count=3)
        path = tmp_path / "ep.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        table = load_csv(tmp_path / "s.csv")
        for rate, numeric, analytic in zip(*map(table.column, ("rate", "p_numeric", "p_analytic"))):
            assert analytic == lz_probability(0.4, 2 * v_imag, 4 * rate)
            assert numeric == pytest.approx(analytic, rel=0.02)

    def test_multicross_at_the_exceptional_point_predicts_every_plateau(self):
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 0.2},
            "drive": {"rate": 0.1, "q_start": 0.0, "q_stop": 3.9},
        }
        plateaus = run_multicross(parse_config(doc)).metadata["plateaus"]
        assert [p["crossings"] for p in plateaus] == [0, 1, 2]
        for p in plateaus[1:]:
            predicted = multicross_power(0.4, 0.4, 0.4, p["crossings"])
            assert p["predicted_power"] == predicted
            assert p["mean_power"] == pytest.approx(predicted, rel=0.1)
        assert plateaus[1]["predicted_power"] == 1.0 + critical_survival(0.4, 0.4)

    def test_run_twomode_metadata(self):
        doc = {
            "kind": "twomode",
            "twomode": {"coupling": 0.4, "skew": 0.0, "rate": 0.12},
            "t_max": 80.0,
        }
        table = run_twomode(parse_config(doc))
        assert list(table.columns) == ["t", "a1_sq", "a2_sq", "power"]
        assert table.metadata["analytic"]["transition"] == pytest.approx(
            math.exp(-math.pi * 0.16 / 0.24), rel=1e-12
        )
        rows = np.array(table.rows)
        np.testing.assert_allclose(rows[:, 3], rows[:, 1] + rows[:, 2], atol=1e-12)

    def test_run_twomode_at_matched_amplitudes_records_the_analytic_limits(self):
        doc = {"kind": "twomode", "twomode": {"coupling": 0.4, "skew": 0.4, "rate": 0.12}}
        analytic = run_twomode(parse_config(doc)).metadata["analytic"]
        assert analytic == {"transition": 1.0, "survival": critical_survival(0.4, 0.12)}

    def test_run_twomode_integrator_passes_through(self):
        doc = {
            "kind": "twomode",
            "twomode": {"coupling": 0.4, "skew": 0.1, "rate": 0.12},
            "t_max": 40.0,
            "integrator": {"step": 0.05, "sample_stride": 10},
        }
        cfg = parse_config(doc)
        assert cfg.doc["integrator"]["convergence_check"] is False
        table = run_twomode(cfg)
        t = table.column("t")
        # 1600 grid steps of 0.05, one sample every 10, each interval marched
        # in 4 table steps
        assert t.size == 161
        np.testing.assert_allclose(np.diff(t), 0.5, rtol=1e-9)
        integration = table.metadata["integration"]
        assert integration["steps"] == 1600
        assert integration["step"] == pytest.approx(0.05, rel=1e-12)


class TestCli:
    def test_bands_end_to_end(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bands_doc()))
        out = tmp_path / "bands_run"
        code = main(["bands", "--config", str(cfg), "--out", str(out), "--svg"])
        assert code == 0
        table = load_csv(out.with_suffix(".csv"))
        assert list(table.columns) == ["q", "band", "energy_re", "energy_im"]
        assert table.metadata["config"]["lattice"]["v_real"] == 0.2
        tree = ET.parse(out.with_suffix(".svg"))
        assert tree.getroot().tag.endswith("svg")

    @pytest.mark.parametrize(
        "doc",
        [
            bands_doc(),
            evolve_doc(),
            {
                "kind": "multicross",
                "lattice": {"v_real": 0.2, "v_imag": 0.1, "l_max": 4},
                "drive": {"rate": 0.3, "q_start": 0.0, "q_stop": 3.9},
                "integrator": {"step": 0.005},
            },
            sweep_doc(),
            {
                "kind": "twomode",
                "twomode": {"coupling": 0.4, "skew": 0.1, "rate": 0.12},
                "t_max": 40.0,
            },
        ],
        ids=lambda doc: doc["kind"],
    )
    def test_deterministic_output_bytes(self, tmp_path, doc):
        # the run options are not part of the output: whole files, the
        # metadata line included, match across prefixes and process counts
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        a, b = tmp_path / "a", tmp_path / "d" / "b"
        for out, jobs in ((a, "1"), (b, "2")):
            assert main([doc["kind"], "--config", str(cfg), "--out", str(out), "--svg",
                         "--jobs", jobs]) == 0
        for suffix in (".csv", ".svg"):
            assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()

    def test_unusable_out_exits_2_before_the_run(self, tmp_path, monkeypatch, capsys):
        # the output directory would have to replace a regular file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        runs = []
        monkeypatch.setitem(experiments.RUNNERS, "twomode", runs.append)
        assert main(["twomode", "--config", "twomode", "--out", "file/x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ptlattice: error: ") and len(err.splitlines()) == 1
        assert runs == []

    @staticmethod
    def run_into_directory(name, flags, tmp_path, monkeypatch, capsys):
        """Run twomode with the output file `name` an existing directory: exit 2 before the run."""
        (tmp_path / name).mkdir()
        runs = []
        monkeypatch.setitem(experiments.RUNNERS, "twomode", runs.append)
        assert main(["twomode", "--config", "twomode", "--out", str(tmp_path / "d"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ptlattice: error: ") and len(err.splitlines()) == 1
        assert name in err
        # the runner never ran, and no CSV was written
        assert runs == []
        assert not (tmp_path / "d.csv").is_file()

    def test_unwritable_csv_exits_2(self, tmp_path, monkeypatch, capsys):
        self.run_into_directory("d.csv", [], tmp_path, monkeypatch, capsys)

    def test_unwritable_svg_exits_2(self, tmp_path, monkeypatch, capsys):
        self.run_into_directory("d.svg", ["--svg"], tmp_path, monkeypatch, capsys)

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bands_doc(bogus=1)))
        assert main(["bands", "--config", str(cfg)]) == 2
        assert "unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("out", "x"), ("jobs", 2), ("svg", True)])
    def test_run_option_in_config_exits_2(self, tmp_path, capsys, field, value):
        # run options are command-line flags only; the config holds the computation
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bands_doc(**{field: value})))
        assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ptlattice: error: ") and len(err.splitlines()) == 1
        assert f"unknown field(s) [{field!r}]" in err
        assert not (tmp_path / "o.csv").exists()

    def test_default_prefix_is_the_config_stem(self, tmp_path, monkeypatch):
        # a config file's stem, wherever the file lives, and a preset's name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfgs").mkdir()
        cfg = tmp_path / "cfgs" / "my_bands.json"
        cfg.write_text(json.dumps(bands_doc()))
        assert main(["bands", "--config", str(cfg)]) == 0
        assert main(["twomode", "--config", "twomode", "--svg"]) == 0
        assert main(["bands", "--config", "fig1a.json"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
            "fig1a.csv", "my_bands.csv", "twomode.csv", "twomode.svg"]

    @pytest.mark.parametrize("out", ["sub" + os.sep, ""], ids=["separator", "empty"])
    def test_out_without_a_file_name_exits_2(self, tmp_path, monkeypatch, capsys, out):
        # "sub/" would write the hidden file sub/.csv
        monkeypatch.chdir(tmp_path)
        runs = []
        monkeypatch.setitem(experiments.RUNNERS, "twomode", runs.append)
        assert main(["twomode", "--config", "twomode", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ptlattice: error: ") and len(err.splitlines()) == 1
        assert runs == []
        assert list(tmp_path.iterdir()) == []

    def test_kind_mismatch_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bands_doc()))
        assert main(["evolve", "--config", str(cfg)]) == 2

    def test_missing_config_exits_2(self):
        assert main(["bands", "--config", "no_such_file.json"]) == 2

    def test_accuracy_failure_exits_3(self, tmp_path, capsys):
        doc = {
            "kind": "evolve",
            "lattice": {"v_real": 0.2, "v_imag": 0.1, "l_max": 4},
            "drive": {"rate": 0.3, "q_start": 0.0, "q_stop": 1.8},
            # one table step over the whole drive
            "integrator": {"step": 0.75, "convergence_check": True},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "coarse"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 3
        assert "accuracy" in capsys.readouterr().err
        # the artifact is still written, with the warning recorded
        table = load_csv(out.with_suffix(".csv"))
        assert table.metadata["warnings"]

    def test_twomode_accuracy_failure_exits_3(self, tmp_path, capsys):
        doc = {
            "kind": "twomode",
            "twomode": {"coupling": 0.4, "skew": 0.0, "rate": 0.12},
            "t_max": 50.0,
            "integrator": {"step": 1.0, "convergence_check": True},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "coarse"
        assert main(["twomode", "--config", str(cfg), "--out", str(out)]) == 3
        assert "step too large" in capsys.readouterr().err
        table = load_csv(out.with_suffix(".csv"))
        assert table.metadata["config"]["integrator"]["step"] == 1.0
        assert table.metadata["warnings"]

    def test_sweep_accuracy_failure_exits_3(self, tmp_path, capsys):
        doc = {
            "kind": "sweep",
            "lattice": {"v_real": 0.2, "v_imag": 0.15, "l_max": 4},
            "integrator": {"step": 0.2, "convergence_check": True},
            "sweep": {"rate_min": 0.3, "rate_max": 0.3, "count": 1,
                      "q_start": 0.0, "q_stop": 1.8},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "coarse"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert "rate 0.3: step too large" in capsys.readouterr().err
        table = load_csv(out.with_suffix(".csv"))
        assert table.metadata["max_probability_halving_diff"] > 1e-6
        assert len(table.metadata["warnings"]) == 1

    def test_sweep_sample_stride_exits_2(self, tmp_path, capsys):
        doc = sweep_doc()
        doc["integrator"] = {"sample_stride": 10}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "sample_stride" in capsys.readouterr().err

    def test_nan_lattice_amplitude_exits_2(self, tmp_path, capsys):
        doc = bands_doc()
        doc["lattice"]["v_real"] = math.nan
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["bands", "--config", str(cfg)]) == 2
        assert "lattice.v_real" in capsys.readouterr().err

    def test_infinite_step_exits_2(self, tmp_path, capsys):
        doc = {
            "kind": "evolve",
            "lattice": {"v_real": 0.2, "v_imag": 0.1, "l_max": 4},
            "drive": {"rate": 0.3, "q_start": 0.0, "q_stop": 1.8},
            "integrator": {"step": math.inf},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert "integrator.step" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig1a", "fig1b", "twomode"])
    def test_preset_name_resolution(self, tmp_path, monkeypatch, name):
        # the presets that run in well under a second; the paper's driven
        # figures run through the same loader in the acceptance module
        monkeypatch.chdir(tmp_path)
        cfg = load_config(name)
        assert main([cfg.kind, "--config", name, "--out", "run"]) == 0
        table = load_csv(tmp_path / "run.csv")
        assert table.metadata["config"] == cfg.doc


NS = "{http://www.w3.org/2000/svg}"


def chart_parts(path) -> dict:
    """The parts of a rendered chart that its run kind decides."""
    root = ET.parse(path).getroot()
    texts = list(root.iter(f"{NS}text"))
    tick_y = str(svgplot.HEIGHT - svgplot.MARGIN_B + 18)
    lines = list(root.iter(f"{NS}polyline"))
    return {
        "title": next(t.text for t in texts if t.get("font-size") == "14"),
        "x_label": next(t.text for t in texts if t.get("y") == str(svgplot.HEIGHT - 10)),
        "y_label": next(t.text for t in texts if t.get("transform")),
        "x_ticks": [t.text for t in texts if t.get("y") == tick_y],
        "legend": [t.text for t in texts if t.get("text-anchor") is None],
        "dashed": [line.get("points").split() for line in lines if line.get("stroke-dasharray")],
        "solid": [line.get("points").split() for line in lines if not line.get("stroke-dasharray")],
    }


class TestCharts:
    def render(self, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main([doc["kind"], "--config", str(cfg), "--out", str(out), "--svg"]) == 0
        return chart_parts(out.with_suffix(".svg")), load_csv(out.with_suffix(".csv"))

    def test_every_kind_has_a_runner_and_a_chart(self):
        assert set(experiments.RUNNERS) == set(KINDS) == set(experiments.CHARTS)

    def test_bands_chart_draws_one_line_per_band(self, tmp_path):
        parts, _ = self.render(tmp_path, bands_doc())
        assert (parts["title"], parts["x_label"], parts["y_label"]) == (
            "Band structure", "q", "energy")
        assert parts["legend"] == ["band 1", "band 2"]
        assert (len(parts["solid"]), len(parts["dashed"])) == (2, 0)

    def test_evolve_chart_draws_the_power(self, tmp_path):
        parts, _ = self.render(tmp_path, evolve_doc())
        assert (parts["title"], parts["x_label"], parts["y_label"]) == ("Beam power", "z", "power")
        assert parts["legend"] == ["power"]
        assert (len(parts["solid"]), len(parts["dashed"])) == (1, 0)

    def test_sweep_chart_has_log_rate_decades(self, tmp_path):
        doc = sweep_doc()
        doc["lattice"]["l_max"] = 4
        doc["integrator"] = {"step": 0.02}
        doc["sweep"].update(rate_min=0.01, rate_max=1.0, count=3)
        parts, _ = self.render(tmp_path, doc)
        assert (parts["title"], parts["x_label"], parts["y_label"]) == (
            "Transition probability", "rate", "P")
        assert parts["x_ticks"] == ["1e-2", "1e-1", "1e0"]
        assert parts["legend"] == ["numeric", "two-mode theory"]
        assert (len(parts["solid"]), len(parts["dashed"])) == (1, 1)

    def test_multicross_chart_draws_plateau_theory_lines(self, tmp_path):
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 0.1, "l_max": 4},
            "drive": {"rate": 0.3, "q_start": 0.0, "q_stop": 3.9},
            "integrator": {"step": 0.005},
        }
        parts, table = self.render(tmp_path, doc)
        assert (parts["title"], parts["x_label"], parts["y_label"]) == ("Beam power", "z", "power")
        assert parts["legend"] == ["power", "plateau 1 theory", "plateau 2 theory"]
        assert len(parts["solid"]) == 1
        predicted = [p["predicted_power"] for p in table.metadata["plateaus"][1:]]
        assert len(predicted) == len(parts["dashed"]) == 2
        power = parts["solid"][0]
        for line in parts["dashed"]:
            # a level line across the whole run
            (x0, y0), (x1, y1) = (point.split(",") for point in line)
            assert y0 == y1
            assert (x0, x1) == (power[0].split(",")[0], power[-1].split(",")[0])
        # the higher predicted plateau is drawn higher up, at a smaller pixel y
        heights = [float(line[0].split(",")[1]) for line in parts["dashed"]]
        assert (heights[0] > heights[1]) == (predicted[0] < predicted[1])

    def test_fig3_chart_draws_its_plateau_theory_level(self, tmp_path, monkeypatch):
        # the paper's fig. 3 drive crosses once: one dashed level at the
        # two-mode prediction, 3 for the adiabatic gain
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--config", "fig3", "--out", "run", "--svg"]) == 0
        parts = chart_parts(tmp_path / "run.svg")
        assert parts["legend"] == ["power", "plateau 1 theory"]
        assert (len(parts["solid"]), len(parts["dashed"])) == (1, 1)
        (x0, y0), (x1, y1) = (point.split(",") for point in parts["dashed"][0])
        assert y0 == y1
        power = parts["solid"][0]
        assert (x0, x1) == (power[0].split(",")[0], power[-1].split(",")[0])
        plateaus = load_csv(tmp_path / "run.csv").metadata["plateaus"]
        assert plateaus[-1]["predicted_power"] == pytest.approx(3.0, rel=1e-12)

    def test_twomode_chart_draws_both_levels_and_power(self, tmp_path):
        doc = {
            "kind": "twomode",
            "twomode": {"coupling": 0.4, "skew": 0.1, "rate": 0.12},
            "t_max": 40.0,
        }
        parts, _ = self.render(tmp_path, doc)
        assert (parts["title"], parts["x_label"], parts["y_label"]) == (
            "Two-level sweep", "t", "intensity")
        assert parts["legend"] == ["|a1|^2", "|a2|^2", "power"]
        assert (len(parts["solid"]), len(parts["dashed"])) == (2, 1)


class TestPresets:
    def test_all_presets_parse(self):
        root = resources.files("ptlattice").joinpath("presets")
        names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
        assert len(names) >= 10
        for name in names:
            cfg = load_config(str(root.joinpath(name)))
            assert cfg.kind in ("bands", "evolve", "sweep", "multicross", "twomode")
            assert parse_config(cfg.doc).doc == cfg.doc

    def test_expected_presets_exist(self):
        root = resources.files("ptlattice").joinpath("presets")
        have = {p.name for p in root.iterdir()}
        for name in ("fig1a", "fig1b", "fig3", "fig3_reverse", "fig4a", "fig4b", "fig4c",
                     "fig5a", "fig5a_critical", "fig5b", "fig5b_critical", "twomode"):
            assert f"{name}.json" in have
