"""Front end: configs, runners, CSV/SVG artifacts, exit codes, presets."""

import json
import math
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from ptlattice import dynamics, experiments, svgplot, twomode
from ptlattice.cli import main
from ptlattice.config import KINDS, load_config, parse_config
from ptlattice.errors import ConfigError, ParameterError
from ptlattice.lattice import band_arrays
from ptlattice.experiments import run_bands, run_evolve, run_multicross, run_sweep, run_twomode
from ptlattice.results import _BLOCK_ROWS, ResultTable, load_csv


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
        assert doc["jobs"] == 1
        assert doc["svg"] is False
        assert doc["out"] == "bands"
        assert doc["lattice"]["l_max"] == 12
        # sections read off their dataclasses keep the fields' order and defaults
        two = parse_config(twomode_doc()).doc
        assert list(two["twomode"]) == ["coupling", "skew", "rate"]
        assert two["integrator"] == {"step": None, "sample_stride": None, "convergence_check": False}

    @pytest.mark.parametrize("make, path, value", [
        (bands_doc, ("q_grid", "count"), True),
        (bands_doc, ("band_count",), True),
        (bands_doc, ("jobs",), True),
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
            "jobs": 2,
        }
        table = run_sweep(parse_config(doc))
        again = run_sweep(parse_config(doc))
        assert table.rows == again.rows
        assert list(table.column("rate")) == sorted(table.column("rate"))
        assert np.all(table.column("abs_error") <= 0.03)
        # analytic column comes from the closed form
        two_ref = math.exp(-math.pi * (0.16 - 0.09) / (2 * 4 * 0.3))
        assert table.rows[-1][2] == pytest.approx(two_ref, rel=1e-12)

    @pytest.mark.parametrize("count, jobs, pools", [(2, 3, [2]), (1, 2, [])])
    def test_sweep_pool_has_at_most_one_worker_per_rate(self, monkeypatch, count, jobs, pools):
        # a pool starts all its workers at once; this stand-in records the
        # size asked for and maps in this process, starting no worker
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        doc = dict(sweep_doc(), jobs=jobs)
        doc["sweep"]["count"] = count
        table = run_sweep(parse_config(doc))
        assert asked == pools
        assert len(table.rows) == count

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

    def test_run_multicross_needs_two_crossings(self):
        doc = {
            "kind": "multicross",
            "lattice": {"v_real": 0.2, "v_imag": 0.1},
            "drive": {"rate": 0.1, "q_start": 0.0, "q_stop": 1.8},
        }
        with pytest.raises(ConfigError, match="at least two"):
            parse_config(doc)

    @pytest.mark.parametrize("v_imag", [0.2, 0.25])
    def test_sweep_outside_real_gap_fails_before_propagating(self, v_imag, monkeypatch):
        # the closed form has no value at |skew| >= coupling: the sweep must
        # say so before it spends any propagation on the numeric column
        calls = []
        monkeypatch.setattr(experiments, "transition_probability",
                            lambda *args: calls.append(args) or 0.0)
        doc = sweep_doc()
        doc["lattice"]["v_imag"] = v_imag
        with pytest.raises(ParameterError, match="real gap"):
            run_sweep(parse_config(doc))
        assert calls == []

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
            dict(sweep_doc(), jobs=2),
            {
                "kind": "twomode",
                "twomode": {"coupling": 0.4, "skew": 0.1, "rate": 0.12},
                "t_max": 40.0,
            },
        ],
        ids=lambda doc: doc["kind"],
    )
    def test_deterministic_output_bytes(self, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([doc["kind"], "--config", str(cfg), "--out", str(out), "--svg"]) == 0
        a_bytes = a.with_suffix(".csv").read_bytes()
        b_bytes = b.with_suffix(".csv").read_bytes()
        # metadata echoes the out prefix; compare data payloads
        assert a_bytes.split(b"\n", 1)[1] == b_bytes.split(b"\n", 1)[1]
        assert a.with_suffix(".svg").read_bytes() == b.with_suffix(".svg").read_bytes()

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

    def test_unwritable_csv_exits_2(self, tmp_path, monkeypatch, capsys):
        # the CSV path is a directory: the write fails after the run
        (tmp_path / "d.csv").mkdir()
        table = ResultTable({"t": [0.0]}, {"warnings": []})
        monkeypatch.setitem(experiments.RUNNERS, "twomode", lambda cfg: table)
        assert main(["twomode", "--config", "twomode", "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ptlattice: error: ") and len(err.splitlines()) == 1

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bands_doc(bogus=1)))
        assert main(["bands", "--config", str(cfg)]) == 2
        assert "unknown field" in capsys.readouterr().err

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
            "integrator": {"step": 0.2, "convergence_check": True},
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
        assert table.metadata["config"] == {**cfg.doc, "out": "run"}


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
