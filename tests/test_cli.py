"""Front end: configs, runners, CSV/SVG artifacts, exit codes, presets."""

import json
import math
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from ptlattice import experiments
from ptlattice.cli import main
from ptlattice.config import load_config, parse_config
from ptlattice.errors import ConfigError, ParameterError
from ptlattice.lattice import band_structure
from ptlattice.experiments import run_bands, run_evolve, run_multicross, run_sweep, run_twomode
from ptlattice.results import ResultTable, load_csv


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
        cfg = parse_config(bands_doc())
        resolved = cfg.resolved()
        assert resolved["jobs"] == 1
        assert resolved["svg"] is False
        assert resolved["out"] == "bands"
        assert resolved["lattice"]["l_max"] == 12
        # sections read off their dataclasses keep the fields' order and defaults
        two = parse_config(twomode_doc()).resolved()
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
        structure = band_structure(cfg.lattice, np.linspace(-1.0, 1.0, 41))
        expected = [
            (float(q), band + 1, float(energy.real), float(energy.imag))
            for iq, q in enumerate(structure.q_grid)
            for band, energy in enumerate(structure.energies[:2, iq])
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
        with pytest.raises(ConfigError):
            run_multicross(parse_config(doc))

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
        assert cfg.resolved()["integrator"]["convergence_check"] is False
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
        assert table.metadata["config"] == {**cfg.resolved(), "out": "run"}


class TestPresets:
    def test_all_presets_parse(self):
        root = resources.files("ptlattice").joinpath("presets")
        names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
        assert len(names) >= 10
        for name in names:
            cfg = load_config(str(root.joinpath(name)))
            assert cfg.kind in ("bands", "evolve", "sweep", "multicross", "twomode")
            assert parse_config(cfg.resolved()).resolved() == cfg.resolved()

    def test_expected_presets_exist(self):
        root = resources.files("ptlattice").joinpath("presets")
        have = {p.name for p in root.iterdir()}
        for name in ("fig1a", "fig1b", "fig3", "fig3_reverse", "fig4a", "fig4b", "fig4c",
                     "fig5a", "fig5a_critical", "fig5b", "fig5b_critical", "twomode"):
            assert f"{name}.json" in have
