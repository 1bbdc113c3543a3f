"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _span(sid, start, end, parent=None, name="x"):
    return tracing.Span(sid, name, start, end, parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 4.0, parent=0),      # overlaps its sibling: counted once
        _span(3, 8.0, 12.0, parent=0),     # runs past its parent: clipped at 10
        _span(4, 1.5, 2.5, parent=1),      # grandchild: only its parent's business
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (3.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_recorder_links_each_span_to_its_caller():
    rec = tracing.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["outer"]
    assert root.parent is None
    assert [s.parent for s in by_name["inner"]] == [root.sid, root.sid]
    selfs = tracing.self_times(rec.spans)
    covered = sum(s.duration for s in by_name["inner"])
    assert selfs[root.sid] == pytest.approx(root.duration - covered)


def test_layer_metrics_divide_self_time_by_counts():
    rec = tracing.Recorder()
    rec.spans = [
        _span(0, 0.0, 6.0, name="cli.main"),
        _span(1, 0.5, 5.5, parent=0, name="dynamics.evolve"),
        _span(2, 1.5, 2.5, parent=1, name="dynamics.project_onto_band"),
        _span(3, 2.5, 3.0, parent=2, name="lattice.eigensystem"),
    ]
    rec.counts["dynamics.steps"] = 1000
    m = tracing.layer_metrics(rec)
    assert m["dynamics.propagate_s"] == pytest.approx(4.0)
    assert m["dynamics.step_us"] == pytest.approx(4000.0)
    assert m["dynamics.project_s"] == pytest.approx(1.0)
    assert m["lattice.eig_us"] == pytest.approx(5e5)
    assert m["trace.remainder_s"] == pytest.approx(1.0)
    assert m["twomode.step_us"] == 0.0


def test_traced_block_restores_the_package():
    import ptlattice.cli as cli
    import ptlattice.lattice as lattice
    from ptlattice.results import ResultTable

    before = (cli.main, lattice.eigensystem, ResultTable.__dict__["write_csv"], dict(cli.RUNNERS))
    with tracing.traced(tracing.Recorder()):
        assert cli.main is not before[0]
    after = (cli.main, lattice.eigensystem, ResultTable.__dict__["write_csv"], dict(cli.RUNNERS))
    assert after == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_configs(workload):
    first, again, other = generate(workload, 7), generate(workload, 7), generate(workload, 8)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_parse(workload):
    from ptlattice.config import parse_config

    for text in generate(workload, 3).values():
        parse_config(json.loads(text))


def test_reference_propagator_matches_a_fine_package_run():
    from ptlattice import DriveParams, IntegratorConfig, LatticeParams, evolve
    from ptlattice import prepare_band_state

    params, drive = LatticeParams(0.2, 0.15, 4), DriveParams(0.1, 0.0, 1.6)
    trace = evolve(prepare_band_state(params, 0.0, 1), params, drive,
                   IntegratorConfig(step=0.002, sample_stride=100))
    ref = reference.lattice_powers(0.2, 0.15, 4, 0.0, 0.1, trace.z, 0.01)
    assert np.max(np.abs(ref - trace.power)) < 1e-7


def test_two_mode_reference_converges():
    t = np.array([-300.0, 250.0, 300.0])
    coarse = reference.two_mode_intensities(0.4, 0.3, 0.12, t, 0.02)
    fine = reference.two_mode_intensities(0.4, 0.3, 0.12, t, 0.01)
    assert np.max(np.abs(np.array(coarse) - np.array(fine))) < 1e-5
