"""Benchmark of ptlattice through its public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--refresh-ref]

Run from the root of a source checkout.  The seed generates the workload's
config files; a fresh interpreter times set-up (importing ptlattice.cli and
parsing the configs); a second fresh interpreter runs the workload's CLI
operations sequentially for about S seconds; then every output is checked
and, with --trace 0, compared against a converged reference computed once
per seed and cached under .perfbench/ref (--refresh-ref recomputes it).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run whose package functions are wrapped in spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, critical_reverse_deviation, generate

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
FORMAT = 1      # bump when the stored reference changes meaning
# the smallest deviation the comparison resolves: near criticality the
# biorthogonal projection amplifies roundoff to ~3e-11 in both solutions,
# so smaller deviations are noise and read as this floor
REF_ERROR_FLOOR = 1e-10
# The machine this benchmark was sized on (2-vCPU Xeon KVM guest shared with
# other guests) runs 15% faster or slower in phases of 20-40 s.  Times are
# therefore reported at a fixed reference speed: scaled by the ratio of this
# constant, the calibration loop's typical time there, to the loop's median
# time interleaved with the measured work.  That cuts the run-to-run spread
# of run_s from ~25% to 3-9%; the raw wall times are printed alongside.
REFERENCE_CALIBRATION_S = 1.6e-3

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ref_error": "1"}
LAYER_UNITS = {
    "cli.self_s": "s", "config.load_s": "s", "setup.import_s": "s",
    "experiments.self_s": "s", "experiments.points": "count",
    "experiments.point_s_max": "s", "experiments.point_s_sum": "s",
    "experiments.parallel_eff": "1",
    "dynamics.steps": "count", "dynamics.propagate_s": "s", "dynamics.step_us": "us",
    "dynamics.project_calls": "count", "dynamics.project_s": "s", "dynamics.project_us": "us",
    "dynamics.project_nan": "count",
    "lattice.eig_calls": "count", "lattice.eig_us": "us", "lattice.energies_calls": "count",
    "lattice.energies_us": "us", "lattice.general_share": "1",
    "twomode.steps": "count", "twomode.step_us": "us",
    "results.write_s": "s", "results.bytes": "B", "svgplot.render_s": "s", "svgplot.bytes": "B",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.remainder_s": "s",
}


def _child(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise SystemExit(f"perfbench: {cmd[2]} timed out after {timeout:.0f} s\n{err[-2000:]}")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {cmd[2]} exited {proc.returncode}\n{err[-2000:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _reference(name: str, seed: int, docs: dict, tables: dict, refresh: bool, cache: Path):
    """Reference arrays per operation with an output, from the cache when its inputs match."""
    workload = WORKLOADS[name]
    digest = hashlib.sha256(f"{FORMAT}:{workload.ref_step}".encode())
    for op in sorted(tables):
        digest.update(json.dumps(docs[op], sort_keys=True).encode())
        digest.update(tables[op].column(workload.grid).tobytes())
    fingerprint = digest.hexdigest()
    path = cache / f"{name}-{seed}.npz"
    if path.exists() and not refresh:
        with np.load(path) as stored:
            if str(stored["fingerprint"]) == fingerprint:
                return {op: {k.split("/", 1)[1]: stored[k] for k in stored.files
                             if k.startswith(op + "/")} for op in tables}
    refs = {op: workload.reference(docs[op], tables[op]) for op in tables}
    cache.mkdir(parents=True, exist_ok=True)
    arrays = {f"{op}/{k}": v for op, ref in refs.items() for k, v in ref.items()}
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, fingerprint=np.array(fingerprint),
             step=np.array(np.nan if workload.ref_step is None else workload.ref_step), **arrays)
    os.replace(tmp, path)
    return refs


def _layer_metrics(result: dict, setups: list[dict], jobs: int | None) -> dict:
    """Per-layer metrics of a traced run, with the run-level ones derived here."""
    layers = dict(result["layers"])
    run_s = result["run_s"]
    traced = run_s["traced"]
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    layers["trace.run_s"] = traced
    layers["trace.overhead_s"] = traced - run_s["plain"]
    parallel = run_s.get("parallel")
    layers["experiments.parallel_eff"] = (
        layers["experiments.point_s_sum"] / (jobs * parallel) if parallel else 0.0
    )
    return {k: (layers[k], LAYER_UNITS[k]) for k in LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refresh-ref", action="store_true",
                        help="recompute the cached converged reference")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ptlattice" / "__init__.py").is_file():
        print(f"perfbench: no ptlattice source tree under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from ptlattice.results import load_csv

    state = root / ".perfbench"
    work = state / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    cfg_dir, out_dir = work / "cfg", work / "out"
    cfg_dir.mkdir(parents=True)
    out_dir.mkdir()
    try:
        texts = generate(args.workload, args.seed)
        for op, text in texts.items():
            (cfg_dir / f"{op}.json").write_text(text, encoding="utf-8")
        docs = {op: json.loads(text) for op, text in texts.items()}
        # a fixed hash seed gives every run the same dict and set layouts
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        worker = [sys.executable, str(HERE / "worker.py")]

        setups = [json.loads(_child(worker + ["setup", str(cfg_dir)], env, 60).stdout
                             .strip().splitlines()[-1]) for _ in range(SETUP_RUNS)]
        workload = WORKLOADS[args.workload]
        result_path = work / "result.json"
        run_cmd = worker + ["run", str(cfg_dir), str(out_dir), str(result_path),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if workload.jobs:
            run_cmd += ["--jobs", str(workload.jobs)]
        if args.trace:
            (state / "spans").mkdir(exist_ok=True)
            run_cmd += ["--spans", str(state / "spans" / f"{args.workload}-{args.seed}.tsv")]
        _child(run_cmd, env, CHILD_TIMEOUT_S)
        result = json.loads(result_path.read_text(encoding="utf-8"))

        failures = dict(result["failures"])
        tables = {}
        for op in docs:
            if op in failures:
                continue
            tables[op] = load_csv(out_dir / f"{op}.csv")
            problems = workload.check(op, docs[op], tables[op])
            if problems:
                failures[op] = "; ".join(problems)
        runs_per_op = result["executions"] // len(docs)
        attempted = result["executions"]
        failed = runs_per_op * len(failures)

        speed = REFERENCE_CALIBRATION_S / result["calibration_s"]
        info = {"failed_ops": (failed / attempted, "1"), "machine_speed": (speed, "1")}
        if "critical_rev" in tables:
            info["crit_rev_dev"] = (critical_reverse_deviation(tables["critical_rev"]), "1")
        if args.trace:
            metrics = _layer_metrics(result, setups, workload.jobs)
        else:
            setup_wall = [s["import_s"] + s["load_s"] for s in setups]
            info["run_wall_s"] = (result["run_s"], "s")
            info["setup_wall_s"] = (statistics.median(setup_wall), "s")
            metrics = {
                "run_s": result["run_s"] * speed,
                "setup_s": statistics.median(
                    wall * REFERENCE_CALIBRATION_S / s["calibration_s"]
                    for wall, s in zip(setup_wall, setups)
                ),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            if tables:
                refs = _reference(args.workload, args.seed, docs, tables, args.refresh_ref,
                                  state / "ref")
                metrics["ref_error"] = max(
                    [REF_ERROR_FLOOR]
                    + [workload.ref_error(docs[op], tables[op], refs[op]) for op in tables]
                )
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for op, message in sorted(failures.items()):
        print(f"FAILED {args.workload}/{op}: {message}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{args.workload:>10}  {name:<26} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
