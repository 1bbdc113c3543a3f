"""The measured process: runs one workload's CLI operations in a loop.

    worker.py setup CFG_DIR
        time `import ptlattice.cli` and loading every config in CFG_DIR;
        print one JSON object {"import_s", "load_s", "calibration_s"}.
    worker.py run CFG_DIR OUT_DIR RESULT_JSON --seconds S --trace 0|1
              [--jobs N] [--spans FILE]
        run every config through ptlattice.cli.main, in order, repeatedly for
        about S seconds, and write the timings, the calibration loop's median
        time, exit codes, output hashes and (with --trace 1) per-layer metrics
        to RESULT_JSON.

Both modes are started in a fresh interpreter by run.py, with the
package's source tree on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import time
from pathlib import Path

MIN_ITERATIONS = 3      # untraced: median of at least three workload runs
MIN_ROTATIONS = 2       # traced: each variant at least twice


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    return time.perf_counter() - start


def _setup(cfg_dir: Path) -> None:
    calibrations = [calibration_s() for _ in range(5)]
    t0 = time.perf_counter()
    import ptlattice.cli  # noqa: F401  (numpy and scipy come with it)

    t1 = time.perf_counter()
    from ptlattice.config import load_config

    for path in sorted(cfg_dir.glob("*.json")):
        load_config(path)
    t2 = time.perf_counter()
    calibrations += [calibration_s() for _ in range(5)]
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "calibration_s": statistics.median(calibrations)}))


def _data_hash(csv_path: Path) -> str:
    """Hash of the data rows; the '#' metadata line may carry run-specific fields."""
    with open(csv_path, "rb") as fh:
        fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    def __init__(self, cfg_dir: Path, out_dir: Path):
        self.ops = []
        for path in sorted(cfg_dir.glob("*.json")):
            kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
            self.ops.append((path.stem, [kind, "--config", str(path), "--svg",
                                         "--out", str(out_dir / path.stem)]))
        self.out_dir = out_dir
        self.calibrations: list[float] = []
        self.executions = 0
        self.failures: dict[str, str] = {}
        self.hashes: dict[str, str] = {}

    def run_once(self, jobs: int | None) -> dict[str, float]:
        """Run every operation once, in order; return each operation's wall time."""
        import ptlattice.cli as cli

        extra = [] if jobs is None else ["--jobs", str(jobs)]
        codes, walls = {}, {}
        for name, argv in self.ops:
            self.calibrations.append(calibration_s())
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    # looked up on the module each time, so a traced run sees its wrapper
                    codes[name] = (cli.main(argv + extra), sink.getvalue())
            except Exception as exc:  # a crashing operation is a failed one, not a dead run
                codes[name] = (None, f"{type(exc).__name__}: {exc}")
            walls[name] = time.perf_counter() - start
        for name, (code, output) in codes.items():
            self.executions += 1
            if code != 0:
                self.failures.setdefault(name, f"exit code {code}: {output.strip()[-300:]}")
                continue
            digest = _data_hash(self.out_dir / f"{name}.csv")
            if self.hashes.setdefault(name, digest) != digest:
                self.failures.setdefault(name, "data rows differ between identical runs")
        return walls


def run_time(iterations: list[dict[str, float]]) -> float:
    """Wall time of one workload run: the sum of each operation's median wall time.

    Per-operation medians discard single operations that a short burst of
    load from other processes slowed down.
    """
    return sum(statistics.median(it[name] for it in iterations) for name in iterations[0])


def _run(args) -> None:
    import tracing

    import ptlattice.cli  # noqa: F401  (imported before the clock starts)

    work = Workload(Path(args.cfg_dir), Path(args.out_dir))
    result: dict = {}
    start = time.perf_counter()
    if not args.trace:
        walls = []
        while True:
            walls.append(work.run_once(args.jobs))
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_ITERATIONS and elapsed + sum(walls[-1].values()) > args.seconds:
                break
        result["run_s"] = run_time(walls)
    else:
        # spans from pool workers do not come back: trace with one job, and
        # time the untraced run both ways for the overhead and the pool's efficiency
        variants = [("plain", 1 if args.jobs else None), ("traced", 1 if args.jobs else None)]
        if args.jobs:
            variants.append(("parallel", args.jobs))
        walls = {name: [] for name, _ in variants}
        layers = []
        recorder = None
        while True:
            for name, jobs in variants:
                if name == "traced":
                    recorder = tracing.Recorder()
                    with tracing.traced(recorder):
                        walls[name].append(work.run_once(jobs))
                    layers.append(tracing.layer_metrics(recorder))
                else:
                    walls[name].append(work.run_once(jobs))
            elapsed = time.perf_counter() - start
            rotation = sum(sum(w[-1].values()) for w in walls.values())
            if len(layers) >= MIN_ROTATIONS and elapsed + rotation > args.seconds:
                break
        result["run_s"] = {name: run_time(w) for name, w in walls.items()}
        result["layers"] = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        if args.spans:
            recorder.write(args.spans)
    result["calibration_s"] = statistics.median(work.calibrations)
    result["executions"] = work.executions
    result["failures"] = work.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("cfg_dir")
    p = sub.add_parser("run")
    p.add_argument("cfg_dir")
    p.add_argument("out_dir")
    p.add_argument("result")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(Path(args.cfg_dir))
    else:
        _run(args)


if __name__ == "__main__":
    main()
