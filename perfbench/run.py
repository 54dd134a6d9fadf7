"""Benchmark for dynwindow: three seeded workloads, every output checked.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 20 --trace 0

A run is one fresh, single-threaded process.  It builds a fixed op list from
the seed, then makes several passes over it; pass r runs every op once, so
the repetitions of one op are spread over the whole run and fall in
different phases of the machine's load.  ``--seconds`` sets the number of
passes (never a time budget), so every run with the same arguments does the
same work.  Every output is checked after its timed call.

On a shared host the speed of the whole machine drifts by tens of percent
from second to second and from minute to minute.  A fixed pure-Python
reference kernel is therefore timed between ops, and every repetition is
rescaled by the reference times just before and after it to the kernel's
nominal speed (``Timings``).  An op's time is the median of its rescaled
repetitions; the raw best-of times are kept in the details file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Per-op details go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded: numpy's linear-algebra pools are not used, but pin them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# Nominal seconds of one untraced pass on a 2-vCPU x86-64 host; fixes the
# number of passes for a given --seconds.  Never read from a clock.
PASS_SECONDS = {"cli-files": 2.5, "crosscheck-sweep": 2.0, "metric-density": 1.3}
MIN_PASSES = 3
TRACE_PASSES = 2  # traced passes in a --trace 1 run, each after an untraced one
SETUP_SAMPLES = 15

# The reference kernel's best time on a quiet 2-vCPU x86-64 host, and how
# often it is sampled between ops.
REF_NOMINAL_S = 0.00067
REF_INTERVAL_S = 0.05

IMPORT_SNIPPET = "import sys; sys.path.insert(0, 'src'); import dynwindow, dynwindow.cli"


def import_program(root: Path) -> None:
    """Import dynwindow from ``root/src``; exit with code 2 when it is not there."""
    src = root / "src"
    if not (src / "dynwindow" / "__init__.py").is_file():
        print(f"error: no dynwindow sources under {src}; run from a source checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import dynwindow
    import dynwindow.cli  # noqa: F401

    if Path(dynwindow.__file__).resolve().parent != (src / "dynwindow").resolve():
        print(f"error: imported dynwindow from {dynwindow.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _reference_kernel() -> int:
    seen = set()
    x = 1
    for i in range(4000):
        x = (x * 2654435761 + i) % 1000003
        seen.add(x % 4099)
    return len(seen)


def reference_sample() -> float:
    """Best of two runs of the fixed pure-Python reference kernel, in seconds."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Timings:
    """Per-op samples, each rescaled to the reference kernel's nominal speed.

    A sample's scale is REF_NOMINAL_S over the mean of the reference samples
    taken just before and just after it (at most REF_INTERVAL_S apart, plus
    the op itself), so a phase in which the whole machine runs slower cancels.
    """

    def __init__(self, count: int):
        self.samples: list[list[float]] = [[] for _ in range(count)]
        self.raw_best = [float("inf")] * count
        self._pending: list[tuple[int, float]] = []
        self._ref = reference_sample()
        self._ref_at = time.perf_counter()

    def add(self, i: int, seconds: float) -> None:
        self._pending.append((i, seconds))
        self.raw_best[i] = min(self.raw_best[i], seconds)
        if time.perf_counter() - self._ref_at >= REF_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        ref = reference_sample()
        scale = REF_NOMINAL_S / ((self._ref + ref) / 2)
        for i, seconds in self._pending:
            self.samples[i].append(seconds * scale)
        self._pending.clear()
        self._ref, self._ref_at = ref, time.perf_counter()

    def per_op(self) -> list[float]:
        return [statistics.median(s) for s in self.samples]


class Outcomes:
    """Checked results of every op execution.

    An op's first output is checked in full.  With a fingerprint, later
    outputs must reproduce the first one's and share its verdict; without
    one, each output is checked in full.
    """

    def __init__(self) -> None:
        self.errors: dict[int, str] = {}  # op index -> first failure
        self.failed = 0
        self._first: dict[int, tuple] = {}

    def record(self, i: int, op, rep: int, raw, err) -> None:
        if err is None:
            try:
                err = self._check(i, op, rep, raw)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failed += 1
            self.errors.setdefault(i, err)

    def _check(self, i: int, op, rep: int, raw):
        if op.fingerprint is None:
            return op.check(raw)
        fingerprint = op.fingerprint(raw)
        if i not in self._first:
            self._first[i] = (fingerprint, op.check(raw))
        first, err = self._first[i]
        return err if fingerprint == first else f"repetition {rep} output differs from the first"


def run_pass(ops, rep: int, timings: Timings, outcomes: Outcomes, tracer=None) -> None:
    """Run every op once; time the call, then check its output."""
    gc.collect()
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            raw = op.call(rep)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            raw, err = None, f"raised {type(exc).__name__}: {exc}"
        else:
            err = None
        timings.add(i, clock() - t0)
        outcomes.record(i, op, rep, raw, err)
    timings.flush()


def setup_sample(root: Path) -> tuple[float, float]:
    """(rescaled, raw) seconds from a fresh interpreter until the import returns."""
    before = reference_sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT_SNIPPET], cwd=root, check=True)
    raw = time.perf_counter() - t0
    return raw * REF_NOMINAL_S / ((before + reference_sample()) / 2), raw


def per_layer_metrics(passes: list[dict], tracer, ops) -> dict:
    """Per-layer metrics from the traced passes' snapshots (deltas per pass)."""
    out = {}
    n = len(passes)

    def total(layer, key):
        return sum(p[layer][key] for p in passes)

    def calls(layer):
        return total(layer, "calls") / n

    def self_s(layer):
        return min(p[layer]["self_s"] for p in passes)

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in tracer.layer_names:
        put(f"{layer}.self_s", self_s(layer), "s")
    for layer in (
        "intsets.Window_init",
        "intsets.shifted_hit",
        "intsets.difference_set",
        "recurrence.return_times",
        "systems.orbit_at",
        "systems.cell_of",
        "permpoly.is_prime",
    ):
        put(f"{layer}.calls", calls(layer), "count")
    hits = total("intsets.shifted_hit", "calls")
    put("intsets.shifted_hit.hit_ratio", total("intsets.shifted_hit", "holds") / hits if hits else 0.0, "ratio")
    metric_calls = total("recurrence.r_sequence_metric", "calls")
    starts = tracer.child_calls[("recurrence.r_sequence_metric", "systems.eps_dense")]
    put("recurrence.r_sequence_metric.starts_per_call", starts / metric_calls if metric_calls else 0.0, "count")
    permpoly_checks = sum(1 for op in ops if op.kind == "permpoly-check") * n
    put(
        "permpoly.hermite_check.calls_per_check",
        total("permpoly.hermite_check", "calls") / permpoly_checks if permpoly_checks else 0.0,
        "count",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-files", "crosscheck-sweep", "metric-density"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    import_program(root)
    import workloads
    from tracing import Tracer

    outdir = HERE / "out"
    workdir = outdir / f"inputs-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    outcomes = Outcomes()
    setup: list[tuple[float, float]] = []
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
        timings = Timings(len(ops))
        setup_sample(root)  # unrecorded: writes the bytecode caches
        if args.trace:
            tracer = Tracer()
            traced = Timings(len(ops))
            snapshots = []
            for rep in range(2 * TRACE_PASSES):
                if rep % 2 == 0:
                    run_pass(ops, rep, timings, outcomes)
                    continue
                before = tracer.snapshot()
                tracer.install()
                try:
                    run_pass(ops, rep, traced, outcomes, tracer)
                finally:
                    tracer.uninstall()
                after = tracer.snapshot()
                snapshots.append({k: {f: after[k][f] - before[k][f] for f in after[k]} for k in after})
            metrics = per_layer_metrics(snapshots, tracer, ops)
            metrics["trace.overhead_ratio"] = {
                "value": sum(traced.per_op()) / sum(timings.per_op()), "unit": "ratio",
            }
            reps = 2 * TRACE_PASSES
            spans = tracer.write_spans(outdir / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            reps = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
            for rep in range(reps):
                # Setup samples are spread over the run like the op repetitions.
                while len(setup) < SETUP_SAMPLES * (rep + 1) // reps:
                    setup.append(setup_sample(root))
                run_pass(ops, rep, timings, outcomes)
            metrics = {
                "ops_per_s": {"value": len(ops) / sum(timings.per_op()), "unit": "op/s"},
                "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MiB",
                },
            }
            spans = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_op = timings.per_op()
    errors = outcomes.errors
    unexpected = {i: e for i, e in errors.items() if not ops[i].known_fault}
    kinds: dict[str, float] = {}
    for op, t in zip(ops, per_op):
        kinds[op.kind] = kinds.get(op.kind, 0.0) + t
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": reps,
        "setup_samples_s": [s for s, _ in setup],
        "setup_samples_raw_s": [r for _, r in setup],
        # For reference only: the best-of-k raw times, unscaled.
        "raw_best_ops_per_s": len(ops) / sum(timings.raw_best),
        "median_raw_best_s": statistics.median(timings.raw_best),
        "time_share_by_kind": {k: v / sum(per_op) for k, v in sorted(kinds.items())},
        "ops": [
            {"name": op.name, "kind": op.kind, "op_s": t, "raw_best_s": rb, "error": errors.get(i), **op.params}
            for i, (op, t, rb) in enumerate(zip(ops, per_op, timings.raw_best))
        ],
        "spans": spans,
        "metrics": metrics,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    detail_path = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")

    for i, err in sorted(errors.items()):
        tag = "known fault" if ops[i].known_fault else "FAILED"
        print(f"{tag}: {ops[i].name}: {err}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops) * reps,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
