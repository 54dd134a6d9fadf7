"""Record an A/B comparison of two source checkouts on the benchmark.

Runs ``perfbench/run.py`` (each checkout's own) in checkout A and checkout B
alternately, ``--pairs`` times per workload; the side that runs first
alternates from pair to pair, so a drift in the machine's speed falls on both
sides alike.  For each workload and side it records the median and quartiles
of ``ops_per_s``, ``setup_s`` and ``peak_rss_mb`` over the runs, the pairs
that side won on ``ops_per_s``, the failed and attempted op counts and the
median time of each op (from the run's details file), and the OS counters
``ru_nvcsw`` (voluntary context switches) and ``ru_oublock`` (blocks written)
of each run, from ``getrusage(RUSAGE_CHILDREN)`` around it.  It also judges
each workload, writes the judgement into the entry and prints it: ``gain``
says whether B won at least 9 of every 10 pairs over at least 10 pairs (a
tie counts for neither side, and fewer pairs never read as a gain) and
whether the medians of ``ops_per_s`` differ by more than A's
interquartile range, and whether the median of the pairs' B/A ratios lies
more than the null floor above 1 (``"not judged"`` when there is no null
floor); ``within_bound`` says, per end-to-end metric, whether
B's median is no worse than A's by more than the bound ``BENCHMARK.json``
gives it.  Once per entry it records the CPU count, the Python and numpy
versions and the commit of each checkout.  The result is one named entry of a JSON file; entries already in
the file under other names are kept.  When a run's outputs were rejected
(``correct`` false) or an op failed, the entry is still written, and the
script exits 1 naming each workload and side.

With ``--trace`` every pair also runs ``perfbench/run.py --trace 1`` once in
each checkout, A and B in the pair's order, after its untraced runs; each
side then records, under ``layers``, the median and quartiles of every
per-layer metric over its traced runs, and the three ``self_s`` layers whose
medians moved most are printed.  Traced runs count towards ``correct``,
``failed`` and ``attempted``, never towards the end-to-end metrics or the
judgement.  ``perfbench/out/`` is created in a checkout before each run,
as a traced run writes its spans there before the directory would be made.

The null floor is the largest |A'/A - 1| over the pairs of a null series,
where A' is a second run of checkout A.  With ``--null`` every pair also
runs A', the order of (A, B, A') rotating from pair to pair, and the entry
records the A'/A ratios and their floor under ``null``.  Without it, the
floor is that of a null series of the workload already recorded: in the
output file if it holds one, or else in the highest-numbered
``BENCH_<n>.json`` beside ``BENCHMARK.json`` that does (when the output file
is numbered, the highest numbered below it, or else the lowest above it);
in that file, the
first entry by name that is one (an entry with a ``null``, or an older entry
that ran the same sources as A and B):

    python3 scripts/bench_ab.py --a ../parent --b . --workload cli-files --pairs 10 \\
        --seconds 20 --null --name parent-vs-change --out BENCH.json
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("ops_per_s", "setup_s", "peak_rss_mb")
COUNTERS = ("ru_nvcsw", "ru_oublock")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run in the checkout: the JSON object its last line of output holds,
    with each op's time from the run's details file under ``op_s`` and the run's
    ``COUNTERS`` (the whole process, setup included) under their names."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    (checkout / "perfbench" / "out").mkdir(parents=True, exist_ok=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["op_s"] = {op["name"]: op["op_s"] for op in details["ops"]}
    result.update({name: getattr(after, name) - getattr(before, name) for name in COUNTERS})
    return result


def describe(checkout: Path) -> dict:
    """The checkout's commit, whether its tracked files differ from it, and a digest of its sources."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "src_sha256": digest.hexdigest(),
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def null_ratios(result: dict, entry: dict) -> list[float] | None:
    """The A'/A ratios of a recorded workload result, if it holds a null series."""
    if "null" in result:
        return result["null"]["ratios"]
    if entry["a"].get("src_sha256") == entry["b"].get("src_sha256"):  # A against itself
        return [y / x for x, y in zip(result["a"]["ops_per_s"]["runs"], result["b"]["ops_per_s"]["runs"])]
    return None


def _number(path: Path) -> int | None:
    # n of BENCH_<n>.json, or None for a name without digits.
    digits = re.sub(r"\D", "", path.name)
    return int(digits) if digits else None


def committed_null(workload: str, first: Path | None = None) -> tuple[str, float] | None:
    """A recorded null series of the workload, named by file and entry, and its floor.

    The file ``first`` is searched first (the file a series is recorded in), then
    the committed files from the highest number down.  When ``first`` is
    numbered, only the files numbered below it are read that way, and the
    files above it after them, from the lowest up: a series is judged against
    the nearest null recorded up to it, or else the first recorded after it,
    and a file added later never moves that floor.  In a file, entries by name.
    """
    files = sorted(BENCHMARK.parent.glob("BENCH_*.json"), key=lambda p: _number(p) or 0)[::-1]
    top = None if first is None else _number(first)
    if top is not None:
        files = [p for p in files if (_number(p) or 0) <= top] + [p for p in files[::-1] if (_number(p) or 0) > top]
    for path in ([first] if first is not None and first.exists() else []) + files:
        for name, entry in sorted(json.loads(path.read_text(encoding="utf-8")).items()):
            result = entry.get("workloads", {}).get(workload)
            ratios = result and null_ratios(result, entry)
            if ratios:
                return f"{path.name} {name}", max(abs(r - 1) for r in ratios)
    return None


def compare(a: Path, b: Path, workload: str, pairs: int, seed: int, seconds: int, null: bool = False,
            out_file: Path | None = None, trace: bool = False) -> dict:
    sides = ("a", "b", "a2") if null else ("a", "b")
    runs = {side: [] for side in sides}
    traced = {"a": [], "b": []}
    for i in range(pairs):
        order = sides[i % len(sides) :] + sides[: i % len(sides)]
        for side in order:
            runs[side].append(run_once(b if side == "b" else a, workload, seed, seconds))
        if trace:
            for side in (side for side in order if side != "a2"):
                traced[side].append(run_once(b if side == "b" else a, workload, seed, seconds, trace=1))
        speeds = {side: runs[side][-1]["metrics"]["ops_per_s"]["value"] for side in runs}
        print(f"{workload} pair {i + 1}/{pairs} ({order[0]} first): "
              + ", ".join(f"{side} {speed:.1f} op/s" for side, speed in speeds.items()), file=sys.stderr)
    out = {}
    for side, other in (("a", "b"), ("b", "a")):
        speed = [r["metrics"]["ops_per_s"]["value"] for r in runs[side]]
        rival = [r["metrics"]["ops_per_s"]["value"] for r in runs[other]]
        checked = runs[side] + traced[side]
        out[side] = {
            **{m: summary([r["metrics"][m]["value"] for r in runs[side]]) for m in METRICS},
            **{c: summary([r[c] for r in runs[side]]) for c in COUNTERS},
            "pairs_won": sum(x > y for x, y in zip(speed, rival)),
            "failed": sum(r["failed"] for r in checked),
            "attempted": sum(r["attempted"] for r in checked),
            "correct": all(r["correct"] for r in checked),
            "op_s_median": {op: statistics.median(r["op_s"][op] for r in runs[side]) for op in runs[side][0]["op_s"]},
        }
        if trace:
            out[side]["layers"] = {m: summary([r["metrics"][m]["value"] for r in traced[side]])
                                   for m in traced[side][0]["metrics"]}
    out["b_vs_a_ops_per_s"] = out["b"]["ops_per_s"]["median"] / out["a"]["ops_per_s"]["median"] - 1
    if null:
        ratios = [y["metrics"]["ops_per_s"]["value"] / x["metrics"]["ops_per_s"]["value"]
                  for x, y in zip(runs["a"], runs["a2"])]
        out["null"] = {"ratios": ratios, "floor": max(abs(r - 1) for r in ratios),
                       "ops_per_s": summary([r["metrics"]["ops_per_s"]["value"] for r in runs["a2"]])}
        source, floor = "this entry", out["null"]["floor"]
    else:
        source, floor = committed_null(workload, out_file) or (None, None)
    out["null_floor"] = {"from": source, "floor": floor}
    out.update(judge(out["a"], out["b"], pairs, floor))
    speed_a, speed_b = out["a"]["ops_per_s"], out["b"]["ops_per_s"]
    floor_text = "none" if floor is None else f"{floor:.4f} from {source}"
    print(f"{workload}: b won {out['b']['pairs_won']}/{pairs} pairs (9/10 met: {out['gain']['b_won_9_of_10']}); "
          f"median gap {abs(speed_b['median'] - speed_a['median']):.1f} op/s against a's IQR "
          f"{speed_a['q3'] - speed_a['q1']:.1f} (exceeds: {out['gain']['gap_exceeds_a_iqr']}); median b/a ratio "
          f"{out['median_pair_ratio']:.4f} against null floor {floor_text} "
          f"(past: {out['gain']['past_null_floor']}); within bound: "
          + ", ".join(f"{name} {ok}" for name, ok in out["within_bound"].items()) + "; median per run: "
          + ", ".join(f"{c} a {out['a'][c]['median']:g} b {out['b'][c]['median']:g}" for c in COUNTERS),
          file=sys.stderr)
    if trace:
        layers_a, layers_b = out["a"]["layers"], out["b"]["layers"]
        change = {m: layers_b[m]["median"] - layers_a[m]["median"] for m in layers_a
                  if m.endswith(".self_s") and m in layers_b}
        moved = sorted((m for m in change if change[m]), key=lambda m: -abs(change[m]))[:3]
        print(f"{workload}: per-layer medians over {pairs} traced runs a -> b: "
              + ", ".join(f"{m} {layers_a[m]['median']:.6g} -> {layers_b[m]['median']:.6g} s" for m in moved),
              file=sys.stderr)
    return out


def judge(a: dict, b: dict, pairs: int, floor: float | None) -> dict:
    """Whether B shows a gain on ``ops_per_s`` over A, and whether each end-to-end metric of B is within its bound.

    ``floor`` is the null floor, the largest |A'/A - 1| of a null series; None reads as "not judged".
    """
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    within = {}
    for name in METRICS:
        spec, median_a, median_b = bounds[name], a[name]["median"], b[name]["median"]
        if spec["better"] == "higher":
            within[name] = median_b >= median_a * (1 - spec["bound"])
        else:
            within[name] = median_b <= median_a * (1 + spec["bound"])
    speed_a, speed_b = a["ops_per_s"], b["ops_per_s"]
    ratio = statistics.median(y / x for x, y in zip(speed_a["runs"], speed_b["runs"]))
    return {
        "gain": {
            "b_won_9_of_10": pairs >= 10 and 10 * b["pairs_won"] >= 9 * pairs,
            "gap_exceeds_a_iqr": abs(speed_b["median"] - speed_a["median"]) > speed_a["q3"] - speed_a["q1"],
            "past_null_floor": "not judged" if floor is None else ratio - 1 > floor,
        },
        "median_pair_ratio": ratio,
        "within_bound": within,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout A (the baseline)")
    parser.add_argument("--b", type=Path, required=True, help="checkout B (the change)")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("cli-files", "crosscheck-sweep", "metric-density"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--null", action="store_true", help="also run A again in every pair, for the null floor")
    parser.add_argument("--trace", action="store_true",
                        help="also run each checkout traced in every pair, for the per-layer metrics")
    parser.add_argument("--name", required=True, help="the entry's name in the output file")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    import numpy

    entry = {
        "a": describe(args.a.resolve()),
        "b": describe(args.b.resolve()),
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workloads": {
            w: compare(args.a.resolve(), args.b.resolve(), w, args.pairs, args.seed, args.seconds, args.null, args.out,
                       args.trace)
            for w in args.workload
        },
    }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc[args.name] = entry
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    broken = [f"{w} side {side}" for w, result in entry["workloads"].items() for side in ("a", "b")
              if not result[side]["correct"] or result[side]["failed"]]
    if broken:  # the entry is written, but a speed whose outputs were rejected is no result
        print(f"error: outputs rejected or ops failed on {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
