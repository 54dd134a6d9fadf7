"""List the benchmark ops that run source lines a diff changed.

    python3 scripts/touched_ops.py PARENT [--seed 1]

Builds the ops of each workload of ``perfbench/workloads.py`` (seed 1 by
default) in an empty temporary directory, against this checkout's ``src``,
and calls each op once, in op order, under a ``sys.settrace`` line tracer
that records only the lines of ``src/dynwindow``.  It intersects those
lines with the new-side lines of ``git diff -U0 PARENT -- src``: a hunk's
added or changed lines, or, for a pure deletion, the line on either side
of the gap.  It prints the changed lines, then, per workload, the ops that
run one of them and which ones they run.

    python3 scripts/touched_ops.py PARENT --bench BENCH.json --entry NAME

also reads the entry NAME of a file that ``scripts/bench_ab.py`` wrote and
prints, per workload of the entry, the median B/A ratio of the per-op times
(``op_s_median``) over the touched ops and over the untouched ops.  The
untouched ops run no changed line, so their ratio is a control taken in the
same runs: it reads near 1.00, a few per cent either way, unless the machine
or the order of the runs favoured a side.

Only line events count: calling a function does not run its ``def`` line,
and lines run at import (module constants, ``def`` statements) are not
traced.  Caches are as the ops in order leave them, as in a benchmark's
first pass, so an op that finds a cached result does not run the lines
that built it.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_FILE = re.compile(r"^\+\+\+ (?:b/(.*)|/dev/null)$")
_HUNK = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@")


def changed_lines(diff: str) -> dict[str, set[int]]:
    """Per file (its new-side path), the new-side lines of a ``git diff -U0``.

    A hunk ``+c,d`` changes lines c..c+d-1 (d is 1 when left out).  A pure
    deletion (d = 0) leaves a gap after line c, so it names lines c and c + 1,
    the lines on either side (line 1 alone when the gap is at the top).  A
    deleted file has no new side and names nothing.
    """
    out: dict[str, set[int]] = {}
    path = None
    for line in diff.splitlines():
        file = _FILE.match(line)
        if file:
            path = file.group(1)
            continue
        hunk = _HUNK.match(line)
        if hunk and path is not None:
            start, count = int(hunk.group(1)), int(hunk.group(2) or 1)
            lines = range(start, start + count) if count else [n for n in (start, start + 1) if n > 0]
            out.setdefault(path, set()).update(lines)
    return out


def _traced(call) -> set[tuple[str, int]]:
    # The (path under ROOT, line) pairs of src/dynwindow that one call runs.
    prefix = str(SRC / "dynwindow") + os.sep
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(None)
    return {(str(Path(file).relative_to(ROOT)), line) for file, line in seen}


def _ranges(lines) -> str:
    # 3, 4, 5, 9 -> "3-5, 9"
    runs = []
    for n in sorted(lines):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def op_time_ratios(entry: dict, touched: dict[str, set[str]]) -> dict[str, dict]:
    """Per workload of a bench_ab.py entry: the median B/A per-op time ratio and the op count,
    over the ops named in ``touched[workload]`` and over the other ops (None for no op)."""
    out = {}
    for workload, result in entry["workloads"].items():
        a, b = result["a"]["op_s_median"], result["b"]["op_s_median"]
        groups = {"touched": [], "untouched": []}
        for op in a:
            groups["touched" if op in touched.get(workload, ()) else "untouched"].append(b[op] / a[op])
        out[workload] = {side: (statistics.median(r) if r else None, len(r)) for side, r in groups.items()}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="List the benchmark ops that run source lines changed since PARENT.")
    parser.add_argument("parent", help="the commit to diff this checkout's src against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bench", type=Path, help="a file of scripts/bench_ab.py entries")
    parser.add_argument("--entry", help="the entry of --bench whose per-op times to compare")
    args = parser.parse_args(argv)
    if (args.bench is None) != (args.entry is None):
        parser.error("--bench and --entry go together")
    diff = subprocess.run(
        ["git", "-C", str(ROOT), "diff", "-U0", "--no-color", "--no-ext-diff", "--src-prefix=a/",
         "--dst-prefix=b/", args.parent, "--", "src"],
        capture_output=True, text=True, check=True,
    ).stdout
    by_file = changed_lines(diff)
    for path, lines in sorted(by_file.items()):
        print(f"changed: {path}: {_ranges(lines)}")
    changed = {(path, n) for path, lines in by_file.items() for n in lines}

    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    import workloads

    cwd = os.getcwd()
    touched_by_workload = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in workloads.WORKLOADS:
                ops = getattr(workloads, "build_" + name.replace("-", "_"))(args.seed, Path(name))
                touched = []
                for op in ops:
                    hit = _traced(lambda: op.call(0)) & changed
                    if hit:
                        touched.append((op.name, hit))
                print(f"{name}: {len(touched)} of {len(ops)} ops run changed lines")
                for op_name, hit in touched:
                    files = sorted({path for path, _ in hit})
                    where = "; ".join(f"{path}:{_ranges(n for p, n in hit if p == path)}" for path in files)
                    print(f"  {op_name}  {where}")
                touched_by_workload[name] = {op_name for op_name, _ in touched}
        finally:
            os.chdir(cwd)
    if args.bench is not None:
        entry = json.loads(args.bench.read_text(encoding="utf-8"))[args.entry]
        for workload, sides in op_time_ratios(entry, touched_by_workload).items():
            print(f"{args.entry} {workload}: median B/A per-op time, "
                  + ", ".join(f"{side} {'-' if r is None else f'{r:.3f}'} ({n} ops)" for side, (r, n) in sides.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
