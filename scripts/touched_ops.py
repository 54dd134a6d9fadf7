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

Only line events count: calling a function does not run its ``def`` line,
and lines run at import (module constants, ``def`` statements) are not
traced.  Caches are as the ops in order leave them, as in a benchmark's
first pass, so an op that finds a cached result does not run the lines
that built it.
"""
from __future__ import annotations

import argparse
import os
import re
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="List the benchmark ops that run source lines changed since PARENT.")
    parser.add_argument("parent", help="the commit to diff this checkout's src against")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
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
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
