"""Replay the committed mutation checks: each row's edit must make tier-1 fail.

A row is (name, file, old text, new text, the behaviour it guards).  For each
row, the tree is copied to a temporary directory (without ``.git``, caches and
run outputs), the one occurrence of the old text in the copy's file is replaced
by the new text, and tier-1 runs in the copy with ``-x`` (all but this script's
own test, ``tests/test_mutants.py``).  The working tree is
never edited.  A row's result is its first failing test (the mutant is killed),
``"survived"`` when tier-1 passes, or ``"stale"`` when the old text does not
occur exactly once in the file, in which case nothing runs and the row does not
count as killed.  The results are written to MUTANTS.json, one entry per row,
and the script exits 1 when a row survived or is stale:

    python3 scripts/mutants.py                          # every row
    python3 scripts/mutants.py --row plan-without-shifts --out /tmp/m.json
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECURRENCE = "src/dynwindow/recurrence.py"

ROWS = [
    (
        "plan-without-shifts",
        RECURRENCE,
        "shifts if isinstance(shifts, range) else tuple(shifts))",
        'type("AnyShifts", (tuple,), {"__hash__": lambda k: 0, "__eq__": lambda k, o: True})(shifts))',
        "the cross-check's plan is keyed by its shifts",
    ),
    (
        "rows-without-far-clamp",
        RECURRENCE,
        "offsets = sorted({min(max(n, -horizon - 1), top) for n in shifts})",
        "offsets = shifts",
        "the plan's row offsets clamp a shift below -horizon - 1 or past the table",
    ),
    (
        "agreement-counts-distinct-shifts",
        RECURRENCE,
        "(1 << len(windows)) - 1, len(shifts))",
        "(1 << len(windows)) - 1, len(set(shifts)))",
        "the agreement note counts shifts with their repeats",
    ),
    (
        "recount-skipped-with-one-period-open",
        RECURRENCE,
        "least.count(None) < len(least):",
        "least.count(None) < len(least) - 1:",
        "the coverage recount runs while a period is still open",
    ),
    (
        "period-cap-after-the-schedule-scan",
        "src/dynwindow/constructions.py",
        "    _check_period_cap(max_period)\n    if isinstance(seq, BuiltSequence)",
        "    if isinstance(seq, BuiltSequence)",
        "a cyclic bound past its cap is refused before a custom schedule's scan over 1..M",
    ),
    (
        "coverage-mask-one-bit-short",
        RECURRENCE,
        "every = (1 << k * (k + 1) // 2) - 1",
        "every = (1 << k * (k + 1) // 2) - 1 >> 1",
        "one compare answers the table periods only when all their bits are set",
    ),
    (
        "early-return-with-one-column-open",
        RECURRENCE,
        "if hits == plan.every or x.size == len(a):",
        "if (plan.every & ~hits).bit_count() <= 1 or x.size == len(a):",
        "the prefix's hits return at once only when every column is hit",
    ),
    (
        "translated-offset-sign-flipped",
        RECURRENCE,
        "(np.arange(k) * (fine // k)).astype(np.uint32)",
        "(-np.arange(k) % k * (fine // k)).astype(np.uint32)",
        "a translated start i/k moves its class orbit by +i/k, not -i/k",
    ),
    (
        "translated-wrap-dropped",
        RECURRENCE,
        "np.minimum(x, x - np.uint32(fine), out=x)",
        "np.minimum(x, x, out=x)",
        "a translated fine cell wraps mod F",
    ),
    (
        "translated-shift-one-too-far",
        RECURRENCE,
        "shift, f = (fine // big).bit_length() - 1,",
        "shift, f = (fine // big).bit_length(),",
        "a fine cell's cover cell is its number >> log2(F/K)",
    ),
    (
        "distinct-cells-axes-swapped",
        RECURRENCE,
        "f = [(hit // fine ** (d - 1 - j) % fine)[None] for j in range(d)]",
        "f = [(hit // fine ** j % fine)[None] for j in range(d)]",
        "the distinct fine cells of a 2-d orbit are split back first axis first",
    ),
    (
        "ascent-blind-to-the-last-pair",
        "src/dynwindow/intsets.py",
        "np.count_nonzero(arr[1:] <= arr[:-1])",
        "np.count_nonzero(arr[1:-1] <= arr[:-2])",
        "Window refuses elements that do not ascend, the last pair included",
    ),
]

# Not copied into a mutant's tree: history, caches and run outputs.
_IGNORED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_build"}

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _ignored(directory: str, names: list[str]) -> set[str]:
    return {n for n in names if n in _IGNORED or (n == "out" and Path(directory).name == "perfbench")}


def mutate(text: str, old: str, new: str) -> str | None:
    """text with its one occurrence of old replaced by new, or None unless old occurs exactly once."""
    return text.replace(old, new) if text.count(old) == 1 else None


def first_failure(output: str) -> str | None:
    """The first failing or erroring test that pytest's short summary names, if any."""
    match = _FAILED.search(output)
    return match.group(1) if match else None


def run_tier1(tree: Path) -> tuple[int, str]:
    """Tier-1 in the tree, stopping at the first failure: pytest's exit code and its output.

    tests/test_mutants.py is left out: it checks that each row's old text is
    in the tree, which a mutant's edit removes.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--ignore=tests/test_mutants.py"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def run_row(row: tuple, root: Path = ROOT, runner=run_tier1) -> dict:
    """The result of one row: its edit made in a temporary copy of root, and tier-1 run there by runner."""
    name, file, old, new, guards = row
    entry = {"name": name, "file": file, "guards": guards}
    text = (root / file).read_text(encoding="utf-8")
    mutated = mutate(text, old, new)
    if mutated is None:
        return {**entry, "result": "stale", "occurrences": text.count(old)}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=_ignored)
        (tree / file).write_text(mutated, encoding="utf-8")
        code, output = runner(tree)
    if code == 0:
        return {**entry, "result": "survived"}
    return {**entry, "result": first_failure(output) or f"pytest exit {code}"}


def main(argv: list[str] | None = None, root: Path = ROOT, runner=run_tier1, rows: list = ROWS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", action="append", choices=[row[0] for row in rows], help="run only this row (repeatable)")
    parser.add_argument("--out", type=Path, default=root / "MUTANTS.json")
    args = parser.parse_args(argv)
    results = []
    for row in rows:
        if args.row is None or row[0] in args.row:
            results.append(run_row(row, root, runner))
            print(f"{row[0]}: {results[-1]['result']}", flush=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return int(any(r["result"] in ("survived", "stale") for r in results))


if __name__ == "__main__":
    sys.exit(main())
