"""Fingerprint a fixed list of CLI and library calls, to pin and to diff their output.

Runs the calls against the ``dynwindow`` found on ``PYTHONPATH``, from an
empty temporary directory, and prints one line per call, of one of three
kinds:

- a CLI call, an in-process ``dynwindow.cli.main`` call of ``CALLS`` or of the
  cli-files benchmark, seed 1 (generated by ``perfbench/workloads.py``): its
  exit code, the sha256 of its stdout and stderr, and the sha256 of each file
  it writes (the values of ``--out`` and ``--report``);
- a metric-density op, one library call of the metric-density benchmark,
  seed 1: the sha256 of the ``repr`` of its result, named ``library <op name>``;
- a group of library calls, one line per entry of the mapping in
  ``fingerprints()``: the sha256 of the ``repr`` lines of its results in
  order, named ``library <group>``.

A call that raises is recorded as ``raised <exception type>`` in place of its
exit code or digest, and the list goes on.

``tests/golden/cli.txt`` holds these lines, and ``tests/test_cli_golden.py``
regenerates them and names every call whose line moved.  A change that moves
a line on purpose rewrites the file and explains the line:

    PYTHONPATH=src python3 scripts/report_diff.py --write

To diff two source trees, run both with this script and this checkout's
``perfbench``; only the ``dynwindow`` sources differ:

    PYTHONPATH=/path/to/parent/src python3 scripts/report_diff.py > parent.txt
    PYTHONPATH=src python3 scripts/report_diff.py > change.txt
    diff parent.txt change.txt

The path ``dynwindow`` was imported from goes to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

import dynwindow
import numpy as np
from dynwindow import CoverageError, Window, birkhoff_window_test, crosscheck_cyclic_equivalence, difference_set
from dynwindow import finite_subcover, r_sequence_metric, return_times
from dynwindow.cli import main as cli_main, parse_system_spec
from dynwindow.recurrence import _shift_family_cyclic

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"

# name -> file text, written byte for byte (no newline translation) as UTF-8,
# or bytes, written as they are.
FILES = {
    "squares.txt": "!horizon 10000\n# squares\n" + "".join(f"{n * n}\n" for n in range(101)),
    "evens.txt": "!horizon 1000\n" + "".join(f"{n}\n" for n in range(0, 1001, 2)),
    "interval.txt": "!horizon 100\n" + "".join(f"{n}\n" for n in range(101)),
    "huge.txt": f"!horizon {2 ** 63 + 10_000}\n" + "".join(f"{2 ** 63 + k * k}\n" for k in range(101)),
    "low.txt": "!horizon 50\n0\n1\n2\n3\n",
    "blocks.txt": "!horizon 3000\n"
    + "".join(f"{n}\n" for b in range(0, 3000, 300) for n in range(b, b + 40 + b // 30)),
    "zero.txt": "!horizon 0\n0\n",
    "zeros.txt": "!horizon 100\n# header\n007\n# body comment\n010\n\n042\n",
    # Small elements under a horizon past 2^62.
    "wide.txt": f"!horizon {2 ** 63}\n" + "".join(f"{n * n}\n" for n in range(101)),
    # 800 evens, then one odd element: residue coverage to m <= 50 reads a
    # prefix of 16·50 = 800 elements, which misses what 1601 covers.
    "evens-then-odd.txt": "!horizon 2000\n" + "".join(f"{n}\n" for n in range(0, 1600, 2)) + "1601\n",
    # 800 evens below 2^31, then 389 elements past it; none is 5 mod 37.  Residue
    # coverage to m <= 50 reduces the 800-element prefix in int32, and recounts
    # the periods it leaves open (every even one) on the whole array in int64.
    "straddle.txt": f"!horizon {2 ** 31 + 1000}\n"
    + "".join(f"{n}\n" for n in [n for n in range(2 ** 31 - 1700, 2 ** 31, 2) if n % 37 != 5][-800:])
    + "".join(f"{n}\n" for n in range(2 ** 31, 2 ** 31 + 400) if n % 37 != 5),
    # 17,101 elements, none 0 mod 7: the cross-check's prefix leaves the m = 7 pairs open for the bitmask settle.
    "no-sevens.txt": "!horizon 20000\n" + "".join(f"{n}\n" for n in range(50, 20001) if n % 7),
    # Lines of 1 to 18 digits (one, two and three eight-digit words), 10^k
    # written with leading zeros to 18 digits for odd k.
    "words.txt": f"!horizon {10 ** 18}\n"
    + "".join(f"{10 ** k - 1}\n{10 ** k:0{18 if k % 2 else 1}d}\n{10 ** k + 7}\n" for k in range(1, 18))
    + f"{10 ** 18 - 1}\n",
}

# Files off the common layout: each is parsed line by line, or rejected with its line.
MALFORMED = {
    "empty-body.txt": "!horizon 7\n",
    "crlf.txt": "!horizon 100\r\n# crlf\r\n3\r\n9\r\n27\r\n81\r\n",
    "cr.txt": "!horizon 100\r3\r9\r27\r",
    "zeros-comment.txt": "!horizon 100\n# header\n007\n# body comment\n010\n\n042\n",
    "padded.txt": "!horizon 100\n 5\n7 \n\t9\n",
    "no-final-newline.txt": "!horizon 100\n5\n7",
    "nineteen-digits.txt": f"!horizon {10 ** 19}\n1\n{10 ** 18}\n",
    "over-2-62.txt": f"!horizon {2 ** 63}\n5\n{2 ** 62 + 1}\n",
    "missing-directive.txt": "# no directive\n1\n2\n",
    "descent.txt": "!horizon 10\n1\n5\n3\n",
    "over-horizon.txt": "!horizon 4\n1\n7\n",
    "superscript.txt": "!horizon 10\n0\n²\n",
    "fullwidth.txt": "!horizon 10\n0\n１\n",
    "space-inside.txt": "!horizon 10\n1 2\n",
    "plus.txt": "!horizon 10\n+5\n",
    "duplicate-directive.txt": "!horizon 10\n1\n!horizon 20\n2\n",
    "bad-directive.txt": "!horizon ten\n1\n",
    "empty.txt": "",
}

# Files at the read boundary, given as bytes: invalid UTF-8 in the body and in
# a comment, a BOM, a non-ASCII comment before a well-formed body, and a form
# feed, a line break to the line loop, inside a comment.
ENCODED = {
    "invalid-utf8-body.txt": b"!horizon 10\n1\n\xff\n",
    "invalid-utf8-comment.txt": b"# \xff\n!horizon 10\n1\n",
    "bom.txt": b"\xef\xbb\xbf!horizon 10\n1\n",
    "cafe-comment.txt": "# café\n!horizon 10\n1\n5\n".encode("utf-8"),
    "form-feed-comment.txt": b"!horizon 10\n# page\x0c7\n9\n",
}

CALLS = [
    "classify squares.txt",
    "classify evens.txt --gap 2",
    "classify evens.txt --gap 2 --run 3",
    "classify interval.txt --run 50 --block 20 --density-length 7",
    "classify blocks.txt --gap 5 --run 60 --block 150 --density-length 100",
    "classify blocks.txt --horizon 1000",
    "classify blocks.txt --horizon 5000",
    "classify blocks.txt --horizon -1",
    f"classify evens.txt --horizon {2 ** 63}",
    "classify huge.txt --gap 100000 --block 1000000",
    "classify low.txt --gap 60 --run 5 --block 51",
    "classify zero.txt",
    "classify wide.txt",
    "classify interval.txt --density-length 0",
    "recurrence squares.txt cyclic:<=3",
    "recurrence squares.txt cyclic:<=3 --shifts=-2..2",
    "recurrence squares.txt cyclic:<=50 --shifts=-10..10",
    "recurrence interval.txt cyclic:<=50",
    "recurrence evens-then-odd.txt cyclic:<=50",
    "recurrence huge.txt cyclic:<=7 --shifts=-3..3",
    "recurrence wide.txt cyclic:<=12 --shifts=-2..2",
    "recurrence blocks.txt cyclic:<=20 --horizon 2000 --shifts=-1..1",
    "recurrence squares.txt rot:golden",
    "recurrence squares.txt rot:golden --shifts=-2..2",
    "recurrence evens.txt rot:0.25,0.5",
    "recurrence evens.txt rot:0.25,0.5 --shifts=-2..2",
    "recurrence squares.txt rot:golden,0.41421356 --eps 0.02",
    "recurrence evens.txt skew:golden",
    "recurrence evens.txt skew:golden --shifts=-2..2",
    "recurrence evens.txt skew:0.3",
    "recurrence squares.txt rot:1/3",
    "recurrence squares.txt rot:1/3 --shifts=-2..2",
    "recurrence squares.txt rot:2/7,1/3",
    # A spec that mixes p/q with a decimal holds doubles.
    "recurrence squares.txt rot:1/3,0.5",
    "recurrence evens.txt skew:1/3",
    "recurrence interval.txt rot:golden --eps 0.1 --start-grid 0.5",
    "recurrence squares.txt skew:golden --eps 0.02 --start-grid 0.25",
    "recurrence interval.txt skew:golden --eps 0.05 --start-grid 0.25",
    "recurrence squares.txt odo:2^3",
    "recurrence squares.txt rot:golden --eps 0",
    "recurrence squares.txt rot:golden --eps nan",
    "recurrence squares.txt rot:nan",
    "recurrence squares.txt rot:inf",
    "recurrence squares.txt skew:1e400",
    "crosscheck squares.txt --max-period 3 --shifts=-2..2",
    "crosscheck evens.txt --max-period 5",
    "crosscheck low.txt --max-period 3 --shifts=-2..2",
    "crosscheck blocks.txt --horizon 4000",
    "crosscheck squares.txt --max-period 0",
    "crosscheck squares.txt --horizon 1000001 --max-period 2",
    "crosscheck --count 5 --horizon 500 --seed 7",
    "crosscheck --count 0 --horizon 500",
    "crosscheck --count 1 --horizon 0",
    "crosscheck --count 1 --horizon 30",
    "crosscheck --count 1 --horizon 50 --max-period 3",
    # Cold M = 12 cross-checks: every m <= 12 builds its translation-class windows.
    "crosscheck evens.txt --max-period 12 --horizon 5003",
    "crosscheck --count 3 --horizon 2000 --max-period 12 --seed 11",
    "crosscheck squares.txt --max-period 30",
    # More than 64 comparison windows; a window that misses 0 mod 7; shifts all below -horizon.
    "crosscheck squares.txt --max-period 25 --shifts=-40..40",
    "crosscheck no-sevens.txt --max-period 12",
    "crosscheck evens.txt --max-period 5 --shifts=-2000..-1990",
    "permpoly check x^2+3x+1 --p 7",
    "permpoly check x^3 --p 11",
    "permpoly find-prime x^2 --cap 100",
    "permpoly find-prime x^3+x --cap 1000",
    "permpoly check x^13+x --p 11",
    "permpoly check x+1 --p 2",
    "permpoly check 0 --p 5",
    "permpoly find-prime 2003x^4-3x+7 --cap 10000",
    "permpoly find-prime 1001x^5+x^2-4 --cap 10000",
    "permpoly find-prime 307x^6-x^2+5 --cap 10000",
    # The permpoly calls of the cli-files benchmark (seed 1), printed.
    "permpoly check 1x^5+170x^4+11560x^3+393040x^2+6681680x+45435426 --p 199",
    "permpoly check 1x^3+633x^2+133563x+9394083 --p 401",
    "permpoly check 147x^4+64x^3+68x^2+134x+13 --p 151",
    "permpoly check 289x^6+258x^5+269x^4+182x^3+55x^2+238x+297 --p 307",
    "permpoly find-prime 29001x^2+45x+31 --cap 40000",
    "permpoly find-prime 29766x^3-4x^2-28x-31 --cap 40000",
    "construct example --blocks 8",
    "construct example --blocks 8 --out construct8.txt",
    "recurrence construct8.txt cyclic:<=20 --shifts=-3..3",
    "classify construct8.txt",
    "product cyclic:2 cyclic:3",
    "product cyclic:2 cyclic:2",
    "classify",
    # Off the common layout, so parsed line by line: CRLF line ends, and
    # leading zeros with comment and blank lines in the body.
    "classify crlf.txt --gap 30",
    "recurrence crlf.txt cyclic:<=3",
    "classify zeros.txt",
    "recurrence zeros.txt cyclic:<=3 --shifts=-1..1",
    # Multi-word lines, read eight digits at a time.
    "classify words.txt",
    "recurrence words.txt cyclic:<=12",
    # A prefix below 2^31 and a tail past it.
    "recurrence straddle.txt cyclic:<=50",
    "recurrence straddle.txt cyclic:<=20 --shifts=-3..3",
] + [f"classify {name}" for name in MALFORMED] + [f"recurrence {name} cyclic:<=5" for name in MALFORMED] + [
    f"classify {name}" for name in ENCODED
]


# return_times rows (spec, start, cell, cover eps), read at horizon 20,000:
# the return-time sets N(x, U) of a rotation, the skew product and a cycle,
# and of a product of a rotation and a cycle.
RETURN_TIMES = [
    ("rot:golden", 0.0, 0, 0.1),
    ("skew:golden", (0.0, 0.0), (0, 0), 0.1),
    ("cyclic:6", 0, 0, 1.0),
    ("prod(rot:golden,cyclic:3)", (0.0, 0), (0, 0), 0.1),
]

# Rows of the same shape for orbits that repeat, and the specs that
# birkhoff_window_test reads at eps 0.05 on a start grid of 0.25.
PERIODIC_RETURN_TIMES = [
    ("rot:2/7", 0.0, 0, 0.1),
    ("rot:1/3,2/5", (0.0, 0.0), (0, 0), 0.1),
    ("prod(rot:1/3,cyclic:7)", (0.0, 0), (0, 0), 0.1),
    ("prod(odo:2^3,rot:2/7)", ((0, 0, 0), 0.25), (0, 2), 0.1),
    ("cyclic:1000003", 0, 777, 0.1),
]
PERIODIC_BIRKHOFF = ["rot:2/7", "cyclic:7", "odo:2^3", "rot:1/3,2/5"]

# The skews that birkhoff_window_test reads at eps 0.02 and 0.002 on start
# grids of 0.25 and 0.1, one return class per x: over the 40 times t drawn
# from [1, 10^6] with each seed, and over the times 3t + 1.  Seed 4 makes
# skew:0.3 first return from x = 0.25, a later class than x = 0.
BIRKHOFF_CLASSES = ["skew:golden", "skew:0.3", "skew:1/3"]
BIRKHOFF_CLASS_SEEDS = [4, 5, 6]

# difference_set windows 7 + stride·T, T a seeded draw of a share of the
# points of [0, span]: sparse ones for the scan and the transform, ones near
# density 1/2 and dense ones, and the interval.
DIFFERENCE_SET_SPANS = [300, 3000, 30_000]
DIFFERENCE_SET_DENSITIES = [0.02, 0.2, 0.5, 0.51, 0.53, 0.6, 0.95, 1.0]
DIFFERENCE_SET_STRIDES = [1, 3, 2 ** 40, 2 ** 70]


# r_sequence_metric and birkhoff_window_test rows (spec, start grid, eps, times)
# whose start batches need different denominators, each over that many times
# drawn from [1, 10^6]: on rot:1/3 and skew:1/3 the first start, 0.0, runs
# over 3 and the rest over 12 (grid 0.25) or 3·2^55 (grid 0.1); on rot:golden
# the first start runs over 2^64 and the rest over 2^66, on Python ints.  No
# start's orbit is eps-dense, so every batch is read.
BATCH_DENOMINATORS = [
    ("rot:1/3", 0.25, 0.1, 300),
    ("rot:1/3", 0.1, 0.1, 300),
    ("skew:1/3", 0.1, 0.05, 200),
    ("rot:golden", 1 / 5000, 0.01, 64),
]

# Seeds of the cross-check windows at the bottom edge: seed s draws 2 to 24
# elements of [1, top] (top in [20, 400]) besides 0, on [0, 400], checked at
# M = 12 with shift 0 alone (odd s) or shifts -6..6 (even s).  16 of the 20
# disagree, coverage against both hitting predicates, either way round.
CROSSCHECK_DISAGREEMENT_SEEDS = range(20)

# finite_subcover rows (elements, horizon, m): windows that cover Z/m and
# windows that miss a class, among them the empty window, {0, 1} mod 3, a
# window shorter than m, small elements under a horizon past 2^62, and
# elements past 2^63 and 2^64, which stay Python ints.
FINITE_SUBCOVERS = [
    (range(101), 100, 7),
    ((), 10, 1),
    ((), 10, 3),
    ((0, 1, 3, 4, 6, 7, 9, 10), 10, 3),
    ((0, 1, 2), 10, 5),
    ([k * k for k in range(101)], 10_000, 5),
    ([k * k for k in range(101)], 2 ** 63, 12),
    ([k * k for k in range(101)], 2 ** 63, 8),
    ([2 ** 63 + k for k in range(0, 300, 7)], 2 ** 63 + 300, 12),
    ([2 ** 64 + k * k for k in range(101)], 2 ** 64 + 10_000, 5),
    ([2 ** 64 + k * k for k in range(101)], 2 ** 64 + 10_000, 9),
    ([2 ** 64 + 3 * k for k in range(200)], 2 ** 64 + 600, 3),
    ([2 ** 64 + 3 * k for k in range(200)], 2 ** 64 + 600, 6),
]

# [10, 989] without its multiples of 7: with 994 added, shifts up to 6 keep
# 994 and cover Z/7, and shift 7 drops it.
NO_SEVENS = tuple(n for n in range(10, 990) if n % 7)

# Shifted cyclic families (elements, horizon, shifts, M): every shift passes;
# the core (the elements every shift keeps) is empty, with every shift passing
# or a late one failing; shifts pass and then one fails; shifts far past the
# horizon; and each on Python ints, past 2^63 and 2^64, where e + n can pass
# 2^63.
SHIFTED_CYCLIC = [
    (range(3001), 3000, range(-3, 4), 12),
    (range(100), 99, range(-60, 61, 40), 6),
    (range(100), 99, [-60, -20, 20, 60, 95], 6),
    ((*range(10, 991, 2), 995), 1000, range(0, 11), 3),
    ((*range(10, 991, 2), 995), 1000, range(0, 11), 20),
    ((*NO_SEVENS, 994), 1000, range(-3, 12), 12),
    (range(11), 10, [-2 ** 70, 0, 2 ** 70], 3),
    ([2 ** 64 + 2 * k for k in range(700)], 2 ** 64 + 1400, range(-1, 2), 50),
    ([2 ** 64 + k for k in range(3001)], 2 ** 64 + 3000, range(-3, 4), 20),
    ([2 ** 64 + k for k in range(100)], 2 ** 64 + 99, [-60, -20, 20, 60, 95], 6),
    ([2 ** 64 + e for e in (*range(10, 991, 2), 995)], 2 ** 64 + 1000, range(0, 11), 3),
    ([2 ** 64 + e for e in (*NO_SEVENS, 994)], 2 ** 64 + 1000, range(-3, 12), 12),
    (range(2 ** 63 - 200, 2 ** 63 - 1), 2 ** 63 + 100, range(-5, 120, 3), 12),
    ((*range(2 ** 63 - 400, 2 ** 63 - 1, 2), 2 ** 63 - 1), 2 ** 63 + 100, range(90, 110, 3), 3),
    (range(2 ** 63 - 12, 2 ** 63), 2 ** 63 + 100, range(-2, 110), 12),
    ([k * k for k in range(101)], 2 ** 63, range(-2, 3), 12),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--report")]


def fingerprint(main, argv: list[str]) -> str:
    for path in _written(argv):
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a bug: record it instead of stopping the list
            code = f"raised {type(exc).__name__}"
            err.write(str(exc))
    fields = [f"exit={code}", f"stdout={_sha(out.getvalue().encode())}", f"stderr={_sha(err.getvalue().encode())}"]
    for path in _written(argv):
        fields.append(f"{path}={_sha(Path(path).read_bytes()) if os.path.exists(path) else 'absent'}")
    return " ".join(fields) + " :: " + " ".join(argv)


def _library_line(name: str, text_of) -> str:
    # The sha256 of the text of a library op or group, or the exception it raised.
    try:
        digest = _sha(text_of().encode())
    except Exception as exc:  # a bug: record it instead of stopping the list
        return f"repr=raised {type(exc).__name__} :: library {name}"
    return f"repr={digest} :: library {name}"


def _return_times(rows):
    # Each row's return-time window N(x, U) at horizon 20,000.
    for spec, start, cell, eps in rows:
        system = parse_system_spec(spec)
        yield return_times(system, start, cell, 20_000, cover=system.cover(eps))


def _draw(seed: int, count: int) -> np.ndarray:
    # count distinct times drawn from [1, 10^6], sorted.
    return np.sort(np.random.default_rng(seed).choice(10 ** 6, count, replace=False) + 1)


def _disagreement(seed: int) -> tuple:
    # The window, M and shifts that seed draws (CROSSCHECK_DISAGREEMENT_SEEDS).
    rng = np.random.default_rng(seed)
    top, count = int(rng.integers(20, 401)), int(rng.integers(2, 25))
    elements = [0] + sorted(rng.choice(np.arange(1, top + 1), count, replace=False).tolist())
    return Window(elements, 400), 12, range(0, 1) if seed % 2 else range(-6, 7)


def _subcover(elements, horizon: int, m: int):
    # finite_subcover's window, or the period and class of its CoverageError.
    try:
        return finite_subcover(Window(elements, horizon), m)
    except CoverageError as exc:
        return ("CoverageError", exc.period, exc.missing, str(exc))


def fingerprints() -> list[str]:
    """The line of every call, in list order, all run in one temporary directory of input files."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in {**FILES, **MALFORMED, **ENCODED}.items():
                Path(name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            calls = [call.split() + ["--json"] for call in CALLS]
            calls += [op.params["argv"] for op in workloads.build_cli_files(1, Path("cli-files"))]
            lines = [fingerprint(cli_main, argv) for argv in calls]
            lines += [
                _library_line(op.name, lambda op=op: repr(op.call(0)))
                for op in workloads.build_metric_density(1, Path("metric-density"))
            ]
            groups = {
                # crosscheck_cyclic_equivalence on the crosscheck-sweep benchmark, seed 1, in op order.
                "crosscheck-sweep": (op.call(0) for op in workloads.build_crosscheck_sweep(1, Path("crosscheck-sweep"))),
                # The return-time sets of a rotation, the skew product, a cycle and a product.
                "return-times": _return_times(RETURN_TIMES),
                # Orbits that repeat: their return-time sets, then their returns on every third time of [1, 3000).
                "periodic-orbits": itertools.chain(
                    _return_times(PERIODIC_RETURN_TIMES),
                    (
                        birkhoff_window_test(Window(range(1, 3000, 3), 3000), parse_system_spec(spec), 0.05, 0.25)
                        for spec in PERIODIC_BIRKHOFF
                    ),
                ),
                # The skews' return classes, one per x of the grid, over seeded times t and 3t + 1.
                "birkhoff-classes": (
                    birkhoff_window_test(Window(times.tolist(), int(times[-1])), parse_system_spec(spec), eps, grid)
                    for seed in BIRKHOFF_CLASS_SEEDS
                    for times in (_draw(seed, 40), 3 * _draw(seed, 40) + 1)
                    for spec in BIRKHOFF_CLASSES
                    for grid in (0.25, 0.1)
                    for eps in (0.02, 0.002)
                ),
                # difference_set on seeded windows, sparse to dense, at every stride.
                "difference-sets": (
                    difference_set(Window([7 + stride * t for t in offsets.tolist()], 7 + stride * span))
                    for seed, (span, density) in enumerate(itertools.product(DIFFERENCE_SET_SPANS, DIFFERENCE_SET_DENSITIES))
                    for offsets in [
                        np.sort(np.random.default_rng(seed).choice(span + 1, round(density * (span + 1)), replace=False))
                    ]
                    for stride in DIFFERENCE_SET_STRIDES
                ),
                # Both metric tests on start batches whose denominators differ.
                "batch-denominators": (
                    test(Window(_draw(seed, count).tolist(), 10 ** 6), parse_system_spec(spec), eps, grid)
                    for seed, (spec, grid, eps, count) in enumerate(BATCH_DENOMINATORS)
                    for test in (r_sequence_metric, birkhoff_window_test)
                ),
                # Cross-checks whose predicates honestly disagree at the bottom edge: status, witness and note.
                "crosscheck-disagreements": (
                    crosscheck_cyclic_equivalence(*args)
                    for args in [(Window((0, 1, 2, 3), 50), 3, range(-2, 3))]
                    + [_disagreement(seed) for seed in CROSSCHECK_DISAGREEMENT_SEEDS]
                ),
                # finite_subcover: the least element of each class, or the class a window misses.
                "finite-subcovers": (_subcover(*row) for row in FINITE_SUBCOVERS),
                # The cyclic engine's shifted families: verdict, witness and note.
                "shifted-cyclic": (
                    _shift_family_cyclic(Window(elements, horizon), shifts, max_period)
                    for elements, horizon, shifts, max_period in SHIFTED_CYCLIC
                ),
            }
            return lines + [
                _library_line(name, lambda results=results: "".join(repr(r) + "\n" for r in results))
                for name, results in groups.items()
            ]
        finally:
            os.chdir(cwd)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fingerprint the output of a fixed list of dynwindow CLI and library calls."
    )
    parser.add_argument("--write", action="store_true", help=f"write the lines to {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    print(f"dynwindow from {Path(dynwindow.__file__).parent}", file=sys.stderr)
    text = "".join(line + "\n" for line in fingerprints())
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
