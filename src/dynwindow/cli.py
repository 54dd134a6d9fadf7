"""Batch front-end: sequence files and system specs in, deterministic reports out.

Subcommands return their report, summary lines, exit code and the files to
write (path to text); ``main`` alone stamps the run parameters, writes the
report, then the files, and then prints.  JSON is the
single machine-readable output; the summary is rendered from the same values
as the report.  Identical inputs and params give byte-identical reports.  Exit
code 0 means a verdict was computed (even a failing one); nonzero is reserved
for operational errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from fractions import Fraction
from typing import Optional

import numpy as np

from .intsets import (
    Verdict,
    Window,
    _write_text,
    banach_density_estimate,
    format_sequence,
    is_syndetic,
    is_thick,
    parse_sequence_file,
    piecewise_syndetic_certificate,
)
from .systems import CyclicSystem, SystemSpecError, TorusSystem, parse_system_spec
from .recurrence import (
    _CROSSCHECK_HORIZON_CAP,
    DEFAULT_SWEEP_SEED,
    _comparison_reach,
    _shift_family_cyclic,
    crosscheck_cyclic_equivalence,
    product_transitive_finite,
    r_sequence_cyclic,
    r_sequence_metric,
    random_windows,
    shift_family_test,
)
from .permpoly import (
    CapExceededError,
    PolyModP,
    decide_permutation,
    find_non_surjective_prime,
    format_int_polynomial,
    parse_int_polynomial,
)
from .constructions import (
    IPBlockSchedule,
    build_ip_block_sequence,
    verify_not_pws,
    verify_shifted_recurrence,
)

# permpoly check refuses a --p past this.  Its two deciders take time about
# quadratic in p: 0.79 s at p = 10,007 and 3.35 s at 20,021 on a 2-vCPU
# x86-64 host, and a p of 19 digits would first cost is_prime some 10^9 trial
# divisions.
_CHECK_PRIME_CAP = 20_000


def _parse_shifts(text: str) -> range:
    # argparse prints an ArgumentTypeError's message (exit 2), where it replaces a ValueError's.
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"shift range must look like 'a..b', got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shift range {text!r}") from exc
    if b < a:
        raise argparse.ArgumentTypeError(f"empty shift range {text!r}")
    return range(a, b + 1)


def _load_window(path: str, horizon_override: Optional[int]) -> Window:
    w = parse_sequence_file(path)
    return w if horizon_override is None else w.restrict(horizon_override)


def _sequence_info(source: str, w: Window) -> dict:
    return {"source": source, "horizon": w.horizon, "count": len(w)}


@functools.cache
def _digit_words() -> np.ndarray:
    # Word i of 10^4 holds the four ASCII digits of i, zero-padded, first digit first in memory.
    i = np.arange(10_000)
    digits = np.stack((i // 1000, i // 100 % 10, i // 10 % 10, i % 10), axis=1).astype(np.uint8) + ord("0")
    return digits.view(np.uint32).ravel()


def _decimal_lines(values: np.ndarray, sep: str) -> str:
    """``sep.join(map(str, values))`` for a non-empty 1-D int64 array of ascending naturals.

    As in the sequence-file reader, ascending values come in at most 19 runs of
    one decimal length.  A run of length L is one byte matrix, a row per value:
    the separator, then the value's base-10^4 chunks as table words, cut to the
    last L digits.  Every row is written with its separator; the first one is dropped.
    """
    words, width = _digit_words(), len(sep)
    lengths = range(len(str(values[0])), len(str(values[-1])) + 1)
    bounds = [0, *np.searchsorted(values, [10 ** L for L in lengths[:-1]]).tolist(), values.size]
    out = np.empty(sum((b - a) * (width + L) for L, a, b in zip(lengths, bounds, bounds[1:])), dtype=np.uint8)
    separator, offset = np.frombuffer(sep.encode("ascii"), dtype=np.uint8), 0
    for L, a, b in zip(lengths, bounds, bounds[1:]):
        run, chunks = values[a:b], -(-L // 4)
        rows = out[offset : offset + (b - a) * (width + L)].reshape(b - a, width + L)
        rows[:, :width] = separator
        padded = np.empty((b - a, chunks), dtype=np.uint32)
        for c in range(chunks - 1, 0, -1):  # the low chunks, last column first
            run, low = np.divmod(run, 10_000)
            padded[:, c] = words[low]
        padded[:, 0] = words[run]
        rows[:, width:] = padded.view(np.uint8)[:, 4 * chunks - L :]
        offset += rows.size
    return str(memoryview(out)[width:], "ascii")


def _render(value, pad: str = "") -> str:
    # json.dumps(value, sort_keys=True, indent=2), byte for byte, reading a Verdict as to_json(),
    # a Fraction as {"exact", "float"} and an ndarray as tolist(): with indent set the stdlib
    # encodes in pure Python.  str, int, None and bool leaves go straight to the text json.dumps
    # gives them, and a 1-D int64 array of ascending naturals to _decimal_lines.
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None or type(value) is bool:
        return {None: "null", True: "true", False: "false"}[value]
    inner = pad + "  "
    sep = f",\n{inner}"
    if isinstance(value, Verdict):
        value = value.to_json()
    elif isinstance(value, Fraction):
        value = {"exact": f"{value.numerator}/{value.denominator}", "float": float(value)}
    elif isinstance(value, np.ndarray):
        ascending = value.ndim == 1 and value.dtype == np.int64 and value.size and not (value[1:] < value[:-1]).any()
        if ascending and value[0] >= 0:
            return f"[\n{inner}{_decimal_lines(value, sep)}\n{pad}]"
        value = value.tolist()
    if isinstance(value, dict) and value:
        body = sep.join(f"{_render(k)}: {_render(v, inner)}" for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)) and value:
        body = sep.join(_render(v, inner) for v in value)
    else:
        return json.dumps(value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return f"{opening}\n{inner}{body}\n{pad}{closing}"


def _params_of(args) -> dict:
    # Output routing (the report's --out/--json, construct's sequence file) is
    # not part of the run config: the same inputs and params must give
    # byte-identical reports wherever they are written.
    params = {k: v for k, v in vars(args).items() if k not in ("func", "out", "json", "sequence")}
    if isinstance(params.get("shifts"), range):
        r = params["shifts"]
        params["shifts"] = f"{r.start}..{r.stop - 1}"
    return params


def _verdict_line(label: str, v: Verdict) -> str:
    extra = f" witness={v.witness}" if v.witness is not None else ""
    note = f"  ({v.note})" if v.note else ""
    return f"{label}: {v.status.value}{extra}{note}"


def _cmd_classify(args) -> tuple[dict, list[str], int, dict]:
    if args.density_length < 1:
        raise ValueError(f"--density-length must be >= 1, got {args.density_length}")
    w = _load_window(args.path, args.horizon)
    checks = {
        "syndetic": is_syndetic(w, args.gap),
        "thick": is_thick(w, args.run),
        "piecewise_syndetic": piecewise_syndetic_certificate(w, args.gap, args.block),
    }
    density_length = min(args.density_length, w.horizon) or 1
    density = banach_density_estimate(w, density_length)
    report = {
        "sequence": _sequence_info(args.path, w),
        "family": "window classifiers",
        "checks": checks,
        "banach_density": density,
    }
    summary = [
        f"sequence {args.path}: {len(w)} elements, horizon {w.horizon}",
        _verdict_line(f"syndetic (gap {args.gap})", checks["syndetic"]),
        _verdict_line(f"thick (run {args.run})", checks["thick"]),
        _verdict_line(f"piecewise-syndetic certificate (gap {args.gap}, block {args.block})", checks["piecewise_syndetic"]),
        f"banach density (length {density_length}): {density} = {float(density):.6g}",
    ]
    return report, summary, 0, {}


def _cmd_recurrence(args) -> tuple[dict, list[str], int, dict]:
    w = _load_window(args.path, args.horizon)
    family = args.family.strip()
    cyclic = family.startswith("cyclic:<=")
    if cyclic:
        try:
            max_period = int(family[len("cyclic:<="):])
        except ValueError as exc:
            raise SystemSpecError(f"bad cyclic bound in {family!r}") from exc
        family_str = f"cyclic m <= {max_period}"

        def tester(window):
            return r_sequence_cyclic(window, max_period)

    else:
        sys_obj = parse_system_spec(family)
        if not isinstance(sys_obj, TorusSystem):
            raise SystemSpecError(f"recurrence takes cyclic:<=M or a metric system (rot:..., skew:...), not {family!r}")
        family_str = f"{family} eps={args.eps}"

        def tester(window):
            return r_sequence_metric(window, sys_obj, args.eps, args.start_grid)

    report = {"sequence": _sequence_info(args.path, w)}
    if args.shifts is None:
        result = tester(w)
        verdict = result.verdict
        report.update(result.to_json())
    else:
        verdict = _shift_family_cyclic(w, args.shifts, max_period) if cyclic else shift_family_test(w, args.shifts, tester)
        report.update(per_system=[], family=family_str + ", shifted", **verdict.to_json())
    return report, [_verdict_line(f"recurrence vs {family}", verdict)], 0, {}


def _cmd_crosscheck(args) -> tuple[dict, list[str], int, dict]:
    if args.path:
        windows = [(_load_window(args.path, args.horizon), args.path)]
    else:
        horizon = 10_000 if args.horizon is None else args.horizon
        if horizon > _CROSSCHECK_HORIZON_CAP:
            raise ValueError(f"sweep horizon {horizon} exceeds the cross-check's {_CROSSCHECK_HORIZON_CAP} cap")
        _comparison_reach(horizon, args.max_period, args.shifts)  # a sweep's windows share it: refused before the draw
        windows = [(w, f"seeded[{i}]") for i, w in enumerate(random_windows(args.count, horizon, seed=args.seed))]
    verdicts = [crosscheck_cyclic_equivalence(w, args.max_period, args.shifts) for w, _ in windows]
    entries = [{"sequence": _sequence_info(name, w), **v.to_json()} for (w, name), v in zip(windows, verdicts)]
    disagreements = sum(not v.holds for v in verdicts)
    overall = (
        Verdict.hold(note=f"three predicates agree on all {len(windows)} windows")
        if disagreements == 0
        else Verdict.fail(disagreements, note=f"{disagreements} windows disagree")
    )
    report = {
        "family": f"cyclic m <= {args.max_period} equivalence cross-check",
        "per_system": entries,
        **overall.to_json(),
    }
    label = f"cross-check ({len(windows)} windows, m <= {args.max_period}, shifts {args.shifts.start}..{args.shifts.stop - 1})"
    return report, [_verdict_line(label, overall)], 0, {}


def _cmd_permpoly(args) -> tuple[dict, list[str], int, dict]:
    coeffs = parse_int_polynomial(args.polynomial)
    if args.action == "check":
        if args.p is None:
            raise SystemSpecError("permpoly check needs --p")
        if args.p > _CHECK_PRIME_CAP:
            raise ValueError(f"--p {args.p} is past the permpoly check cap of {_CHECK_PRIME_CAP}")
        f = PolyModP.make(args.p, coeffs)
        permutes, evidence, image = decide_permutation(f)
        report = {
            "polynomial": format_int_polynomial(coeffs),
            "p": args.p,
            "is_permutation": permutes,
            "criterion_evidence": evidence,
            "image_size": len(image),
            "image": image,
        }
        line = f"{report['polynomial']} over F_{args.p}: " + (
            "permutation" if permutes else f"not a permutation (image size {len(image)})"
        )
    else:  # find-prime
        res = find_non_surjective_prime(coeffs, args.cap)
        report = {
            "polynomial": format_int_polynomial(coeffs),
            **res.to_json(),
            "image": res.image,
        }
        line = (
            f"{report['polynomial']}: p = {res.p}, missing residue {res.missing} "
            f"(image size {len(res.image)} of {res.p})"
        )
    return report, [line], 0, {}


def _cmd_construct(args) -> tuple[dict, list[str], int, dict]:
    if args.schedule:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            schedule = IPBlockSchedule.from_json(json.load(fh))
    else:
        schedule = IPBlockSchedule.default(args.blocks)
    built = build_ip_block_sequence(schedule)
    w = built.window
    not_pws = verify_not_pws(built, args.gap, args.block_length)
    shifted = verify_shifted_recurrence(built, args.max_period, args.shifts)
    spacing_law = built.spacing_law_holds()
    summary, files = [], {}
    if args.sequence:
        comment = (
            f"ip-block sequence: {schedule.block_count} blocks, "
            f"t-schedule {'default' if schedule.uses_default_t else 'custom'}"
        )
        files[args.sequence] = format_sequence(w, comment)
        summary.append(f"wrote {len(w)} elements to {args.sequence}")
    report = {
        "sequence": _sequence_info(args.sequence or "<not written>", w),
        "family": "ip-block construction",
        "spacing_law": spacing_law,
        "blocks": [
            {"index": b.index, "t": b.t, "offset": b.offset, "size": b.hi - b.lo, "lo": b.lo, "hi": b.hi}
            for b in built.blocks
        ],
        "not_piecewise_syndetic": not_pws,
        "shifted_recurrence": shifted,
    }
    summary += [
        f"built {schedule.block_count} blocks, horizon {w.horizon}",
        f"spacing law: {'holds' if spacing_law else 'VIOLATED'}",
        _verdict_line(f"not piecewise syndetic (gap {args.gap}, block {args.block_length})", not_pws),
        _verdict_line(
            f"shifted recurrence (m <= {args.max_period}, shifts {args.shifts.start}..{args.shifts.stop - 1})",
            shifted,
        ),
    ]
    return report, summary, 0, files


def _cmd_product(args) -> tuple[dict, list[str], int, dict]:
    left = parse_system_spec(args.left)
    right = parse_system_spec(args.right)
    if not isinstance(left, CyclicSystem) or not isinstance(right, CyclicSystem):
        raise SystemSpecError("product transitivity oracle takes two cyclic:m specs")
    res = product_transitive_finite(left.period, right.period)
    line = (
        f"cyclic:{res.m} x cyclic:{res.n}: transitive={res.coprime} "
        f"(orbit of (0,0) has {res.orbit_size} states of {res.m * res.n}; "
        f"enumeration {'agrees' if res.agrees else 'DISAGREES'})"
    )
    return res.to_json(), [line], 0 if res.agrees else 1, {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first call and shared by every later main call in the process.
    parser = argparse.ArgumentParser(
        prog="dynwindow",
        description="Window-bounded recurrence, density and permutation-polynomial checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--json", action="store_true", help="print the JSON report to stdout")

    p = sub.add_parser("classify", help="syndetic / thick / piecewise-syndetic / density checks")
    p.add_argument("path", help="sequence file")
    p.add_argument("--horizon", type=int, default=None, help="override the file's horizon")
    p.add_argument("--gap", type=int, default=10, help="gap bound for syndeticity")
    p.add_argument("--run", type=int, default=10, help="run length for thickness")
    p.add_argument("--block", type=int, default=100, help="interval length for the pws certificate")
    p.add_argument("--density-length", type=int, default=1000, help="interval length for banach density")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("recurrence", help="orbit-density test against a system family")
    p.add_argument("path", help="sequence file")
    p.add_argument("family", help="cyclic:<=M, rot:..., or skew:...")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.05, help="cell size for metric families")
    p.add_argument("--start-grid", type=float, default=0.25, dest="start_grid", help="start grid resolution")
    p.add_argument("--shifts", type=_parse_shifts, default=None, help="also require every shifted copy to pass (a..b)")
    add_common(p)
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("crosscheck", help="three-way equivalence cross-check on the cyclic family")
    p.add_argument("path", nargs="?", default=None, help="sequence file (omit to sweep seeded random windows)")
    p.add_argument("--count", type=int, default=500, help="number of random windows when no file is given")
    p.add_argument("--horizon", type=int, default=None, help="horizon for random windows / override for files")
    p.add_argument("--max-period", type=int, default=12, dest="max_period")
    p.add_argument("--shifts", type=_parse_shifts, default=range(-6, 7))
    p.add_argument("--seed", type=int, default=DEFAULT_SWEEP_SEED, help="seed of the random windows")
    add_common(p)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("permpoly", help="permutation-polynomial checks over prime fields")
    p.add_argument("action", choices=("check", "find-prime"))
    p.add_argument("polynomial", help='e.g. "x^2+3x+1"')
    p.add_argument("--p", type=int, default=None, help=f"prime field for 'check', at most {_CHECK_PRIME_CAP}")
    p.add_argument("--cap", type=int, default=10_000, help="prime cap for 'find-prime'")
    add_common(p)
    p.set_defaults(func=_cmd_permpoly)

    p = sub.add_parser("construct", help="build the ip-block sequence and verify both halves")
    p.add_argument("kind", choices=("example",), help="construction to build")
    p.add_argument("--blocks", type=int, default=30)
    p.add_argument("--schedule", default=None, help="custom schedule JSON ({t, k, base})")
    # --out names the sequence file; the JSON report goes to --report (dest "out", as elsewhere).
    p.add_argument("--out", dest="sequence", metavar="OUT", default=None, help="write the sequence file here")
    p.add_argument("--report", dest="out", metavar="REPORT", default=None, help="write the JSON report here")
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    p.add_argument("--gap", type=int, default=10)
    p.add_argument("--block-length", type=int, default=100, dest="block_length")
    p.add_argument("--max-period", type=int, default=20, dest="max_period")
    p.add_argument("--shifts", type=_parse_shifts, default=range(-10, 11))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("product", help="transitivity oracle for a product of two cycles")
    p.add_argument("left", help="cyclic:m")
    p.add_argument("right", help="cyclic:n")
    add_common(p)
    p.set_defaults(func=_cmd_product)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, summary, code, files = args.func(args)
        report["params"] = _params_of(args)
        doc = _render(report) + "\n"
        if args.out:  # before any print: a report that cannot be written leaves stdout empty
            _write_text(args.out, doc)
        for path, text in files.items():  # after the report: a failed report writes no other file
            _write_text(path, text)
        for line in summary:
            print(line)
        if args.json:
            sys.stdout.write(doc)
        return code
    except (CapExceededError, OSError, ValueError) as exc:
        # Bad input; OSError covers a path that cannot be opened (missing, a
        # directory, under a file), and ValueError SequenceFormatError,
        # SystemSpecError, PolynomialSyntaxError and a file that is not UTF-8.
        # Anything else is a bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
