"""Seeded op lists for the three workloads.

An op is one user-visible call into dynwindow: a ``dynwindow.cli.main(argv)``
call or one public library function.  ``call`` is the only part that is
timed; ``check`` then compares its result with an independent computation
from ``checks``.

Work per op is set by the op's slot (sizes, primes, window lengths and the
verdict a slot is built to reach are fixed); the seed only chooses contents.
That keeps the total work of a pass nearly the same for every seed, so that
runs with different seeds can be compared.

Regenerate the inputs of one workload without running it:

    python3 perfbench/workloads.py cli-files --seed 1 --dir perfbench/out/inputs
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

WORKLOADS = ("cli-files", "crosscheck-sweep", "metric-density")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0


@dataclass
class Op:
    name: str
    kind: str
    call: Callable[[int], object]  # repetition index -> raw result (timed)
    check: Callable[[object], Optional[str]]  # raw result -> None or reason (untimed)
    params: dict = field(default_factory=dict)
    # Non-empty for an op that fails on every seed because of a known fault.
    known_fault: str = ""
    # Raw result -> comparable value.  Later repetitions must reproduce the
    # first one's value, which is checked in full; None checks every one.
    fingerprint: Optional[Callable[[object], object]] = None
    # Element lists of library ops, written out only when inputs are regenerated.
    inputs: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> tuple[random.Random, np.random.Generator]:
    salt = WORKLOADS.index(workload)
    return random.Random(seed * 7919 + salt), np.random.default_rng([seed, salt])


# -- cli-files ------------------------------------------------------------------


def _write_sequence(path: Path, elements, horizon: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"!horizon {horizon}\n")
        fh.write("\n".join(str(int(e)) for e in elements))
        fh.write("\n")


def _read_sequence(path: Path) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return [int(line) for line in fh if line[0].isdigit()]


def _read_construct(path: Path) -> tuple[list[int], int]:
    """Elements and horizon of a constructed sequence (its horizon is its last element)."""
    elements = _read_sequence(path)
    return elements, elements[-1]


def _random_subset(nrng, count: int, lo: int, hi: int) -> np.ndarray:
    return np.sort(nrng.choice(np.arange(lo, hi + 1), size=count, replace=False))


def _sequence_files(rng, nrng, workdir: Path) -> list[tuple[str, Path, int]]:
    """Five files of 10^4 to 10^5 elements; (slot, path, horizon)."""
    files = []
    # random: density 0.25, so residues are covered, the certificate holds at
    # 0, and syndeticity (gap 10) and thickness (run 12) fail.
    h = 400_000
    files.append(("random", _random_subset(nrng, 100_000, 0, h), h))
    # avoid: one residue class r mod m left out, so residue coverage fails at
    # m exactly.  With m <= 20 the shifted test stops at its first shift, with
    # m > 20 it runs all three: each slot keeps one of the two amounts of work.
    h = 1_000_000
    for slot, (lo, hi) in (("avoid-low", (7, 20)), ("avoid-high", (21, 50))):
        m = rng.randrange(lo, hi + 1)
        r = rng.randrange(m)
        pool = np.arange(h + 1)
        pool = pool[pool % m != r]
        files.append((slot, np.sort(nrng.choice(pool, size=40_000, replace=False)), h))
    # blocks: runs of 5..60 consecutive naturals with gaps of 20..200, and one
    # run of 100..150 in the middle that carries the piecewise-syndetic
    # certificate (gap 10, block 100) away from 0.
    runs, pos, total = [], rng.randrange(0, 100), 0
    long_run = rng.randrange(200, 400)
    while total < 30_000:
        length = rng.randrange(100, 151) if len(runs) == long_run else rng.randrange(5, 61)
        length = min(length, 30_000 - total)
        runs.append(np.arange(pos, pos + length))
        total += length
        pos += length + rng.randrange(20, 201)
    elements = np.concatenate(runs)
    files.append(("blocks", elements, int(elements[-1]) + rng.randrange(0, 1000)))
    # small: 10^4 elements spread over [0, 10^6].
    h = 1_000_000
    files.append(("small", _random_subset(nrng, 10_000, 0, h), h))
    out = []
    for slot, elements, horizon in files:
        path = workdir / f"{slot}.txt"
        _write_sequence(path, elements, horizon)
        out.append((slot, path, horizon))
    return out


def _poly_text(coeffs) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c:
            terms.append(str(c) if e == 0 else f"{c}x" if e == 1 else f"{c}x^{e}")
    return "+".join(terms).replace("+-", "-")


def _shifted_power(b: int, k: int, c: int) -> list[int]:
    """Ascending integer coefficients of (x + b)^k + c."""
    coeffs = [math.comb(k, i) * b ** (k - i) for i in range(k + 1)]
    coeffs[0] += c
    return coeffs


def build_cli_files(seed: int, workdir: Path) -> list[Op]:
    from dynwindow import cli

    rng, nrng = _rng("cli-files", seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def cli_op(name, kind, argv_of, check_report, report_path: Path, params=None, same_report=True):
        def call(rep):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv_of(rep))

        def check(rc):
            if rc != 0:
                return f"exit code {rc}"
            with open(report_path, "r", encoding="utf-8") as fh:
                return check_report(json.load(fh))

        def fingerprint(rc):
            return rc, report_path.read_bytes()

        ops.append(Op(name, kind, call, check, {"argv": argv_of(0), **(params or {})},
                      fingerprint=fingerprint if same_report else None))

    for slot, path, horizon in _sequence_files(rng, nrng, workdir):
        out = workdir / f"{slot}.report.json"
        gap, run, block, dlen = 10, 12, 100, 1000
        cli_op(
            f"classify:{slot}",
            "classify",
            lambda rep, path=path, out=out, a=(gap, run, block, dlen): [
                "classify", str(path), "--gap", str(a[0]), "--run", str(a[1]),
                "--block", str(a[2]), "--density-length", str(a[3]), "--out", str(out),
            ],
            lambda report, path=path, h=horizon, a=(gap, run, block, dlen): checks.check_classify(
                _read_sequence(path), h, *a, report
            ),
            out,
        )
        cli_op(
            f"recurrence-50:{slot}",
            "recurrence-cyclic",
            lambda rep, path=path, out=out: ["recurrence", str(path), "cyclic:<=50", "--out", str(out)],
            lambda report, path=path, h=horizon: checks.check_cyclic(_read_sequence(path), h, 50, report),
            out,
        )
        cli_op(
            f"recurrence-20-shifted:{slot}",
            "recurrence-shifted",
            lambda rep, path=path, out=out: [
                "recurrence", str(path), "cyclic:<=20", "--shifts=-1..1", "--out", str(out),
            ],
            lambda report, path=path, h=horizon: checks.check_cyclic(
                _read_sequence(path), h, 20, report, shifts=range(-1, 2)
            ),
            out,
        )

    # Cross-check files: horizon near 10^4, support from 50.  Each repetition
    # passes a horizon not used before in the process, so the comparison
    # windows are built cold, as in a separate `dynwindow crosscheck` call.
    for j in range(2):
        horizon = 10_000 + 2_000 * j
        density = 10 ** rng.uniform(math.log10(0.02), math.log10(0.1))
        span = np.arange(50, horizon + 1)
        elements = span[nrng.random(span.size) < density]
        path = workdir / f"crosscheck{j}.txt"
        _write_sequence(path, elements, horizon)
        out = workdir / f"crosscheck{j}.report.json"
        cli_op(
            f"crosscheck:{j}",
            "crosscheck",
            lambda rep, path=path, out=out, h=horizon: [
                "crosscheck", str(path), "--horizon", str(h + rep), "--out", str(out),
            ],
            checks.check_crosscheck,
            out,
            {"density": density},
            same_report=False,  # the report records the per-repetition horizon
        )

    # Block construction (elements beyond 2^62), then residue coverage of the
    # written file under shifts.
    for blocks in (20, 30):
        seq = workdir / f"construct{blocks}.txt"
        out = workdir / f"construct{blocks}.report.json"
        cli_op(
            f"construct:{blocks}",
            "construct",
            lambda rep, b=blocks, seq=seq, out=out: [
                "construct", "example", "--blocks", str(b), "--out", str(seq), "--report", str(out),
            ],
            lambda report, seq=seq: checks.check_construct(
                _read_sequence(seq), 10, 100, 20, range(-10, 11), report
            ),
            out,
        )
        out2 = workdir / f"construct{blocks}.recurrence.json"
        cli_op(
            f"recurrence-construct:{blocks}",
            "recurrence-shifted",
            lambda rep, seq=seq, out=out2: [
                "recurrence", str(seq), "cyclic:<=50", "--shifts=-10..10", "--out", str(out),
            ],
            lambda report, seq=seq: checks.check_cyclic(
                *_read_construct(seq), 50, report, shifts=range(-10, 11)
            ),
            out2,
        )

    # Permutation polynomials (x+b)^k+c with gcd(k, p-1) = 1: the full
    # criterion loop runs.  Each slot fixes (p, k), so its cost is fixed.
    for p, k in ((199, 5), (401, 3)):
        coeffs = _shifted_power(rng.randrange(1, p), k, rng.randrange(p))
        out = workdir / f"permpoly{p}.report.json"
        cli_op(
            f"permpoly-check:{p}",
            "permpoly-check",
            lambda rep, f=_poly_text(coeffs), p=p, out=out: [
                "permpoly", "check", f, "--p", str(p), "--out", str(out),
            ],
            lambda report, coeffs=coeffs, p=p: checks.check_permpoly(coeffs, p, report, must_permute=True),
            out,
            {"p": p},
        )
    # Random polynomials of degree 4 and 6: not permutations, so the criterion
    # exits early, once the power's degree first exceeds p - 2.
    for j, (p, degree) in enumerate(((151, 4), (307, 6))):
        coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        out = workdir / f"permpoly-random{j}.report.json"
        cli_op(
            f"permpoly-check:random{j}",
            "permpoly-check",
            lambda rep, f=_poly_text(coeffs), p=p, out=out: [
                "permpoly", "check", f, "--p", str(p), "--out", str(out),
            ],
            lambda report, coeffs=coeffs, p=p: checks.check_permpoly(coeffs, p, report, must_permute=False),
            out,
            {"p": p},
        )

    # Non-surjective prime search; the leading coefficient pushes p to about 3 * 10^4.
    for degree in (2, 3):
        coeffs = [rng.randrange(-50, 51) for _ in range(degree)] + [rng.randrange(29_000, 30_000)]
        out = workdir / f"find-prime{degree}.report.json"
        cli_op(
            f"permpoly-find-prime:{degree}",
            "permpoly-find-prime",
            lambda rep, f=_poly_text(coeffs), out=out: [
                "permpoly", "find-prime", f, "--cap", "40000", "--out", str(out),
            ],
            lambda report, coeffs=coeffs: checks.check_find_prime(coeffs, report),
            out,
        )
    return ops


# -- crosscheck-sweep ------------------------------------------------------------

SWEEP_WINDOWS = 250
SWEEP_HORIZON = 10_000


def build_crosscheck_sweep(seed: int, workdir: Path) -> list[Op]:
    from dynwindow import Window, recurrence

    rng, nrng = _rng("crosscheck-sweep", seed)
    lo, hi = math.log10(5e-4), math.log10(0.5)
    # Stratified log-uniform densities: one per stratum, in seeded order.
    strata = list(range(SWEEP_WINDOWS))
    rng.shuffle(strata)
    span = np.arange(50, SWEEP_HORIZON + 1)
    ops = []
    for i, s in enumerate(strata):
        density = 10 ** (lo + (s + rng.random()) / SWEEP_WINDOWS * (hi - lo))
        elements = tuple(int(e) for e in span[nrng.random(span.size) < density])

        def call(rep, elements=elements):
            w = Window(elements, SWEEP_HORIZON)
            return recurrence.crosscheck_cyclic_equivalence(w, 12, range(-6, 7))

        ops.append(Op(f"crosscheck:{i}", "crosscheck", call, checks.check_crosscheck,
                      {"density": density, "elements": len(elements)}, fingerprint=repr,
                      inputs={"window": elements}))
    return ops


# -- metric-density --------------------------------------------------------------


def _random_times(nrng, count: int, hi: int) -> tuple[int, ...]:
    times = set()
    while len(times) < count:
        times.update(int(x) for x in nrng.integers(1, hi, size=count - len(times)))
    return tuple(sorted(times))


def _filtered_times(nrng, count: int, hi: int, keep) -> tuple[int, ...]:
    times: set[int] = set()
    while len(times) < count:
        times.update(t for t in (int(x) for x in nrng.integers(1, hi, size=count)) if keep(t))
    return tuple(sorted(times)[:count])


def build_metric_density(seed: int, workdir: Path) -> list[Op]:
    from dynwindow import RotationSystem, SkewProductSystem, Window, recurrence

    rng, nrng = _rng("metric-density", seed)
    rot1 = ("rot", (GOLDEN,), RotationSystem.from_angle(GOLDEN))
    rot2 = ("rot", (GOLDEN, SQRT2_M1), RotationSystem((GOLDEN, SQRT2_M1)))
    skew = ("skew", (GOLDEN,), SkewProductSystem(GOLDEN))
    ops: list[Op] = []

    def library_op(name, kind, system, times, eps, res, check, known_fault=""):
        _, _, sys_obj = system
        horizon = times[-1]

        def call(rep):
            # Looked up per call, so a traced pass reaches the wrapped function.
            return getattr(recurrence, kind)(Window(times, horizon), sys_obj, eps, res)

        ops.append(Op(name, kind, call, check, {
            "system": sys_obj.spec_string(), "elements": len(times), "eps": eps, "grid": res,
        }, known_fault, fingerprint=repr, inputs={"window": times}))

    def metric_op(name, system, times, eps, res, known_fault=""):
        model = checks.MetricModel(system[0], system[1], eps, res)
        library_op(name, "r_sequence_metric", system, times, eps, res,
                   lambda report: checks.check_metric(model, times, report.verdict, report.per_system),
                   known_fault)

    def birkhoff_op(name, system, times, eps, res):
        model = checks.MetricModel(system[0], system[1], eps, res)
        library_op(name, "birkhoff_window_test", system, times, eps, res,
                   lambda verdict: checks.check_birkhoff(model, times, verdict))

    def squares(count):
        n0 = rng.randrange(0, 100_000)
        return tuple(n * n for n in range(n0, n0 + count))

    def no_return(system, count, eps, res):
        """Times after which no grid start comes back within eps."""
        model = checks.MetricModel(system[0], system[1], eps, res)
        far = model.eps_num + model.den // 10 ** 6
        return _filtered_times(
            nrng, count, 10 ** 12, lambda t: all(model.return_distance(s, t) >= far for s in model.starts)
        )

    for copy in range(2):
        # Dense from the first grid start.
        metric_op(f"metric:rot1-squares:{copy}", rot1, squares(5_000), 0.02, 0.25)
        metric_op(f"metric:rot1-random:{copy}", rot1, _random_times(nrng, 5_000, 10 ** 12), 0.02, 0.5)
        metric_op(f"metric:rot2-random:{copy}", rot2, _random_times(nrng, 4_000, 10 ** 12), 0.1, 0.5)
        metric_op(f"metric:skew-squares:{copy}", skew, squares(3_000), 0.1, 0.5)
        metric_op(f"metric:skew-random:{copy}", skew, _random_times(nrng, 6_000, 10 ** 12), 0.05, 0.5)

        # Fails after every grid start: n * golden mod 1 avoids a width-0.1
        # arc, or there are fewer times than cells.
        lo = rng.randrange(0, 9) / 10
        arc = checks.MetricModel("rot", (GOLDEN,), 0.1, 1.0)
        metric_op(f"metric:rot1-arc-gap:{copy}", rot1, _filtered_times(
            nrng, 5_000, 10 ** 12,
            lambda t: not lo <= arc.state(0.0, t)[0] / arc.den < lo + 0.1), 0.02, 0.25)
        metric_op(f"metric:rot2-sparse:{copy}", rot2, _random_times(nrng, 1_000, 10 ** 12), 0.02, 0.25)
        metric_op(f"metric:skew-sparse:{copy}", skew, _random_times(nrng, 1_000, 10 ** 12), 0.02, 0.25)

        # Birkhoff returns: an early hit, and windows of times that never
        # return within eps from any grid start (the whole grid is scanned).
        birkhoff_op(f"birkhoff:rot1-random:{copy}", rot1, _random_times(nrng, 2_000, 10 ** 12), 0.02, 0.25)
        birkhoff_op(f"birkhoff:skew-random:{copy}", skew, _random_times(nrng, 2_000, 10 ** 12), 0.02, 0.5)
        birkhoff_op(f"birkhoff:rot1-no-return:{copy}", rot1, no_return(rot1, 5_000, 0.05, 0.25), 0.05, 0.25)
        birkhoff_op(f"birkhoff:rot2-no-return:{copy}", rot2, no_return(rot2, 5_000, 0.05, 0.5), 0.05, 0.5)
        birkhoff_op(f"birkhoff:skew-no-return:{copy}", skew, no_return(skew, 3_000, 0.05, 0.5), 0.05, 0.5)

    # Exact rational rotations along multiples of q beyond 10^17: the exact
    # orbit of every start is a single point.  Inputs do not depend on the seed.
    for q in (3, 7):
        exact = ("rot", (Fraction(1, q),), RotationSystem.from_rationals(Fraction(1, q)))
        times = tuple(q * 10 ** 17 + q * i for i in range(1, 2001))
        metric_op(f"metric:exact-rot-1/{q}", exact, times, 0.1, 0.25, known_fault=(
            "r_sequence_metric takes the float path for RotationSystem.exact: "
            "_start_grid yields float starts"))
    return ops


BUILDERS = {
    "cli-files": build_cli_files,
    "crosscheck-sweep": build_crosscheck_sweep,
    "metric-density": build_metric_density,
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs and op list.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dir", type=Path, default=Path("perfbench/out/inputs"))
    args = parser.parse_args()
    import run

    run.import_program(Path.cwd())
    workdir = args.dir / f"{args.workload}-seed{args.seed}"
    ops = BUILDERS[args.workload](args.seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    listing = [{"name": op.name, "kind": op.kind, **op.params, **op.inputs} for op in ops]
    (workdir / "ops.json").write_text(json.dumps(listing, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(ops)} ops to {workdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
