"""Job kinds and the three seeded job mixes of the rscorr benchmark.

A job is one timed call, or a short fixed chain of calls, into the public
API of ``rscorr``.  Each kind has three parts:

* ``make(rng, order)`` draws the job's inputs from the seeded generator.
  Only ``args`` reach the library; ``probes`` are positions the check
  looks at.
* ``run(ctx, job)`` is the timed region.  It returns the library's output.
* ``check(ctx, job, out)`` verifies that output by a second route, outside
  the timed region, and raises :class:`CheckFailed` on a mismatch.

A workload is a *round*: a fixed list of (kind, order) slots.  Every round
draws each order of a kind's range once, without replacement, and the seed
sets the sequence of the slots and every input the cost does not hinge on
(probed shifts, random words, random normal-form shifts, CLI table kinds).
Whole rounds keep the mix identical from seed to seed, so the figures of
two seeds differ by run-to-run noise, not by a different mix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

import rscorr as rs
from rscorr import cli


class CheckFailed(Exception):
    """A job's output disagrees with its second route."""


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Job:
    kind: str
    order: int | None      # order m, BnB depth or word-length cap; None for batches
    args: tuple            # the only values the library sees
    probes: tuple = ()     # positions the check compares by a second route

    @property
    def key(self) -> tuple:
        """(function, inputs): two jobs with equal keys do identical work."""
        return (self.kind, self.args)


@dataclass
class Context:
    tmp_dir: str
    bytes_out: int = 0     # size of the last CLI output file, set by the check

    def out_path(self, kind: str) -> str:
        return os.path.join(self.tmp_dir, f"{kind}.out")


def _no_table(job: Job) -> None:
    return None


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable
    run: Callable
    check: Callable
    table_order: Callable = _no_table   # order of the largest table the job builds


# ---------------------------------------------------------------------------
# second routes, independent of the code paths under test
# ---------------------------------------------------------------------------

#: Growth constant: the real root of x^3 + x^2 - 2x - 4, from NumPy's
#: companion-matrix eigenvalues rather than rscorr's cubic solver.
LAM = float(max(r.real for r in np.roots([1.0, 1.0, -2.0, -4.0]) if abs(r.imag) < 1e-12))

#: ``bnb_bracket(d).upper - bnb_bracket(d).lower`` at the commit that
#: introduced this benchmark; a later commit may only narrow the bracket.
SEED_BNB_WIDTH = {
    8: 0.06745044928334498,
    9: 0.04125331695512524,
    10: 0.04064122897342415,
    11: 0.040542874842216525,
    12: 0.025529033126253653,
    13: 0.025529033126253653,
    14: 0.014986621843581682,
    15: 0.014986621843581682,
    16: 0.014986621843581682,
}

POLYTOPE_ROUNDS, POLYTOPE_VERTICES, POLYTOPE_TOL = 8, 26, 1e-8
REL_TOL = 1e-12


def rs_sign(i: int) -> int:
    """Term ``i`` of the Rudin-Shapiro sequence from its binary digits."""
    return 1 - 2 * (bin(i & (i >> 1)).count("1") & 1)


def littlewood(m: int) -> Fraction:
    """Littlewood's closed form of the merit factor, ``3 / (1 - (-1/2)^m)``."""
    return Fraction(3) / (1 - Fraction(-1, 2) ** m)


def sequence_sum_sq(m: int) -> int:
    """``(sum_i s_i)^2`` of the order-``m`` sequence, via ``rs_sequence``."""
    return int(np.sum(rs.rs_sequence(m).terms, dtype=np.int64)) ** 2


def aperiodic_at(m: int, k: int) -> tuple[int, int]:
    """``(C_m(k), C_m(2^m - k))`` for odd ``k`` from the matrix recurrence."""
    v = rs.v_product(m, k)
    return int(v[0]), int(v[1])


def periodic_at(m: int, k: int) -> int:
    """``P_m(k) = C_m(k) + C_m(2^m - k)`` for odd ``k``."""
    return sum(aperiodic_at(m, k))


def charpoly_radius(mat) -> float:
    """Largest root modulus of the exact integer characteristic polynomial.

    ``np.linalg.eigvals`` on a long non-normal product loses about
    ``eps * ||M||`` in each eigenvalue, which exceeds 1e-12 relative when
    the radius is far below the norm; the companion matrix of the integer
    polynomial carries no such loss.
    """
    a = [[int(x) for x in row] for row in np.asarray(mat).tolist()]
    t = a[0][0] + a[1][1] + a[2][2]
    s = (a[0][0] * a[1][1] - a[0][1] * a[1][0] + a[0][0] * a[2][2] - a[0][2] * a[2][0]
         + a[1][1] * a[2][2] - a[1][2] * a[2][1])
    d = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
         - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
         + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    return float(np.max(np.abs(np.roots([1.0, -float(t), float(s), -float(d)]))))


def int_product(letters) -> list:
    """Exact word product with Python integers, one letter at a time."""
    mats = {"MA": rs.MA.tolist(), "MB": rs.MB.tolist()}

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    return reduce(mul, (mats[w] for w in letters), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def close(x: float, ref: float, tol: float = REL_TOL) -> bool:
    return abs(x - ref) <= tol * abs(ref)


def odd_shifts(rng, m: int, count: int) -> tuple:
    return tuple(2 * rng.randrange(1 << (m - 1)) + 1 for _ in range(count))


def indices(rng, m: int, count: int = 64) -> tuple:
    return tuple(rng.randrange(1 << m) for _ in range(count))


def check_aperiodic_values(m: int, values, probes) -> None:
    n = 1 << m
    expect(len(values) == n + 1, f"aperiodic m={m}: {len(values)} entries")
    expect(int(values[0]) == n and int(values[n]) == 0, f"aperiodic m={m}: bad ends")
    expect(not np.any(values[2:n:2]), f"aperiodic m={m}: nonzero even shift")
    total = int(values[0]) + 2 * int(np.sum(values[1:], dtype=np.int64))
    expect(total == sequence_sum_sq(m), f"aperiodic m={m}: C(0)+2*sum C != (sum s)^2")
    for k in probes:
        expect((int(values[k]), int(values[n - k])) == aperiodic_at(m, k),
               f"aperiodic m={m}: C({k}) disagrees with v_product")


def check_periodic_values(m: int, values, probes) -> None:
    n = 1 << m
    expect(len(values) == n, f"periodic m={m}: {len(values)} entries")
    expect(int(values[0]) == n, f"periodic m={m}: P(0) != 2^m")
    expect(not np.any(values[2:n:2]), f"periodic m={m}: nonzero even shift")
    expect(int(np.sum(values, dtype=np.int64)) == sequence_sum_sq(m),
           f"periodic m={m}: sum P != (sum s)^2")
    for k in probes:
        expect(int(values[k]) == periodic_at(m, k), f"periodic m={m}: P({k}) disagrees")


def read_csv(path: str, header: str) -> list[list[str]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    expect(lines and lines[0] == header, f"{path}: header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_cli(ctx: Context, job: Job) -> int:
    return cli.main(list(job.args) + ["--out", ctx.out_path(job.kind)])


def finish_cli(ctx: Context, job: Job, rc: int) -> str:
    path = ctx.out_path(job.kind)
    expect(rc == 0, f"rscorr {' '.join(job.args)} exited {rc}")
    ctx.bytes_out = os.path.getsize(path)
    return path


def record_checks(rows) -> None:
    """Each record ``(m, k_star, value, ell, abs_gap)`` against ``v_product``."""
    for m, k_star, value, ell, abs_gap in rows:
        expect(value == aperiodic_at(m, k_star)[0], f"record m={m}: value at k*={k_star}")
        ref_ell = ((1 << (m + 1)) + 1) // 3 if (1 << (m + 1)) % 3 == 2 else (1 << (m + 1)) // 3
        expect(ell == ref_ell and abs_gap == abs(k_star - ref_ell), f"record m={m}: ell/gap")


# ---------------------------------------------------------------------------
# ladder kinds: deep single tables and their reductions
# ---------------------------------------------------------------------------

def _m(job: Job) -> int:
    return job.order


def _make_table(kind: str, probes: int = 16):
    def make(rng, m):
        return Job(kind, m, (m,), odd_shifts(rng, m, probes))
    return make


def _run_table_sumsq(ctx, job):
    table = rs.aperiodic_table_fast(job.order)
    return table, table.sum_squares()


def _check_table_sumsq(ctx, job, out):
    table, ss = out
    m = job.order
    check_aperiodic_values(m, table.values, job.probes)
    ref = Fraction(4**m, 6) * (1 - Fraction(-1, 2) ** m)
    expect(ss == ref, f"sum_squares m={m}: {ss} != 4^m (1-(-1/2)^m)/6")


def _check_periodic(ctx, job, out):
    check_periodic_values(job.order, out.values, job.probes)


def _check_merit(ctx, job, out):
    expect(out == littlewood(job.order), f"merit_factor m={job.order}: {out} != Littlewood")


def _run_records(ctx, job):
    return rs.conjecture_table(job.order), rs.max_ratios(job.order)


def _check_records(ctx, job, out):
    records, ratios = out
    m = job.order
    expect([r.m for r in records] == list(range(3, m + 1)), f"conjecture_table m={m}: orders")
    record_checks((r.m, r.k_star, r.value, r.ell, r.abs_gap) for r in records)
    peaks = {r.m: abs(r.value) for r in records}
    for mm, ratio in ratios:
        if mm in peaks:
            expect(close(ratio * LAM**mm, peaks[mm], 1e-9), f"max_ratios m={mm}: ratio")


def _make_rs_sequence(rng, m):
    return Job("rs_sequence", m, (m,), indices(rng, m))


def _check_rs_sequence(ctx, job, out):
    expect(len(out) == 1 << job.order, f"rs_sequence m={job.order}: length")
    for i in job.probes:
        expect(out[i] == rs_sign(i), f"rs_sequence m={job.order}: term {i}")


def _make_autocorr_cli(rng, m):
    kind = rng.choice(("aperiodic", "periodic"))
    return Job("autocorr_cli", m, ("autocorr", "--m", str(m), "--kind", kind),
               odd_shifts(rng, m, 16))


def _check_autocorr_cli(ctx, job, rc):
    path = finish_cli(ctx, job, rc)
    values = np.array([int(v) for _, v in read_csv(path, "k,value")], dtype=np.int64)
    if "periodic" in job.args:
        check_periodic_values(job.order, values, job.probes)
    else:
        check_aperiodic_values(job.order, values, job.probes)


def _make_plotdata_cli(rng, m):
    return Job("plotdata_cli", m, ("plotdata", "--m", str(m)), odd_shifts(rng, m, 16))


def _check_plotdata_cli(ctx, job, rc):
    rows = read_csv(finish_cli(ctx, job, rc), "k,abs_C")
    m = job.order
    expect(len(rows) == (1 << m) - 1, f"plotdata m={m}: {len(rows)} rows")
    for k in job.probes:
        expect(rows[k - 1] == [str(k), str(abs(aperiodic_at(m, k)[0]))],
               f"plotdata m={m}: k={k}")


def _make_gen_cli(rng, m):
    return Job("gen_cli", m, ("gen", "--m", str(m)), indices(rng, m))


def _check_gen_cli(ctx, job, rc):
    with open(finish_cli(ctx, job, rc)) as fh:
        glyphs = fh.read().split()
    expect(len(glyphs) == 1 << job.order, f"gen m={job.order}: {len(glyphs)} terms")
    for i in job.probes:
        expect(glyphs[i] == ("+" if rs_sign(i) > 0 else "-"), f"gen m={job.order}: term {i}")


def _make_table_cli(rng, m):
    return Job("table_cli", m, ("table", "--m-max", str(m)))


def _check_table_cli(ctx, job, rc):
    rows = read_csv(finish_cli(ctx, job, rc), "m,k_star,value,unique,ell,abs_gap,ratio")
    expect([int(r[0]) for r in rows] == list(range(3, job.order + 1)), "table: orders")
    expect(all(r[3] in ("true", "false") for r in rows), "table: unique flag")
    record_checks((int(r[0]), int(r[1]), int(r[2]), int(r[4]), int(r[5])) for r in rows)


# ---------------------------------------------------------------------------
# search kinds: matrix words, no table past order 2
# ---------------------------------------------------------------------------

def _check_bnb(ctx, job, out):
    d = job.order
    expect(out.lower <= LAM * (1 + REL_TOL) and out.upper >= LAM * (1 - REL_TOL),
           f"bnb_bracket({d}) = [{out.lower}, {out.upper}] misses lambda")
    width = out.upper - out.lower
    expect(width <= SEED_BNB_WIDTH[d] * (1 + REL_TOL),
           f"bnb_bracket({d}) width {width} > {SEED_BNB_WIDTH[d]}")


def _check_polytope(ctx, job, out):
    expect(out.success and out.rounds == POLYTOPE_ROUNDS and out.vertex_count == POLYTOPE_VERTICES,
           f"invariant_polytope: success={out.success} rounds={out.rounds} "
           f"vertices={out.vertex_count}")
    expect(out.max_violation <= POLYTOPE_TOL, f"invariant_polytope: violation {out.max_violation}")
    expect(close(out.scale, LAM), f"invariant_polytope: scale {out.scale}")


def _check_jsr_cli(ctx, job, rc):
    rep = read_json(finish_cli(ctx, job, rc))
    expect(rep["success"] and rep["rounds"] == POLYTOPE_ROUNDS
           and len(rep["vertices"]) == POLYTOPE_VERTICES, "jsr --method polytope: result")
    expect(rep["max_violation"] <= POLYTOPE_TOL, "jsr --method polytope: violation")


def _check_power_bounds(ctx, job, out):
    expect(out.passed and len(out.cases) == 49, f"verify_power_bounds: {out.failures()}")


def _check_verify_cli(ctx, job, rc):
    expect(read_json(finish_cli(ctx, job, rc))["passed"] is True, f"{job.args}: not passed")


def _check_conjugation(ctx, job, out):
    expect(out.passed and out.words_checked == (1 << (job.order + 1)) - 2,
           f"conjugation_invariance_check({job.order}): {out.to_dict()}")


def _check_irreducibility(ctx, job, out):
    expect(out.irreducible, "irreducibility_check: reducible")


WORDS_PER_BATCH = 48
MAX_WORD = 24


def _make_words(rng, _order):
    words = tuple(
        tuple(rng.choice(("MA", "MB")) for _ in range(rng.randint(1, MAX_WORD)))
        for _ in range(WORDS_PER_BATCH)
    )
    return Job("words", None, words)


def _run_words(ctx, job):
    out = []
    for letters in job.args:
        mat = rs.ProductWord.make(letters).matrix
        out.append((mat, rs.spectral_radius(mat), rs.spectral_norm(mat)))
    return out


def _check_words(ctx, job, out):
    for letters, (mat, rho, nrm) in zip(job.args, out):
        expect(mat.tolist() == int_product(letters), f"ProductWord {letters}: matrix")
        ref_norm = float(np.linalg.norm(mat.astype(np.float64), 2))
        expect(close(nrm, ref_norm), f"spectral_norm {letters}: {nrm} vs {ref_norm}")
        expect(close(rho, charpoly_radius(mat)), f"spectral_radius {letters}: {rho}")


NORMAL_FORMS_PER_BATCH = 28
NORMAL_FORM_ORDERS = (20, 40)


def _make_normal_forms(rng, _order):
    pairs = []
    for _ in range(NORMAL_FORMS_PER_BATCH):
        m = rng.randint(*NORMAL_FORM_ORDERS)
        pairs.append((m, 2 * rng.randrange(1 << (m - 1)) + 1))
    return Job("normal_forms", None, tuple(pairs))


def _run_normal_forms(ctx, job):
    return [(rs.normal_form(m, k), rs.v_product(m, k)) for m, k in job.args]


def _check_normal_forms(ctx, job, out):
    for (m, k), (form, vec) in zip(job.args, out):
        expect(len(form.letters) == m - 2, f"normal_form({m}, {k}): word length")
        expect(np.array_equal(form.reconstruct(), vec), f"normal_form({m}, {k}) != v_product")


# ---------------------------------------------------------------------------
# crosscheck kinds: verification routes at small orders
# ---------------------------------------------------------------------------

def _check_naive_aperiodic(ctx, job, out):
    expect(np.array_equal(out.values, rs.aperiodic_table_fast(job.order).values),
           f"aperiodic_table_naive({job.order}) != fast table")


def _check_naive_periodic(ctx, job, out):
    expect(np.array_equal(out.values, rs.periodic_table(job.order).values),
           f"periodic_table_naive({job.order}) != closed form")


def _report_check(cases: Callable[[int], int]):
    def check(ctx, job, out):
        expect(out.passed, f"{job.kind}({job.order}): not passed")
        expect(out.cases == cases(job.order), f"{job.kind}({job.order}): {out.cases} cases")
    return check


def _check_even_zero(ctx, job, out):
    m = job.order
    expect(out.passed, f"verify_even_zero({m}): {out.violations[:3]}")
    expect(out.checked == 2 * sum((1 << (j - 1)) - 1 for j in range(2, m + 1)),
           f"verify_even_zero({m}): {out.checked} shifts checked")


def _check_merit_l4(ctx, job, out):
    exact = rs.merit_factor(job.order)
    expect(exact == littlewood(job.order), f"merit_factor({job.order}) != Littlewood")
    expect(close(out, float(exact), 1e-9), f"merit_factor_l4({job.order}) = {out} vs {exact}")


def _make_v_direct(rng, m):
    return Job("v_direct", m, (m, odd_shifts(rng, m, 8)))


def _run_v_direct(ctx, job):
    m, shifts = job.args
    return [rs.v_direct(m, k) for k in shifts]


def _check_v_direct(ctx, job, out):
    m, shifts = job.args
    for k, vec in zip(shifts, out):
        expect(np.array_equal(vec, rs.v_product(m, k)), f"v_direct({m}, {k}) != v_product")


VERIFY_SUITES = ("recurrences", "lemma4", "theorem12", "decomposition", "lemma6", "remark1")


def _make_autocorr_check_cli(rng, m):
    kind = rng.choice(("aperiodic", "periodic"))
    return Job("autocorr_check_cli", m, ("autocorr", "--m", str(m), "--kind", kind, "--check"),
               odd_shifts(rng, m, 16))


def _check_merit_cli(ctx, job, rc):
    rows = read_csv(finish_cli(ctx, job, rc), "m,merit_factor")
    ref = [[str(m), f"{float(littlewood(m)):.12g}"] for m in range(1, job.order + 1)]
    expect(rows == ref, f"merit --m-max {job.order}: rows differ from Littlewood")


def _simple(kind: str, fn_name: str):
    """A job that calls ``rscorr.<fn_name>(order)``, or with no argument."""
    def make(rng, order):
        return Job(kind, order, () if order is None else (order,))

    def run(ctx, job):
        return getattr(rs, fn_name)(*job.args)
    return make, run


def _fixed_cli(kind: str, *argv):
    def make(rng, order):
        return Job(kind, order, argv if order is None else argv + ("--m-max", str(order)))
    return make


def _build_kinds() -> dict[str, Kind]:
    kinds = [
        # ladder
        Kind("table_sumsq", _make_table("table_sumsq"), _run_table_sumsq, _check_table_sumsq, _m),
        Kind("periodic", _make_table("periodic"), lambda c, j: rs.periodic_table(j.order),
             _check_periodic, _m),
        Kind("merit", *_simple("merit", "merit_factor"), _check_merit, _m),
        Kind("records", _make_table("records", 0), _run_records, _check_records, _m),
        Kind("rs_sequence", _make_rs_sequence, lambda c, j: rs.rs_sequence(j.order),
             _check_rs_sequence),
        Kind("autocorr_cli", _make_autocorr_cli, run_cli, _check_autocorr_cli, _m),
        Kind("plotdata_cli", _make_plotdata_cli, run_cli, _check_plotdata_cli, _m),
        Kind("gen_cli", _make_gen_cli, run_cli, _check_gen_cli),
        Kind("table_cli", _make_table_cli, run_cli, _check_table_cli, _m),
        # search
        Kind("bnb", *_simple("bnb", "bnb_bracket"), _check_bnb),
        Kind("polytope", *_simple("polytope", "invariant_polytope"), _check_polytope),
        Kind("jsr_cli", _fixed_cli("jsr_cli", "jsr", "--method", "polytope"), run_cli,
             _check_jsr_cli),
        Kind("power_bounds", *_simple("power_bounds", "verify_power_bounds"), _check_power_bounds),
        Kind("lemma4_cli", _fixed_cli("lemma4_cli", "verify", "lemma4"), run_cli,
             _check_verify_cli),
        Kind("conjugation", *_simple("conjugation", "conjugation_invariance_check"),
             _check_conjugation),
        Kind("irreducibility", *_simple("irreducibility", "irreducibility_check"),
             _check_irreducibility),
        Kind("words", _make_words, _run_words, _check_words),
        Kind("normal_forms", _make_normal_forms, _run_normal_forms, _check_normal_forms),
        # crosscheck
        Kind("naive_aperiodic", *_simple("naive_aperiodic", "aperiodic_table_naive"),
             _check_naive_aperiodic, _m),
        Kind("naive_periodic", *_simple("naive_periodic", "periodic_table_naive"),
             _check_naive_periodic, _m),
        Kind("verify_recurrences", *_simple("verify_recurrences", "verify_recurrences"),
             _report_check(lambda m: sum((1 << j) + 1 for j in range(m + 1))), _m),
        Kind("verify_periodic", *_simple("verify_periodic", "verify_periodic_formula"),
             _report_check(lambda m: (1 << (m + 1)) - 1), _m),
        Kind("verify_decomposition", *_simple("verify_decomposition", "verify_decomposition"),
             _report_check(lambda m: sum(1 << (j - 1) for j in range(3, m + 1))), _m),
        Kind("even_zero", *_simple("even_zero", "verify_even_zero"), _check_even_zero, _m),
        Kind("merit_l4", *_simple("merit_l4", "merit_factor_l4"), _check_merit_l4),
        Kind("v_direct", _make_v_direct, _run_v_direct, _check_v_direct, _m),
        Kind("autocorr_check_cli", _make_autocorr_check_cli, run_cli, _check_autocorr_cli, _m),
        Kind("merit_cli", _fixed_cli("merit_cli", "merit"), run_cli, _check_merit_cli, _m),
    ]
    for suite in VERIFY_SUITES:
        name = f"verify_{suite}_cli"
        builds_tables = suite in ("recurrences", "theorem12", "decomposition")
        kinds.append(Kind(name, _fixed_cli(name, "verify", suite), run_cli, _check_verify_cli,
                          _m if builds_tables else _no_table))
    return {k.name: k for k in kinds}


KINDS = _build_kinds()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

LADDER_ORDERS = tuple(range(16, 23))     # 23 and 24 join as one slot each below
LADDER_CLI_ORDERS = tuple(range(14, 19))
SEARCH_DEPTHS = tuple(range(8, 15)) + (16,)
SMALL_ORDERS = tuple(range(6, 13))

WORKLOADS = {
    "ladder": (
        [("table_sumsq", m) for m in LADDER_ORDERS + (24,)]
        + [("periodic", m) for m in LADDER_ORDERS + (23,)]
        + [("merit", m) for m in LADDER_ORDERS + (23,)]
        + [("records", m) for m in LADDER_ORDERS]
        + [("rs_sequence", m) for m in LADDER_ORDERS + (24,)]
        + [("table_cli", m) for m in LADDER_ORDERS]
        + [(k, m) for k in ("autocorr_cli", "plotdata_cli", "gen_cli") for m in LADDER_CLI_ORDERS]
    ),
    "search": (
        [("bnb", d) for d in SEARCH_DEPTHS]
        + [("conjugation", n) for n in range(4, 10)]
        + [(k, None) for k in ("polytope", "jsr_cli", "power_bounds", "lemma4_cli",
                               "irreducibility") for _ in range(2)]
        + [(k, None) for k in ("words", "normal_forms") for _ in range(25)]
    ),
    "crosscheck": (
        [(k, m) for k in ("naive_aperiodic", "naive_periodic", "verify_recurrences",
                          "verify_periodic", "verify_decomposition", "v_direct",
                          "autocorr_check_cli", "autocorr_check_cli", "merit_cli")
         for m in SMALL_ORDERS]
        + [("even_zero", m) for m in range(6, 17)]
        + [("merit_l4", m) for m in range(6, 11)]
        + [(f"verify_{s}_cli", m) for s in VERIFY_SUITES for m in SMALL_ORDERS]
    ),
}

#: Small inputs per kind for the untimed warm-up in set-up.
WARM_ORDER = {"bnb": 4, "conjugation": 2, "merit_l4": 3, "even_zero": 4}


def make_round(workload: str, rng) -> list[Job]:
    """One round of ``workload``: every slot once, in a seeded sequence."""
    jobs = [KINDS[kind].make(rng, order) for kind, order in WORKLOADS[workload]]
    rng.shuffle(jobs)
    return jobs


def warmup_jobs(workload: str, rng) -> list[Job]:
    """One small job of each kind in ``workload``, for set-up."""
    seen = {}
    for kind, order in WORKLOADS[workload]:
        if kind not in seen:
            seen[kind] = None if order is None else WARM_ORDER.get(kind, 6)
    return [KINDS[kind].make(rng, order) for kind, order in seen.items()]
