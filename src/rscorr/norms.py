"""Floating-point norm and eigenstructure layer for the two-letter products.

The growth rate of the recurrence is the real root ``lam = 1.6589...`` of
``x^3 + x^2 - 2x - 4``; the other two roots ``nu, conj(nu)`` are complex
with ``|nu| = sqrt(4/lam) < lam``.  This module computes spectral and
Frobenius norms of exact integer products ``MA^j MB^k``, sweeps the
inequality ``||MA^j MB^k|| <= 0.970 lam^(j+k)`` (with its lone exception
``j = k = 1``), reconstructs integer matrix powers from the closed-form
eigendecompositions, and derives the table-level growth diagnostics.

Spectral norms, inverses and the symmetric eigenvalues of the
letter-domination test come from LAPACK (``np.linalg``); the growth
constants come from the characteristic cubic in ``cubic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autocorr import _abs_peak, _odd_levels
from .cubic import real_cubic_root
from .recurrence import MA, MB, REVERSAL, STEP, SWAP
from .sequences import DEFAULT_MAX_ORDER, check_order

AM = SWAP @ STEP
AM.setflags(write=False)

_LOWER_SEED = np.array([-1, 1, 1], dtype=np.int64)
_LOWER_SEED.setflags(write=False)


def spectral_norm(mat) -> float:
    """Largest singular value (2-norm) of a real 3x3 matrix."""
    a = np.asarray(mat, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def frobenius_norm(mat) -> float:
    """Square root of the sum of squared entries; exact accumulation for ints."""
    a = np.asarray(mat)
    if np.issubdtype(a.dtype, np.integer):
        total = int(sum(int(x) * int(x) for x in a.ravel()))
        return math.sqrt(total)
    return float(math.sqrt(np.sum(np.asarray(a, np.float64) ** 2)))


def _mb_power(k: int) -> np.ndarray:
    """Exact ``MB^k``; for ``k >= 2`` only the sign alternates, so reduce to 2."""
    if k == 0:
        return np.eye(3, dtype=np.int64)
    return np.linalg.matrix_power(MB, 1 if k == 1 else 2)


def power_product(j: int, k: int) -> np.ndarray:
    """Exact integer ``MA^j MB^k`` with ``MB^k`` reduced by sign-periodicity."""
    if j < 0 or k < 0 or j + k < 1:
        raise ValueError("need j, k >= 0 with j + k >= 1")
    return np.linalg.matrix_power(MA, j) @ _mb_power(k)


def power_product_norm(j: int, k: int) -> float:
    """``||MA^j MB^k||`` (2-norm); the sign-reduction leaves it unchanged."""
    return spectral_norm(power_product(j, k))


@dataclass(frozen=True)
class SpectralConstants:
    """Roots of ``x^3 + x^2 - 2x - 4`` and derived quantities."""

    lam: float          # real root, 1.6589...
    nu: complex         # complex root with negative imaginary part
    gamma: complex      # (lam - conj(nu)) (lam - nu) (conj(nu) - nu); |gamma|^2 = 236
    a_coeff: complex    # leading-term coefficient in the growth expansion


@lru_cache(maxsize=1)
def eigen_constants() -> SpectralConstants:
    """Solve the characteristic cubic by bracketed bisection plus deflation."""
    lam = real_cubic_root(1.0, -2.0, -4.0, lo=1.0, hi=2.0)
    pair_sum = -1.0 - lam          # root sum is -1
    pair_prod = 4.0 / lam          # root product is 4
    disc = pair_sum * pair_sum - 4.0 * pair_prod
    nu = complex(0.5 * pair_sum, -0.5 * math.sqrt(-disc))
    gamma = (lam - nu.conjugate()) * (lam - nu) * (nu.conjugate() - nu)
    a_coeff = -2.0 * nu.real * (2.0 * nu.real + abs(nu) ** 2 - 1.0) / gamma
    if a_coeff == 0:
        raise ArithmeticError("leading growth coefficient vanished")
    return SpectralConstants(lam, nu, gamma, a_coeff)


# ---------------------------------------------------------------------------
# bound sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCase:
    """One inequality check; ``margin`` is signed so that passing always
    means ``margin >= -tolerance`` (slack toward the required side)."""

    kind: str
    j: int
    k: int
    norm: float
    bound: float
    margin: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "j": self.j,
            "k": self.k,
            "norm": self.norm,
            "bound": self.bound,
            "margin": self.margin,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class BoundReport:
    tolerance: float
    cases: tuple[BoundCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def failures(self) -> list[BoundCase]:
        return [c for c in self.cases if not c.passed]

    def to_dict(self) -> dict:
        return {
            "check": "power-product-bounds",
            "tolerance": self.tolerance,
            "cases": [c.to_dict() for c in sorted(self.cases, key=lambda c: (c.kind, c.j, c.k))],
            "passed": self.passed,
        }


def verify_power_bounds(tolerance: float = 1e-9) -> BoundReport:
    """Sweep the product-norm constants.

    Checks, with an additive safety tolerance on the stated side:

    * ``||MA^j MB^k|| <= 0.970 lam^(j+k)`` for ``2 <= j <= 21``, ``k in {1, 2}``
      and for ``(j, k) = (1, 2)``;
    * the lone exception ``lam^2 < ||MA MB|| <= 1.028 lam^2``;
    * ``||(MA MB)^2|| <= lam^4``;
    * the tail criterion ``||W / lam||_F <= 0.970`` at ``j = 22`` where
      ``W = MA^j MB^k / (-lam)^j``;
    * the two scalar estimates feeding the tail bound: ``|nu / lam| <= 0.936``
      and the bracketed amplitudes ``<= 7.461``.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    consts = eigen_constants()
    lam, nu = consts.lam, consts.nu
    cases = []

    def add(kind, j, k, norm, bound, lower=False):
        margin = (norm - bound) if lower else (bound - norm)
        cases.append(BoundCase(kind, j, k, norm, bound, margin, margin >= -tolerance))

    sweep = [(j, k) for j in range(2, 22) for k in (1, 2)] + [(1, 2)]
    for j, k in sweep:
        add("upper-0.970", j, k, power_product_norm(j, k), 0.970 * lam ** (j + k))

    nrm = power_product_norm(1, 1)
    add("mamb-lower", 1, 1, nrm, lam**2, lower=True)
    add("mamb-upper", 1, 1, nrm, 1.028 * lam**2)

    add("mamb-squared", 2, 2, spectral_norm(np.linalg.matrix_power(MA @ MB, 2)), lam**4)

    for k in (1, 2):
        j = 22
        w = power_product(j, k).astype(np.float64) / (-lam) ** j
        add("frobenius-tail", j, k, frobenius_norm(w / lam), 0.970)

    add("nu-over-lam", 0, 0, abs(nu) / lam, 0.936)
    add("amplitude", 0, 1, abs((nu - lam) * (nu + lam + 1.0)), 7.461)
    add("amplitude", 0, 2, abs((nu - lam) * (nu + lam + 1.0 + (2.0 + nu * lam))), 7.461)

    return BoundReport(tolerance, tuple(cases))


# ---------------------------------------------------------------------------
# closed-form diagonalizations
# ---------------------------------------------------------------------------

def _diagonalization(which: str):
    """Closed-form eigenvector matrix and eigenvalues for MA, STEP or AM.

    The inverse is taken numerically from the eigenvector matrix rather
    than from a printed closed form: ``p`` fixes the sign branch of
    ``gamma = sqrt(-236)`` unambiguously, whatever method inverts it.
    """
    consts = eigen_constants()
    lam, nu = consts.lam, consts.nu
    nub = nu.conjugate()
    if which == "MA":
        p = np.array(
            [[2 - lam**2, 2 - nub**2, 2 - nu**2], [-lam, -nub, -nu], [1, 1, 1]],
            dtype=complex,
        )
        eigs = np.array([-lam, -nub, -nu], dtype=complex)
        base = MA
    elif which == "M":
        p = np.array(
            [[lam, nu, nub], [lam**2 - 2, nu**2 - 2, nub**2 - 2], [1, 1, 1]],
            dtype=complex,
        )
        eigs = np.array([lam, nu, nub], dtype=complex)
        base = STEP
    elif which == "AM":
        p = np.array(
            [[-lam, -nub, -nu], [2 - lam**2, 2 - nub**2, 2 - nu**2], [1, 1, 1]],
            dtype=complex,
        )
        eigs = np.array([-lam, -nub, -nu], dtype=complex)
        base = AM
    else:
        raise ValueError(f"unknown matrix name {which!r} (expected MA, M or AM)")
    return base, p, eigs, np.linalg.inv(p)


def diagonalization_residual(which: str, j: int) -> float:
    """Max-entry gap between the exact integer power and its eigendecomposition."""
    if not 1 <= j <= 30:
        raise ValueError("power must be between 1 and 30")
    base, p, eigs, pinv = _diagonalization(which)
    exact = np.linalg.matrix_power(base, j).astype(complex)
    rebuilt = (p * (eigs**j)) @ pinv
    return float(np.max(np.abs(rebuilt - exact)))


# ---------------------------------------------------------------------------
# growth diagnostics
# ---------------------------------------------------------------------------

def lower_bound_value(m: int, max_order: int = DEFAULT_MAX_ORDER) -> int:
    """Exact first component of ``AM^(m-2) @ (-1, 1, 1)``.

    Equals the aperiodic autocorrelation at the shift nearest ``2^(m+1)/3``,
    which is odd and hence never zero.
    """
    check_order(m, max_order)
    if m < 3:
        raise ValueError("order must be >= 3")
    return int((np.linalg.matrix_power(AM, m - 2) @ _LOWER_SEED)[0])


def max_ratio(m: int, max_order: int = DEFAULT_MAX_ORDER) -> float:
    """``max_{k != 0} |C_m(k)| / lam^m`` from the fast table."""
    return max_ratios(m, max_order)[-1][1]


def max_ratios(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> list[tuple[int, float]]:
    """One table pass yielding ``(m, max ratio)`` for ``m = 1..m_max``."""
    check_order(m_max, max_order)
    lam = eigen_constants().lam
    out = []
    for m, odd in enumerate(_odd_levels(m_max, max_order)):
        if m >= 1:
            out.append((m, _abs_peak(odd) / lam**m))
    return out


def lower_bound_ratios(m_max: int) -> list[tuple[int, float]]:
    """``(m, |AM^(m-2) (-1,1,1)|_1 / lam^m)`` for ``m = 3..m_max``."""
    lam = eigen_constants().lam
    out = []
    acc = np.linalg.matrix_power(AM, 1)
    for m in range(3, m_max + 1):
        out.append((m, abs(int((acc @ _LOWER_SEED)[0])) / lam**m))
        acc = AM @ acc
    return out


def katz_constant() -> float:
    """``5 / lam^4``: the sharp upper constant for the max-ratio sweep (~0.6601)."""
    return 5.0 / eigen_constants().lam ** 4


# ---------------------------------------------------------------------------
# structural side reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugationReport:
    """Reversal-conjugation invariance of the two-letter alphabet."""

    involution: bool
    isometry: bool
    words_checked: int
    max_norm_gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.involution and self.isometry and self.max_norm_gap <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "check": "reversal-conjugation",
            "involution": self.involution,
            "isometry": self.isometry,
            "words_checked": self.words_checked,
            "max_norm_gap": self.max_norm_gap,
            "tolerance": self.tolerance,
            "conjugated_MA": (REVERSAL @ MA @ REVERSAL).tolist(),
            "conjugated_MB": (REVERSAL @ MB @ REVERSAL).tolist(),
            "passed": self.passed,
        }


def conjugation_invariance_check(
    max_len: int = 6, tolerance: float = 1e-9
) -> ConjugationReport:
    """Exhaustively compare ``||R W R||`` with ``||W||`` for short letter words.

    ``R`` is the reversal permutation; it is an involution isometry, so the
    conjugated alphabet generates products identical in norm.
    """
    involution = bool(np.array_equal(REVERSAL @ REVERSAL, np.eye(3, dtype=np.int64)))
    isometry = bool(np.array_equal(REVERSAL.T @ REVERSAL, np.eye(3, dtype=np.int64)))
    gap = 0.0
    count = 0
    for length in range(1, max_len + 1):
        for bits in range(1 << length):
            w = np.eye(3, dtype=np.int64)
            for pos in range(length):
                w = w @ (MA if (bits >> pos) & 1 else MB)
            count += 1
            gap = max(gap, abs(spectral_norm(REVERSAL @ w @ REVERSAL) - spectral_norm(w)))
    return ConjugationReport(involution, isometry, count, gap, tolerance)


@dataclass(frozen=True)
class LetterDominationReport:
    """Pointwise comparison of ``||MB v||`` with ``||MA v||``.

    Acting on row vectors (equivalently, comparing ``MA^T``/``MB^T`` on
    columns) the MA image is never shorter: ``MA MA^T - MB MB^T`` is positive
    semidefinite.  Acting on column vectors the claim is false; the report
    carries an exact counterexample.
    """

    samples: int
    row_violations: int
    column_violations: int
    transpose_gram_psd: bool
    column_counterexample: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.row_violations == 0 and self.transpose_gram_psd

    def to_dict(self) -> dict:
        return {
            "check": "letter-norm-domination",
            "samples": self.samples,
            "row_violations": self.row_violations,
            "column_violations": self.column_violations,
            "transpose_gram_psd": self.transpose_gram_psd,
            "column_counterexample": list(self.column_counterexample),
            "passed": self.passed,
        }


def letter_domination_report(samples: int = 1000, seed: int = 0) -> LetterDominationReport:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(samples, 3))
    row_bad = int(np.sum(
        np.linalg.norm(v @ MB, axis=1) > np.linalg.norm(v @ MA, axis=1) + 1e-12
    ))
    col_bad = int(np.sum(
        np.linalg.norm(v @ MB.T, axis=1) > np.linalg.norm(v @ MA.T, axis=1) + 1e-12
    ))
    diff = (MA @ MA.T - MB @ MB.T).astype(np.float64)
    psd = bool(np.linalg.eigvalsh(diff)[0] >= -1e-12)
    # MB e2 = (1, -1, 0) has norm sqrt(2) while MA e2 = (0, 0, 1) has norm 1
    return LetterDominationReport(samples, row_bad, col_bad, psd, (0.0, 1.0, 0.0))
