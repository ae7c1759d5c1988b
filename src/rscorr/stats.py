"""Merit factors, the sum-of-squares asymptotic and maximal-shift records.

The merit factor of an order-``m`` sequence is ``4^m / (2 sum_k C_m(k)^2)``
over positive shifts; for Rudin-Shapiro sequences it tends to 3, i.e. the
autocorrelation sum of squares is asymptotically ``4^m / 6``.  Exact
integer sums keep both quantities exact rationals, so their product is the
constant 3 with no rounding.  The maximal-shift scan records where
``|C_m(k)|`` peaks and how far that shift sits from the nearest integer to
``2^(m+1)/3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .autocorr import _odd_levels, _odd_peak, _sum_squares
from .recurrence import nearest_third
from .sequences import DEFAULT_MAX_ORDER, check_order, rs_sequence


def merit_factor(m: int, max_order: int = DEFAULT_MAX_ORDER) -> Fraction:
    """Exact merit factor ``4^m / (2 sum_{k>=1} C_m(k)^2)``."""
    check_order(m, max_order)
    if m < 1:
        raise ValueError("order must be >= 1")
    for odd in _odd_levels(m, max_order):
        pass
    return Fraction(4**m, 2 * _sum_squares(odd))


def merit_factor_series(
    m_max: int, max_order: int = DEFAULT_MAX_ORDER
) -> list[tuple[int, Fraction]]:
    """``(m, merit_factor(m))`` for ``m = 1..m_max`` from one table ladder
    (empty when ``m_max < 1``)."""
    if m_max < 1:
        return []
    return [
        (m, Fraction(4**m, 2 * _sum_squares(odd)))
        for m, odd in enumerate(_odd_levels(m_max, max_order))
        if m >= 1
    ]


def sum_squares_ratio(m: int, max_order: int = DEFAULT_MAX_ORDER) -> Fraction:
    """Exact ``(sum_{k>=1} C_m(k)^2) / (4^m / 6)``; equals ``3 / merit_factor``."""
    return 3 / merit_factor(m, max_order)


def merit_factor_l4(
    m: int, quadrature_points: Optional[int] = None, max_order: int = DEFAULT_MAX_ORDER
) -> float:
    """Merit factor from the fourth power mean of ``|q(e^(i theta))|``.

    ``q`` is sampled on the uniform grid ``theta_j = 2 pi j / npts`` by one
    zero-padded real FFT of the coefficients (any ``npts``, not only powers
    of two).  The coefficients are real, so ``|q|`` at ``theta_(npts-j)``
    mirrors ``theta_j``: the FFT's half grid ``j = 0..npts//2`` carries the
    mean, with weight 2 on every bin that has a mirror (all but ``j = 0``
    and, for even ``npts``, ``j = npts/2``).  The trapezoid rule on the full
    grid is exact for the trigonometric polynomial ``|q|^4`` once
    ``npts >= 4 * 2^m``, the required minimum, so the result agrees with
    :func:`merit_factor` to roundoff.
    """
    check_order(m, max_order)
    if m < 1:
        raise ValueError("order must be >= 1")
    n = 1 << m
    npts = quadrature_points if quadrature_points is not None else 8 * n
    if npts < 4 * n:
        raise ValueError(
            f"insufficient quadrature: need at least {4 * n} points for order {m}, got {npts}"
        )
    fourth = _fourth_powers(m, npts, max_order)
    # periodic trapezoid = plain mean over the full grid, where every bin
    # 1..(npts-1)//2 of the half grid also stands for its mirror
    fourth_power_mean = float(fourth.sum() + fourth[1 : (npts + 1) // 2].sum()) / npts
    return n * n / (fourth_power_mean - n * n)


def _fourth_powers(m: int, npts: int, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """``|q(e^(i theta_j))|^4`` on ``theta_j = 2 pi j / npts`` for
    ``j = 0..npts//2``, by one zero-padded real FFT."""
    coeffs = rs_sequence(m, max_order).terms.astype(np.float64)
    fourth = np.abs(np.fft.rfft(coeffs, npts))
    fourth **= 4
    return fourth


@dataclass(frozen=True)
class MaxShiftRecord:
    """Where ``|C_m(k)|`` (or ``C_m(k)`` when signed) is maximal."""

    m: int
    k_star: int
    value: int
    unique: bool
    ell: int        # nearest integer to 2^(m+1)/3
    abs_gap: int    # |k_star - ell|
    ratio: float    # k_star / ell

    def to_row(self) -> tuple:
        return (self.m, self.k_star, self.value, self.unique, self.ell, self.abs_gap, self.ratio)


def max_shift(m: int, signed: bool = False, max_order: int = DEFAULT_MAX_ORDER) -> MaxShiftRecord:
    """Scan the fast table for the maximal shift of one order."""
    check_order(m, max_order)
    if m < 1:
        raise ValueError("order must be >= 1")
    return conjecture_table(m, signed, max_order, m_min=m)[0]


def conjecture_table(
    m_max: int,
    signed: bool = False,
    max_order: int = DEFAULT_MAX_ORDER,
    m_min: int = 3,
) -> list[MaxShiftRecord]:
    """Maximal-shift records for ``m = m_min..m_max`` in one table pass.

    Ties are broken toward the smallest shift and flagged via ``unique``;
    every order through 16 is known to have a unique maximizer.
    """
    check_order(m_max, max_order)
    if m_min < 1 or m_max < m_min:
        raise ValueError("need 1 <= m_min <= m_max")
    out = []
    for m, odd in enumerate(_odd_levels(m_max, max_order)):
        if m >= m_min:
            k_star, value, unique = _odd_peak(odd, signed)
            ell = nearest_third(m)
            out.append(
                MaxShiftRecord(m, k_star, value, unique, ell, abs(k_star - ell), k_star / ell)
            )
    return out


def ratio_sequence(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> list[tuple[int, float]]:
    """``(m, 3 k*_m / 2^(m+1))`` for ``m = 3..m_max`` (conjecturally -> 1)."""
    return [
        (rec.m, 3.0 * rec.k_star / (1 << (rec.m + 1)))
        for rec in conjecture_table(m_max, max_order=max_order)
    ]


def exact_match_orders(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> list[int]:
    """Orders where the maximal shift lands exactly on the near-two-thirds shift."""
    return [rec.m for rec in conjecture_table(m_max, max_order=max_order) if rec.abs_gap == 0]
