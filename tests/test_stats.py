from fractions import Fraction

import numpy as np
import pytest

from rscorr import autocorr
from rscorr.autocorr import aperiodic_table_fast, iter_aperiodic_tables
from rscorr.recurrence import nearest_third
from rscorr.sequences import shapiro_eval
from rscorr.stats import (
    MaxShiftRecord,
    _fourth_powers,
    conjecture_table,
    exact_match_orders,
    max_shift,
    merit_factor,
    merit_factor_l4,
    merit_factor_series,
    ratio_sequence,
    sum_squares_ratio,
)

# Maximal-shift gaps |k* - ell| for m = 3..16, verified against the direct
# O(4^m) correlation oracle (see the acceptance suite for the m = 15 check).
TRUE_GAPS = (2, 0, 8, 0, 34, 2, 22, 8, 0, 34, 86, 136, 8, 0)


def test_merit_factor_small_orders():
    assert merit_factor(1) == Fraction(2)
    assert merit_factor(2) == Fraction(4)
    assert isinstance(merit_factor(5), Fraction)
    with pytest.raises(ValueError):
        merit_factor(0)


def test_merit_factor_series_matches_single_orders():
    assert merit_factor_series(9) == [(m, merit_factor(m)) for m in range(1, 10)]
    assert merit_factor_series(0) == merit_factor_series(-2) == []


def test_merit_factor_approaches_three():
    assert abs(float(merit_factor(10)) - 3) < 0.3


def test_sum_squares_ratio():
    assert sum_squares_ratio(2) == Fraction(3, 4)
    assert abs(float(sum_squares_ratio(16)) - 1) < 0.1


def test_exact_identity():
    for m in range(1, 15):
        assert sum_squares_ratio(m) * merit_factor(m) == 3


def test_merit_trend():
    errs = [abs(float(merit_factor(m)) - 3) for m in range(8, 17)]
    assert all(e < 0.5 for e in errs)
    assert all(a >= b for a, b in zip(errs, errs[1:]))  # non-strict decrease


def test_merit_factor_l4_matches_exact():
    for m in range(1, 9):
        exact = float(merit_factor(m))
        quad = merit_factor_l4(m, 1 << (m + 3))
        assert abs(quad - exact) <= 1e-6 * exact, m


def test_merit_factor_l4_default_points():
    assert merit_factor_l4(3) == pytest.approx(float(merit_factor(3)), rel=1e-9)


@pytest.mark.parametrize("extra_points", [None, 3])
def test_merit_factor_l4_fft_matches_exact(extra_points):
    # default 8N grid, and a 4N + 3 grid that is not a power of two
    for m in range(1, 21):
        npts = None if extra_points is None else 4 * (1 << m) + extra_points
        exact = float(merit_factor(m))
        assert merit_factor_l4(m, npts) == pytest.approx(exact, rel=1e-12), m


def test_fourth_powers_match_dense_eval():
    # the real FFT's half grid j = 0..npts//2 against the dense direct sum
    # at the same angles; |q| has exact zeros on some grids, so the
    # tolerance is relative to the peak
    for m in range(1, 10):
        for npts in (4 << m, (4 << m) + 3, 8 << m):
            theta = 2.0 * np.pi * np.arange(npts // 2 + 1) / npts
            dense = np.abs(shapiro_eval(m, theta)) ** 4
            got = _fourth_powers(m, npts)
            np.testing.assert_allclose(got, dense, rtol=1e-9, atol=1e-9 * dense.max())


def test_littlewood_closed_form_exact():
    # F_m = 3 / (1 - (-1/2)^m) (Littlewood 1968), as exact rationals
    series = merit_factor_series(22)
    assert [m for m, _ in series] == list(range(1, 23))
    for m, merit in series:
        assert merit == 3 / (1 - Fraction(-1, 2) ** m), m


def test_merit_factor_l4_insufficient_quadrature():
    with pytest.raises(ValueError, match="insufficient quadrature"):
        merit_factor_l4(5, 100)


def test_max_shift_records():
    rec = max_shift(3)
    assert (rec.k_star, rec.value, rec.unique) == (3, 3, True)
    assert (rec.ell, rec.abs_gap) == (5, 2)
    assert rec.ratio == pytest.approx(0.6)
    rec = max_shift(4)
    assert (rec.k_star, rec.value, rec.abs_gap, rec.ratio) == (11, -5, 0, 1.0)
    rec = max_shift(8)
    assert rec.abs_gap == 2
    assert rec.ratio == pytest.approx(173 / 171)


def test_max_shift_signed_mode():
    for m in (3, 4, 6):
        rec = max_shift(m, signed=True)
        table = aperiodic_table_fast(m)
        assert rec.value == int(np.max(table.values[1 : 1 << m]))


def test_conjecture_table():
    records = conjecture_table(16)
    assert [r.m for r in records] == list(range(3, 17))
    assert tuple(r.abs_gap for r in records) == TRUE_GAPS
    assert all(r.unique for r in records)
    assert all(r.k_star % 2 == 1 for r in records)
    assert all(1 <= r.k_star < (1 << r.m) for r in records)


def test_ratio_sequence():
    ratios = dict(ratio_sequence(5))
    assert ratios[3] == pytest.approx(9 / 16)
    assert ratios[4] == pytest.approx(33 / 32)


def test_ratio_sequence_at_exact_match():
    # gap is 0 at order 16, so the ratio is 3 * nearest_third(16) / 2^17
    ratios = dict(ratio_sequence(16))
    assert ratios[16] == pytest.approx(3 * 43691 / (1 << 17))


def test_exact_match_orders():
    assert exact_match_orders(16) == [4, 6, 11, 16]


def test_validation():
    with pytest.raises(ValueError):
        max_shift(0)
    with pytest.raises(ValueError):
        conjecture_table(2)


def _record_from_values(m, values, signed):
    """Full-table reference: the scan over ``values[1:2^m]`` that the compact
    records replace (smallest maximising shift, ``unique`` flag)."""
    body = values[1 : 1 << m] if m >= 1 else values[1:]
    key = body if signed else np.abs(body)
    peak = int(np.max(key))
    k_star = int(np.argmax(key)) + 1
    unique = int(np.sum(key == peak)) == 1
    ell = nearest_third(m)
    return MaxShiftRecord(
        m, k_star, int(values[k_star]), unique, ell, abs(k_star - ell), k_star / ell
    )


@pytest.mark.parametrize("signed", [False, True])
def test_compact_records_match_full_table_scan(signed):
    expected = [
        _record_from_values(t.m, t.values, signed) for t in iter_aperiodic_tables(20) if t.m >= 1
    ]
    assert conjecture_table(20, signed, m_min=1) == expected
    assert conjecture_table(20, signed) == expected[2:]
    assert max_shift(20, signed) == expected[-1]


def test_compact_peak_ties_and_negative_levels():
    # hand-built levels with many ties, and all-negative ones where the even
    # shifts' zeros win a signed scan
    rng = np.random.default_rng(5)
    levels = [[-1], [-3, -1], [-1, -3], [3, -3], [-3, 3], [1, -1, 3, -3], [-5, -3, -5, -1]]
    levels += [rng.choice([-5, -3, -1, 1, 3, 5], size=1 << (m - 1)).tolist()
               for m in range(1, 8) for _ in range(40)]
    for level in levels:
        odd = np.array(level, dtype=np.int64)
        m = odd.size.bit_length()
        values = autocorr._full_table(m, odd).values
        for signed in (False, True):
            ref = _record_from_values(m, values, signed)
            assert autocorr._odd_peak(odd, signed) == (ref.k_star, ref.value, ref.unique), (
                level, signed)
