import io

import numpy as np
import pytest

from rscorr import autocorr
from rscorr.autocorr import (
    AutocorrTable,
    aperiodic_naive,
    aperiodic_table_fast,
    aperiodic_table_naive,
    iter_aperiodic_tables,
    iter_table_pairs,
    periodic_naive,
    periodic_table,
    periodic_table_naive,
    verify_even_zero,
)
from rscorr.cli import main
from rscorr.recurrence import v_product
from rscorr.sequences import OrderTooLargeError, rs_sequence

EXAMPLE = [-1, 1, 1, -1]


def test_worked_example_aperiodic():
    # (-1) + (-1) = -2 at shift 2
    assert aperiodic_naive(EXAMPLE, 2) == -2


def test_worked_example_periodic():
    # four aligned products, all -1
    assert periodic_naive(EXAMPLE, 2) == -4


def test_zero_shift_is_length():
    rng = np.random.default_rng(0)
    for n in (1, 4, 9, 16):
        s = rng.choice([-1, 1], size=n)
        assert aperiodic_naive(s, 0) == n
        assert periodic_naive(s, 0) == n


def test_periodic_naive_wraps_any_shift():
    # k is taken mod n, negative shifts included; np.roll is the reference
    for m in (0, 1, 5):
        s = np.asarray(rs_sequence(m), dtype=np.int64)
        n = s.size
        for k in range(-2 * n - 1, 2 * n + 2):
            assert periodic_naive(s, k) == int(np.dot(s, np.roll(s, -(k % n)))), (m, k)


def test_shift_past_length_vanishes():
    assert aperiodic_naive(EXAMPLE, 4) == 0
    assert aperiodic_naive(EXAMPLE, 100) == 0
    with pytest.raises(ValueError):
        aperiodic_naive(EXAMPLE, -1)


def test_rs3_hand_values():
    s3 = rs_sequence(3)
    # s0 s3 + s1 s4 + s2 s5 + s3 s6 + s4 s7 = -1 + 1 + 1 + 1 + 1
    assert aperiodic_naive(s3, 3) == 3
    # periodic value = C(3) + C(5)
    assert periodic_naive(s3, 3) == aperiodic_naive(s3, 3) + aperiodic_naive(s3, 5)
    assert periodic_naive(s3, 3) == 4


def test_naive_tables_against_numpy_correlate():
    # independent route: full sliding correlation in one call
    for m in range(9):
        s = rs_sequence(m).terms.astype(np.int64)
        n = 1 << m
        full = np.correlate(s, s, "full")[n - 1 :]
        table = aperiodic_table_naive(m)
        assert table.values[:n].tolist() == full.tolist()
        assert table[n] == 0


def test_fast_equals_naive_small():
    for m in range(11):
        fast = aperiodic_table_fast(m)
        assert np.array_equal(fast.values, aperiodic_table_naive(m).values), m
        per = periodic_table(m)
        assert np.array_equal(per.values, periodic_table_naive(m).values), m


def test_table_invariants():
    for m in range(2, 11):
        n = 1 << m
        ap = aperiodic_table_fast(m)
        pe = periodic_table(m)
        assert ap[0] == n and pe[0] == n
        assert ap[n] == 0
        assert np.all(ap.values[2:n:2] == 0)
        assert np.all(pe.values[2:n:2] == 0)
        assert np.max(np.abs(ap.values)) <= n
        assert np.max(np.abs(pe.values)) <= n
        ks = np.arange(1, n)
        assert np.array_equal(pe.values[ks], pe.values[n - ks])  # symmetry


def test_periodic_is_sum_of_two_aperiodic():
    for m in range(1, 11):
        n = 1 << m
        ap = aperiodic_table_fast(m).values
        pe = periodic_table(m).values
        for k in range(n):
            assert pe[k] == ap[k] + ap[n - k], (m, k)


def test_known_extreme_entry():
    assert aperiodic_table_fast(4)[11] == -5


def test_frozen_order3_table():
    # naive oracle values for the published 8-term sequence
    assert aperiodic_table_fast(3).values.tolist() == [8, -1, 0, 3, 0, 1, 0, 1, 0]


def test_periodic_structural_values():
    assert periodic_table(3)[1] == 0  # first-quarter shift
    assert periodic_table(3)[3] == 4  # 4 * C_1(1)
    assert periodic_table(4)[8] == 0  # even shift


def test_verify_even_zero():
    report = verify_even_zero(12)
    assert report.passed
    assert report.violations == ()
    assert report.checked > 0
    assert report.to_dict()["passed"] is True


def test_sum_squares_exact():
    assert aperiodic_table_fast(2).sum_squares() == 2
    for m in range(1, 10):
        table = aperiodic_table_fast(m)
        expected = sum(int(v) ** 2 for v in aperiodic_table_naive(m).values[1:])
        assert table.sum_squares() == expected
        assert isinstance(table.sum_squares(), int)


@pytest.mark.parametrize("big", [
    3_037_000_500,  # one square alone exceeds 2^63
    3_000_000_000,  # each square fits, their sum does not
])
def test_sum_squares_past_int64_bound(big):
    vals = [4, big, -big, big, -1]
    table = AutocorrTable(2, "aperiodic", np.array(vals, dtype=np.int64))
    total = table.sum_squares()
    assert isinstance(total, int)
    assert total == sum(v * v for v in vals[1:])
    assert total >= 1 << 63


def test_slice_step_against_v_product():
    m = 20
    n = 1 << m
    prev, top = [t for t in iter_aperiodic_tables(m) if t.m >= m - 1]
    q = n >> 2
    rng = np.random.default_rng(20)
    edges = [1, q - 1, q + 1, 2 * q - 1]  # with their mirrors: both ends of each quarter
    for k in edges + (2 * rng.integers(0, n // 2, size=64) + 1).tolist():
        for shift in (k, n - k):
            k_prev = shift if shift <= n >> 1 else n - shift
            direct = [top[shift], top[n - shift], prev[k_prev]]
            assert direct == v_product(m, shift).tolist(), shift


def test_table_pairs_match_single_calls():
    for ap, pe in iter_table_pairs(9):
        assert ap.m == pe.m
        assert np.array_equal(ap.values, aperiodic_table_fast(ap.m).values)
        assert np.array_equal(pe.values, periodic_table(pe.m).values)


def test_memory_guard_raises_before_allocating(monkeypatch, capsys):
    monkeypatch.setattr(autocorr, "_mem_available", lambda: 1 << 20)
    with pytest.raises(OrderTooLargeError, match=str(autocorr._ladder_bytes(20))):
        next(iter_aperiodic_tables(20))
    with pytest.raises(OrderTooLargeError, match="periodic table of order 20"):
        periodic_table(20)
    assert main(["table", "--m-max", "20"]) == 2
    assert "bytes" in capsys.readouterr().err
    # small orders fit, and an unknown budget never blocks
    assert aperiodic_table_fast(10)[0] == 1024
    monkeypatch.setattr(autocorr, "_mem_available", lambda: None)
    assert aperiodic_table_fast(17)[0] == 1 << 17


def test_ladder_estimate():
    # levels m-2, m-1 and m alive together: 1.75 * 8 * 2^m bytes plus the +1 entries
    assert autocorr._ladder_bytes(24) == 14 * (1 << 24) + 24
    assert autocorr._ladder_bytes(30) > 8 << 30


def test_csv_export():
    table = aperiodic_table_fast(3)
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == "k,value"
    assert lines[1] == "0,8"
    assert lines[4] == "3,3"
    assert len(lines) == 10
    assert table.default_filename == "C_3.csv"
    assert periodic_table(3).default_filename == "P_3.csv"
    buf = io.StringIO()
    assert table.to_csv(buf) is None
    assert buf.getvalue() == text


def test_iter_tables_matches_single_calls():
    tables = list(iter_aperiodic_tables(8))
    assert [t.m for t in tables] == list(range(9))
    for t in tables:
        assert np.array_equal(t.values, aperiodic_table_fast(t.m).values)


def test_table_type_validation():
    with pytest.raises(ValueError):
        AutocorrTable(2, "aperiodic", np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        AutocorrTable(2, "weird", np.zeros(5, dtype=np.int64))
    with pytest.raises(OrderTooLargeError):
        aperiodic_table_fast(31)
