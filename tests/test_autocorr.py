import io
import tracemalloc

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
from rscorr.stats import merit_factor

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
    estimate = autocorr._PEAK_UNITS["the aperiodic tables"] << 20
    with pytest.raises(OrderTooLargeError, match=f"the aperiodic tables of order 20 .* {estimate} "):
        next(iter_aperiodic_tables(20))
    with pytest.raises(OrderTooLargeError, match="the aperiodic table of order 20"):
        aperiodic_table_fast(20)
    with pytest.raises(OrderTooLargeError, match="periodic table of order 20"):
        periodic_table(20)
    with pytest.raises(OrderTooLargeError, match="the table pairs of order 20"):
        next(iter_table_pairs(20))
    with pytest.raises(OrderTooLargeError, match="the aperiodic ladder of order 20"):
        merit_factor(20)
    assert main(["table", "--m-max", "20"]) == 2
    assert "bytes" in capsys.readouterr().err
    # small orders fit, and an unknown budget never blocks
    assert aperiodic_table_fast(10)[0] == 1024
    monkeypatch.setattr(autocorr, "_mem_available", lambda: None)
    assert aperiodic_table_fast(17)[0] == 1 << 17


def test_ladder_estimate():
    # each estimate is the sum of the arrays its builder holds at the peak:
    # compact levels m-2, m-1, m and full tables of order m (m-1 for the one
    # a for loop still holds), up to the one extra entry of an aperiodic table
    m = 10
    levels = [level.nbytes for level in autocorr._odd_levels(m)]
    ap = aperiodic_table_fast(m).values.nbytes
    ap_prev = aperiodic_table_fast(m - 1).values.nbytes
    pe = periodic_table(m).values.nbytes
    pe_prev = periodic_table(m - 1).values.nbytes
    held = {
        "the aperiodic ladder": sum(levels[-3:]),
        "the aperiodic table": sum(levels[-3:-1]) + ap - 8,
        "the aperiodic tables": sum(levels[-2:]) + ap + ap_prev - 16,
        "the periodic table": levels[-3] + pe,
        "the table pairs": sum(levels[-3:]) + ap + pe + ap_prev + pe_prev - 16,
    }
    assert held == {builder: units * (1 << m) for builder, units in autocorr._PEAK_UNITS.items()}


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


def test_compact_levels_are_the_odd_shifts():
    for m, level in enumerate(autocorr._odd_levels(12)):
        n = 1 << m
        table = aperiodic_table_naive(m).values
        assert level.dtype == np.int32 and level.size == n >> 1
        assert np.array_equal(level, table[1:n:2]), m
        assert np.all(level % 2 == 1)  # odd, hence never zero


def test_compact_sum_squares_switches_at_int64_bound(monkeypatch):
    # per chunk: size * max|v|^2 < 2^63 takes the int64 dot, anything from
    # 2^63 on takes Python ints, even where the exact total would still fit
    calls = []
    dot = np.dot
    monkeypatch.setattr(autocorr.np, "dot", lambda a, b: calls.append(a.size) or dot(a, b))
    chunk = autocorr._SUM_CHUNK
    two_chunks = [1] * chunk + [-(1 << 31), 3]  # only the second chunk crosses the bound
    for level, dotted in (
        ([(1 << 31) - 1, -((1 << 31) - 1)], [2]),  # 2 * (2^31 - 1)^2 < 2^63
        ([1 << 31, -((1 << 31) - 1)], []),  # 2 * (2^31)^2 == 2^63
        ([3, 3_037_000_500, -1], []),  # one square alone exceeds 2^63
        (two_chunks, [chunk]),
        ([], []),
    ):
        calls.clear()
        total = autocorr._sum_squares(np.array(level, dtype=np.int64))
        assert isinstance(total, int)
        assert total == sum(v * v for v in level)
        assert calls == dotted, level[-3:]


def _naive_int64(m, kind):
    seq = rs_sequence(m).terms.astype(np.int64)
    n = seq.size
    if kind == "aperiodic":
        return [int(np.dot(seq[: n - k], seq[k:])) for k in range(n)] + [0]
    return [int(np.dot(seq, np.roll(seq, -k))) for k in range(n)]


def test_float64_oracle_matches_int64_reference():
    for m in range(13):
        assert aperiodic_table_naive(m).values.tolist() == _naive_int64(m, "aperiodic"), m
        assert periodic_table_naive(m).values.tolist() == _naive_int64(m, "periodic"), m


@pytest.mark.parametrize("m", range(13))
def test_blocked_oracle_against_numpy_correlate(m):
    # The oracle multiplies an R x L view of the sequence by 2R x L views of
    # its padded copy, L = 2^ceil(m/2).  Edge layouts: m = 0 and 1 have one
    # row (R = 1), even m has L = R and odd m has L = 2R.
    s = rs_sequence(m).terms.astype(np.int64)
    n = s.size
    aperiodic = np.correlate(s, s, "full")[n - 1 :].tolist() + [0]
    periodic = np.correlate(np.concatenate((s, s)), s, "valid")[:n].tolist()
    assert aperiodic_table_naive(m).values.tolist() == aperiodic
    assert periodic_table_naive(m).values.tolist() == periodic


def test_oracle_peak_memory_at_order_12():
    for build in (aperiodic_table_naive, periodic_table_naive):
        build(12)
        tracemalloc.start()
        try:
            build(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (build.__name__, peak)


def _csv_fstrings(values, header, first=0, absolute=False):
    rows = [f"{k},{abs(v) if absolute else v}\n" for k, v in enumerate(values.tolist(), first)]
    return "".join([header] + rows)


@pytest.mark.parametrize("m", range(18))
def test_csv_bytes_match_fstring_rendering(m):
    # orders 16 and 17 cross the 65,536-row chunk boundary
    for table in (aperiodic_table_fast(m), periodic_table(m)):
        assert table.to_csv() == _csv_fstrings(table.values, "k,value\n"), (table.kind, m)


def _csv_percent(values, first=0, absolute=False):
    """The former ``_csv_rows``: one ``%`` operation per chunk, the reference
    for the vectorised encoder."""
    for start in range(0, values.size, autocorr._CSV_CHUNK):
        chunk = values[start : start + autocorr._CSV_CHUNK]
        rows = np.empty((chunk.size, 2), dtype=np.int64)
        rows[:, 0] = np.arange(first + start, first + start + chunk.size)
        if absolute:
            np.abs(chunk, out=rows[:, 1])
        else:
            rows[:, 1] = chunk
        yield "%d,%d\n" * chunk.size % tuple(rows.ravel().tolist())


@pytest.mark.parametrize("m", range(18))
def test_csv_chunks_match_percent_formatter(m):
    # chunk by chunk: both kinds, and the plotdata rows (from k = 1, |value|)
    ap, pe = aperiodic_table_fast(m).values, periodic_table(m).values
    for args in ((ap,), (pe,), (ap[1 : 1 << m], 1, True)):
        assert list(autocorr._csv_rows(*args)) == list(_csv_percent(*args)), (m, args[1:])


def test_csv_encoder_edge_chunks(capsys):
    rng = np.random.default_rng(5)
    big = np.iinfo(np.int64).max
    chunks = [
        rng.integers(-10**6, 10**6, 3000),
        -rng.integers(1, 10**5, 700),  # all negative
        np.zeros(40, dtype=np.int64),
        np.array([0, -1, 1, 9, -10, 10, 99, -100, 10**9, -(10**18), big, -big]),
    ]
    # k crosses 10, 100, 10^5, 10^9 and 2^32 inside a chunk; the last firsts
    # also push k past uint32
    for first in (0, 1, 7, 95, 99_990, 999_999_000, (1 << 32) - 100, 10**15 - 3):
        for values in chunks:
            values = values.astype(np.int64)
            for absolute in (False, True):
                got = list(autocorr._csv_rows(values, first, absolute))
                assert got == list(_csv_percent(values, first, absolute)), (first, absolute)
    # several chunks, with a power of ten inside the second one
    values = rng.integers(-50, 50, 3 * autocorr._CSV_CHUNK)
    first = 10**6 - autocorr._CSV_CHUNK - 17
    assert list(autocorr._csv_rows(values, first)) == list(_csv_percent(values, first))
    assert list(autocorr._csv_rows(np.zeros(0, dtype=np.int64), 1, True)) == []
    level = next(lv for m, lv in enumerate(autocorr._odd_levels(12)) if m == 12)  # int32
    assert list(autocorr._csv_rows(level, 1)) == list(_csv_percent(level, 1))
    assert main(["plotdata", "--m", "0"]) == 0
    assert capsys.readouterr().out == "k,abs_C\n"  # no rows: the header alone


def test_sum_squares_of_int32_level_exceeds_int32():
    for level in (
        np.full(5000, 46_340, dtype=np.int32),  # each square < 2^31, the sum > 2^31
        np.array([(1 << 31) - 1, -(1 << 31), 7], dtype=np.int32),
        np.array([1 << 30, -(1 << 30)] * 3000, dtype=np.int32),  # past 2^63 per chunk
    ):
        total = autocorr._sum_squares(level)
        assert isinstance(total, int)
        assert total == sum(v * v for v in level.tolist())
        assert total > 1 << 31
    for odd in autocorr._odd_levels(20):
        pass
    assert odd.dtype == np.int32
    assert autocorr._sum_squares(odd) == sum(v * v for v in odd.tolist())


def test_level_dtype_rule():
    # levels are int32 while 2^m_max fits; from order 31 on (a max_order
    # override) they are int64.  Never build a ladder that high: at order 31
    # it holds 14 GiB.
    assert [autocorr._level_dtype(m) for m in (0, 2, 24, 30)] == [np.int32] * 4
    assert [autocorr._level_dtype(m) for m in (31, 40, 62)] == [np.int64] * 3
    # the step keeps its inputs' type, so int64 seeds give an int64 ladder
    # with the same values
    one_back = two_back = None
    for m, level in enumerate(autocorr._odd_levels(12)):
        if m <= 2:
            wide = np.array(autocorr._ODD_SEEDS[m], dtype=np.int64)
        else:
            wide = autocorr._next_odd(one_back, two_back)
        assert wide.dtype == np.int64 and np.array_equal(wide, level), m
        two_back, one_back = one_back, wide


def test_estimate_counts_int64_levels_above_order_30(monkeypatch):
    # from order 31 the levels are int64 and their share of the peak counts
    # twice; the guard raises before anything is allocated
    monkeypatch.setattr(autocorr, "_mem_available", lambda: 1 << 20)
    for builder, m in (("the aperiodic ladder", 30), ("the aperiodic ladder", 31),
                       ("the table pairs", 31)):
        units = autocorr._PEAK_UNITS[builder]
        if m > 30:
            units += autocorr._LEVEL_UNITS[builder]
        with pytest.raises(OrderTooLargeError, match=f"of order {m} .* {int(units * 2**m)} "):
            autocorr._check_peak(builder, m)
    with pytest.raises(OrderTooLargeError, match=f"order 31 needs about {7 << 31} bytes"):
        merit_factor(31, max_order=31)


def test_periodic_from_int32_level_multiplies_in_int64():
    # 4 C_{m-2} reaches 2^32 at order 32, whose order-30 level is int32
    a, b = (1 << 30) - 1, -((1 << 30) - 1)
    values = autocorr._periodic_from(4, np.array([a, b], dtype=np.int32)).values
    assert values[[5, 7, 9, 11]].tolist() == [4 * b, 4 * a, 4 * a, 4 * b]
