"""Aperiodic and periodic autocorrelation tables for Rudin-Shapiro sequences.

Every table can be computed two ways: by the direct O(4^m) summation over
shifted products (the oracle), or by a structural recurrence that fills
order ``m`` from orders ``m-1`` and ``m-2`` in O(2^m).  The oracle forms
each shifted product once, in blocked matrix products of the sequence
with its padded copy, and sums each entry's products along one diagonal
of a block: still a direct sum, with no FFT or recurrence behind it.
The recurrence splits odd shifts into the four open dyadic quarters of
``(0, 2^m)``:

    Q1 = (0, 2^(m-2))          C_m(k) =  C_{m-1}(2^(m-1) - k)
    Q2 = (2^(m-2), 2^(m-1))    C_m(k) =  C_{m-1}(2^(m-1) - k) + 2 C_{m-2}(2^(m-1) - k)
    Q3 = (2^(m-1), 3*2^(m-2))  C_m(k) = -C_{m-1}(k - 2^(m-1)) + 2 C_{m-2}(k - 2^(m-1))
    Q4 = (3*2^(m-2), 2^m)      C_m(k) = -C_{m-1}(k - 2^(m-1))

Even shifts >= 2 vanish identically for both kinds, so the quarter
boundaries (all even) never need a rule.  The periodic table has its own
closed form: zero on Q1 and Q4, and ``4 C_{m-2}(|2^(m-1) - k|)`` on
Q2 and Q3.

Only odd shifts carry information, so the ladder stores one compact level
per order: ``C_m(2j + 1)`` at index ``j < 2^(m-1)``.  Each quarter rule
then reads a forward or reversed contiguous slice of the two levels below
and writes one contiguous slice, with no index arrays, strides or zero
fill.  Only this module knows that layout: full tables are expanded where
a public function returns one, and the reductions in :mod:`rscorr.stats`
and :mod:`rscorr.norms`, and :func:`rscorr.recurrence.v_direct`, read the
compact levels through the helpers here.

The compact levels are int32 up to order 30 (:func:`_level_dtype`): every
value obeys ``|C_m(k)| <= 2^m - k``, and every intermediate of a step stays
within ``2^m``.  Full tables are int64, and every reduction returns Python
ints.

Each builder estimates the bytes alive at its peak, in units of ``2^m``
bytes at order ``m`` (the int32 compact levels ``m-2``, ``m-1`` and ``m``
take 1/2, 1 and 2 units, a full table 8): 3.5 for the bare ladder, 9.5 for
:func:`aperiodic_table_fast`, 8.5 for :func:`periodic_table`, 15 for
:func:`iter_aperiodic_tables` and 27.5 for :func:`iter_table_pairs`.  Levels
above order 30 are int64 and count twice.  The builder compares that
estimate with the memory the machine has available before it allocates,
and raises :class:`OrderTooLargeError` if it does not fit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .sequences import (
    DEFAULT_MAX_ORDER,
    BinarySeq,
    _check_memory,
    _mem_available,
    check_order,
    rs_sequence,
)

ArrayLike = Union[BinarySeq, np.ndarray, list, tuple]


def aperiodic_naive(s: ArrayLike, k: int) -> int:
    """Direct summation ``sum_i s_i s_{i+k}`` with zero padding outside the range."""
    if k < 0:
        raise ValueError("shift must be non-negative")
    arr = np.asarray(s, dtype=np.int64)
    n = arr.size
    if k >= n:
        return 0
    return int(np.dot(arr[: n - k], arr[k:]))


def periodic_naive(s: ArrayLike, k: int) -> int:
    """Direct summation ``sum_i s_i s_{(i+k) mod n}``."""
    arr = np.asarray(s, dtype=np.int64)
    n = arr.size
    k %= n
    return int(np.dot(arr[: n - k], arr[k:]) + np.dot(arr[n - k :], arr[:k]))


#: Rows formatted per chunk by :func:`_csv_rows`.
_CSV_CHUNK = 1 << 16
#: Values per chunk in :func:`_sum_squares` (512 KiB of int64).
_SUM_CHUNK = 1 << 16
#: ``10^j`` for every digit of a uint64.
_POW10 = [10**j for j in range(20)]


def _csv_rows(values: np.ndarray, first: int = 0, absolute: bool = False) -> Iterator[str]:
    """``k,value`` lines for ``values[i]`` at ``k = first + i`` (``|value|``
    when ``absolute``), as one string per chunk of :data:`_CSV_CHUNK` rows.

    The bytes of a chunk's rows are written into one uint8 buffer at the
    ``cumsum`` of their lengths; see :func:`_encode_rows`.
    """
    for start in range(0, values.size, _CSV_CHUNK):
        yield _encode_rows(values[start : start + _CSV_CHUNK], first + start, absolute)


def _encode_rows(chunk: np.ndarray, k0: int, absolute: bool) -> str:
    """The ``k,value`` lines of a nonempty integer ``chunk`` at ``k = k0, k0+1, ...``.

    A row is the digits of ``k``, a comma, ``-`` if negative, the digits of
    the value and a newline.  Its length comes from the digit counts: the
    shifts are consecutive, so the rows with at least ``j + 1`` digits of
    ``k`` are the suffix from ``10^j - k0`` on, and a value has
    ``1 + #{j >= 1 : |v| >= 10^j}`` digits.  The digits come from unsigned
    ``//`` and ``-``, in uint32 (the faster type) wherever every ``k`` and
    ``|v|`` fits, as in every table up to order 31.

    Value digit ``j`` (``j = 0`` for the units) goes ``j`` places before the
    last, clamped to the place of the first digit.  Going from the chunk's
    top digit down, every leading zero lands on that place, and the true
    first digit then overwrites it.  The ``-`` is written on every row just
    before the first digit, and the comma just before the ``-`` of negative
    rows, so a ``-`` survives only on them.  Every byte is stored as its
    offset from ``"0"`` and shifted once at the end.
    """
    n = chunk.size
    mag = np.abs(chunk, dtype=np.int64).view(np.uint64)  # also right for -2^63
    peak = int(mag.max())
    udt = np.uint32 if max(peak, k0 + n) < 1 << 32 else np.uint64
    mag = mag.astype(udt, copy=False)
    top = len(str(peak))
    flag = np.empty(n, dtype=bool)
    digits = np.ones(n, dtype=np.intp)
    for j in range(1, top):
        np.greater_equal(mag, _POW10[j], out=flag)
        digits += flag
    tail = digits + 2  # value digits, comma and newline
    if not absolute:
        np.less(chunk, 0, out=flag)
        tail += flag
    lengths = tail + len(str(k0))
    for j in range(len(str(k0)), len(str(k0 + n - 1))):
        lengths[_POW10[j] - k0 :] += 1
    ends = np.cumsum(lengths)
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    zero = ord("0")
    pos = ends - 1
    buf[pos] = ord("\n") - zero & 255
    first_digit = ends - 1 - digits
    if not absolute:
        np.subtract(first_digit, 1, out=pos)
        buf[pos] = ord("-") - zero & 255
    comma = ends - tail
    buf[comma] = ord(",") - zero & 255
    quot, above = np.empty(n, dtype=udt), np.zeros(n, dtype=udt)
    digit = np.empty(n, dtype=np.uint8)
    for j in range(top - 1, -1, -1):
        np.floor_divide(mag, _POW10[j], out=quot)
        above *= 10
        np.subtract(quot, above, out=digit, casting="unsafe")
        np.subtract(ends, j + 2, out=pos)
        np.maximum(pos, first_digit, out=pos)
        buf[pos] = digit
        quot, above = above, quot
    # k's digits from the units up, each on the rows long enough to have it
    k, rest = np.arange(k0, k0 + n, dtype=udt), np.empty(n, dtype=udt)
    for j in range(len(str(k0 + n - 1))):
        s = max(0, _POW10[j] - k0) if j else 0
        np.floor_divide(k[s:], 10, out=rest[s:])
        np.subtract(k[s:], rest[s:] * 10, out=digit[s:], casting="unsafe")
        np.subtract(comma[s:], j + 1, out=pos[s:])
        buf[pos[s:]] = digit[s:]
        k, rest = rest, k
    buf += zero
    return str(buf.data, "ascii")


@dataclass(frozen=True)
class AutocorrTable:
    """All autocorrelations of one order.

    ``values[k]`` holds the correlation at shift ``k``; aperiodic tables
    cover ``k = 0..2^m`` and periodic tables ``k = 0..2^m - 1``.
    """

    m: int
    kind: str  # "aperiodic" | "periodic"
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        expected = (1 << self.m) + (1 if self.kind == "aperiodic" else 0)
        if self.kind not in ("aperiodic", "periodic"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if vals.shape != (expected,):
            raise ValueError(f"expected {expected} values, got {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, k: int) -> int:
        return int(self.values[k])

    def __len__(self) -> int:
        return self.values.size

    def sum_squares(self) -> int:
        """Exact ``sum_{k>=1} values[k]**2`` as a Python int (see :func:`_sum_squares`)."""
        return _sum_squares(self.values[1:])

    @property
    def default_filename(self) -> str:
        return f"{'C' if self.kind == 'aperiodic' else 'P'}_{self.m}.csv"

    def to_csv(self, fileobj=None) -> str | None:
        """Write ``k,value`` rows; returns the text when no file is given."""
        buf = fileobj or io.StringIO()
        buf.write("k,value\n")
        for text in _csv_rows(self.values):
            buf.write(text)
        if fileobj is None:
            return buf.getvalue()
        return None


#: Bytes of the products ``G_r`` that :func:`_naive_table` holds at once
#: (one offset's ``G_r`` when that alone is larger, from order 16 on).
_ORACLE_BLOCK = 1 << 18


def _naive_table(m: int, kind: str, max_order: int) -> AutocorrTable:
    """Every entry by a direct sum of its ``2^m`` shifted products, taken as
    blocked matrix products of one float64 copy of the sequence.

    With ``L = 2^ceil(m/2)`` and ``R = 2^m / L``, the sequence is an
    ``R x L`` matrix ``S``, and ``p`` is the copy padded to ``2^(m+1) + L``
    terms: with zeros (aperiodic) or by wrapping around (periodic).  For
    each offset ``r < L``, ``P_r = p[r : r + 2^(m+1)]`` viewed as a
    ``2R x L`` matrix gives ``G_r = S @ P_r.T`` with
    ``G_r[a, b] = sum_j s_(aL+j) p_(bL+j+r)``, so that
    ``C(qL + r) = sum_a G_r[a, a+q]``, one strided diagonal sum.  Every
    product ``s_i p_(i+k)`` is formed once and summed into its own entry,
    so the cost stays O(4^m).  The ``P_r`` of several offsets are one
    read-only strided view of ``p``, multiplied in one call into one block
    of at most :data:`_ORACLE_BLOCK` bytes.  The last row of each ``P_r``
    (and so the last ``L`` terms of ``p``) feeds only column ``2R - 1``,
    which no diagonal reads; it keeps every ``P_r`` a full ``2R x L`` view.

    float64 is exact here in any summation order: every partial sum is an
    integer of magnitude at most ``2^m <= 2^30 < 2^53``.  No FFT, recurrence
    or ``np.correlate`` is used: an FFT and the recurrence are not direct
    sums, and ``np.correlate`` is the tests' independent reference.
    """
    seq = np.asarray(rs_sequence(m, max_order), dtype=np.float64)
    n = seq.size
    cols = 1 << (m + 1) // 2
    rows = n // cols
    if kind == "aperiodic":
        padded = np.concatenate((seq, np.zeros(n + cols)))
        vals = np.zeros(n + 1, dtype=np.int64)  # shift n has no overlap
    else:
        padded = np.concatenate((seq, seq, seq[:cols]))
        vals = np.empty(n, dtype=np.int64)
    step = padded.itemsize
    # windows[r] is P_r: windows[r, b, j] = p[r + b L + j]
    windows = np.lib.stride_tricks.as_strided(
        padded, (cols, 2 * rows, cols), (step, cols * step, step), writeable=False
    )
    matrix = seq.reshape(rows, cols)
    chunk = min(cols, max(1, _ORACLE_BLOCK // (2 * rows * rows * step)))
    block = np.empty((chunk, rows, 2 * rows))
    # diagonals[i, q, a] is G_(r0+i)[a, a+q] for the offsets r0.. in the block
    diagonals = np.lib.stride_tricks.as_strided(
        block, (chunk, rows, rows), (2 * rows * rows * step, step, (2 * rows + 1) * step),
        writeable=False,
    )
    table = vals[:n].reshape(rows, cols)  # table[q, r] is C(qL + r)
    for r0 in range(0, cols, chunk):  # both powers of two: every block is full
        np.matmul(matrix, windows[r0 : r0 + chunk].transpose(0, 2, 1), out=block)
        table[:, r0 : r0 + chunk] = diagonals.sum(axis=2).T
    return AutocorrTable(m, kind, vals)


def aperiodic_table_naive(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    """Oracle table built entirely by direct summation (O(4^m))."""
    check_order(m, max_order)
    return _naive_table(m, "aperiodic", max_order)


def periodic_table_naive(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    check_order(m, max_order)
    return _naive_table(m, "periodic", max_order)


#: Odd-shift values ``C_m(1), C_m(3), ...`` of orders 0..2, the base of the ladder.
_ODD_SEEDS = ((), (1,), (1, -1))
#: Periodic values of orders 0 and 1, where shift 1 wraps onto itself and
#: the closed form does not apply.
_PERIODIC_SEEDS = ([1], [2, 2])

#: Bytes alive at each builder's peak, in units of ``2^m`` bytes at order
#: ``m``.  The int32 compact levels ``m-2``, ``m-1`` and ``m`` take 1/2, 1
#: and 2 units, a full table 8.  A ``for`` loop still holds the item a
#: generator yielded last while the generator builds the next one, so the
#: two generators count that item too.
_PEAK_UNITS = {
    "the aperiodic ladder": 7 / 2,  # levels m-2, m-1, m
    "the aperiodic table": 19 / 2,  # levels m-2, m-1, table m
    "the aperiodic tables": 15,  # levels m-1, m, table m, the caller's table m-1
    "the periodic table": 17 / 2,  # level m-2, table m
    "the table pairs": 55 / 2,  # levels m-2, m-1, m, two tables m, the caller's pair m-1
}
#: The units of each peak held in compact levels, counted again from order
#: 31 on, where the levels are int64.  (At orders 31 and 32 the ladders of
#: :func:`aperiodic_table_fast` and :func:`periodic_table`, which stop one
#: and two orders lower, may still be int32: there it is an upper bound.)
_LEVEL_UNITS = {
    "the aperiodic ladder": 7 / 2,
    "the aperiodic table": 3 / 2,
    "the aperiodic tables": 3,
    "the periodic table": 1 / 2,
    "the table pairs": 7 / 2,
}


def _check_peak(builder: str, m: int) -> None:
    """Raise :class:`OrderTooLargeError` if ``builder`` at order ``m`` would
    not fit in the memory available now."""
    units = _PEAK_UNITS[builder]
    if _level_dtype(m) == np.int64:
        units += _LEVEL_UNITS[builder]
    _check_memory(builder, m, int(units * (1 << m)), _mem_available)


def _level_dtype(m_max: int) -> type:
    """int32 for a ladder up to order ``m_max`` while ``2^m_max`` fits in it,
    else int64.

    Every value of level ``m`` obeys ``|C_m(k)| <= 2^m - k``, and each
    intermediate of :func:`_next_odd` (``2 C_{m-2}``, then the sum) stays
    within ``2^m``.
    """
    return np.int32 if 1 << m_max <= np.iinfo(np.int32).max else np.int64


def _next_odd(
    one_back: np.ndarray, two_back: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """One recurrence step on compact levels: order ``m`` from ``m-1`` and ``m-2``.

    With ``e = 2^(m-3)`` entries per quarter, ``a = one_back`` (``2e``
    entries) and ``b = two_back`` (``e`` entries), the four quarters of
    ``(0, 2^m)`` are the contiguous slices

        Q1 = a[e:] reversed        Q2 = (a[:e] + 2 b) reversed
        Q3 = 2 b - a[:e]           Q4 = -a[e:]

    each written in place with no temporary, into ``out`` (``4e`` entries,
    any stride, int64 or the levels' own type) when given, else into a new
    array of the levels' type.
    """
    e = two_back.size
    a_low, a_high = one_back[:e], one_back[e:]
    if out is None:
        out = np.empty(4 * e, dtype=one_back.dtype)
    out[:e] = a_high[::-1]
    quarter = out[e : 2 * e]
    np.multiply(two_back[::-1], 2, out=quarter)
    quarter += a_low[::-1]
    quarter = out[2 * e : 3 * e]
    np.multiply(two_back, 2, out=quarter)
    quarter -= a_low
    np.negative(a_high, out=out[3 * e :])
    return out


def _odd_levels(
    m_max: int, max_order: int = DEFAULT_MAX_ORDER, builder: str | None = "the aperiodic ladder"
) -> Iterator[np.ndarray]:
    """Yield the compact levels of orders 0..m_max.

    Level ``m`` holds ``C_m(2j + 1)`` at index ``j < 2^(m-1)``; every even
    shift ``k >= 2`` vanishes, so it holds every nonzero value for
    ``0 < k < 2^m``.  Each value is a sum of an odd number of +/-1 terms,
    hence odd and never zero.  Every level has the type
    :func:`_level_dtype` gives for ``m_max``.  Levels ``m-2``, ``m-1`` and
    ``m`` are alive while level ``m`` is built (``3.5 * 2^m`` bytes in
    int32), only the last two when it is yielded.  Before the first level
    the order cap is checked, and the memory that ``builder`` needs at
    order ``m_max`` unless it is None (a caller whose peak is at another
    order checks its own).
    """
    check_order(m_max, max_order)
    if builder is not None:
        _check_peak(builder, m_max)
    dtype = _level_dtype(m_max)
    one_back = two_back = None
    for m in range(m_max + 1):
        if m <= 2:
            level = np.array(_ODD_SEEDS[m], dtype=dtype)
        else:
            level = _next_odd(one_back, two_back)
        two_back, one_back = one_back, level
        yield level


def _blank_table(m: int) -> np.ndarray:
    """Aperiodic values of order ``m`` with every odd shift still 0."""
    n = 1 << m
    values = np.zeros(n + 1, dtype=np.int64)  # shift 2^m has zero overlap
    values[0] = n
    return values


def _full_table(m: int, odd: np.ndarray) -> AutocorrTable:
    """The aperiodic table of order ``m`` from its compact level."""
    values = _blank_table(m)
    values[1 : 1 << m : 2] = odd
    return AutocorrTable(m, "aperiodic", values)


def _odd_values(odd: np.ndarray, shifts):
    """``C_m(k)`` for an odd shift ``0 < k < 2^m``, or an array of them, from
    the compact level."""
    return odd[shifts >> 1]


def _sum_squares(v: np.ndarray) -> int:
    """Exact ``sum(v**2)`` as a Python int, for an int32 level or an int64 table.

    The values are summed in chunks of :data:`_SUM_CHUNK`, small enough to
    stay in cache across the chunk's passes.  Each chunk is accumulated in
    int64 (an int32 chunk is widened first, since ``np.dot`` sums in its
    inputs' type), which is exact while ``size * max|v|^2 < 2^63``; past
    that bound the chunk is summed in Python ints.
    """
    total = 0
    for start in range(0, v.size, _SUM_CHUNK):
        chunk = v[start : start + _SUM_CHUNK]
        peak = _abs_peak(chunk)
        if chunk.size * peak * peak < 1 << 63:
            wide = chunk.astype(np.int64, copy=False)
            total += int(np.dot(wide, wide))
        else:
            total += sum(x * x for x in chunk.tolist())
    return total


def _abs_peak(v: np.ndarray) -> int:
    """``max|v|`` of a nonempty array, without an absolute-value copy."""
    return max(int(v.max()), -int(v.min()))


def _odd_peak(odd: np.ndarray, signed: bool) -> tuple[int, int, bool]:
    """``(k, C_m(k), unique)`` for the smallest ``0 < k < 2^m`` maximising
    ``C_m(k)`` (``signed``) or ``|C_m(k)|``, from the compact level.

    ``unique`` is False when another such shift attains the same maximum.
    The even shifts hold 0 and the odd ones odd values, so the zeros win
    only a signed scan whose odd values are all negative: then ``k = 2``,
    unique only when it is the sole even shift (order 2).  No temporary is
    made: a tie after the first maximiser shows in the maximum (or
    minimum) of the tail behind it.
    """
    hi = int(np.argmax(odd))
    top = int(odd[hi])
    if signed:
        if top < 0 and odd.size > 1:
            return 2, 0, odd.size == 2
        return 2 * hi + 1, top, hi + 1 == odd.size or int(odd[hi + 1 :].max()) < top
    lo = int(np.argmin(odd))
    bottom = int(odd[lo])
    if top == -bottom:  # top > 0 > bottom: two maximisers of |C|
        return 2 * min(hi, lo) + 1, int(odd[min(hi, lo)]), False
    if top > -bottom:
        return 2 * hi + 1, top, hi + 1 == odd.size or int(odd[hi + 1 :].max()) < top
    return 2 * lo + 1, bottom, lo + 1 == odd.size or int(odd[lo + 1 :].min()) > bottom


def _periodic_from(m: int, lower: np.ndarray | None) -> AutocorrTable:
    """Order-``m`` periodic table from the compact order-``m-2`` level.

    From order 2 on, odd shifts in the middle two quarters carry
    ``4 C_{m-2}(|2^(m-1) - k|)``: the level reversed on Q2 and forward on
    Q3.  Every other nonzero shift vanishes; orders 0 and 1 are literal and
    ignore ``lower``.
    """
    if m < 2:
        return AutocorrTable(m, "periodic", np.array(_PERIODIC_SEEDS[m], dtype=np.int64))
    n = 1 << m
    q, h = n >> 2, n >> 1
    out = np.zeros(n, dtype=np.int64)
    out[0] = n
    # in int64: 4 C_{m-2} of an int32 level reaches 2^32 at order 32
    np.multiply(lower[::-1], 4, out=out[q + 1 : h : 2], dtype=np.int64)
    np.multiply(lower, 4, out=out[h + 1 : 3 * q : 2], dtype=np.int64)
    return AutocorrTable(m, "periodic", out)


def iter_aperiodic_tables(
    m_max: int, max_order: int = DEFAULT_MAX_ORDER
) -> Iterator[AutocorrTable]:
    """Yield aperiodic tables for m = 0..m_max from one compact ladder.

    Each level is expanded to a full table as it is yielded.  At order
    ``m`` about ``15 * 2^m`` bytes are alive: compact levels ``m-1`` and
    ``m``, table ``m`` and the table ``m-1`` a ``for`` loop still holds.
    Raises :class:`OrderTooLargeError` before the first level if that
    would not fit in available memory at ``m_max``.
    """
    for m, odd in enumerate(_odd_levels(m_max, max_order, "the aperiodic tables")):
        yield _full_table(m, odd)


def aperiodic_table_fast(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    """Aperiodic table via the four-quarter recurrence (O(2^m) per level).

    The ladder runs on compact levels up to order ``m - 1``, and the last
    step writes order ``m`` straight into the table's odd shifts: about
    ``9.5 * 2^m`` bytes at the peak.
    """
    check_order(m, max_order)
    _check_peak("the aperiodic table", m)
    if m <= 2:
        return _full_table(m, _ODD_SEEDS[m])
    one_back = None
    for level in _odd_levels(m - 1, max_order, None):
        two_back, one_back = one_back, level
    values = _blank_table(m)
    _next_odd(one_back, two_back, out=values[1 : 1 << m : 2])
    return AutocorrTable(m, "aperiodic", values)


def periodic_table(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    """Periodic table via the closed form on the four quarters.

    Orders 0 and 1 are literal; from order 2 on the table is derived from
    the compact aperiodic level of order ``m - 2``: about ``8.5 * 2^m``
    bytes at the peak.
    """
    check_order(m, max_order)
    if m < 2:
        return _periodic_from(m, None)
    _check_peak("the periodic table", m)
    for lower in _odd_levels(m - 2, max_order, None):
        pass
    return _periodic_from(m, lower)


def iter_table_pairs(
    m_max: int, max_order: int = DEFAULT_MAX_ORDER
) -> Iterator[tuple[AutocorrTable, AutocorrTable]]:
    """Yield ``(aperiodic, periodic)`` tables of orders 0..m_max from one ladder.

    At order ``m`` about ``27.5 * 2^m`` bytes are alive: compact levels
    ``m-2..m``, both tables of order ``m`` and the pair of order ``m-1`` a
    ``for`` loop still holds.
    """
    two_back = one_back = None
    for m, odd in enumerate(_odd_levels(m_max, max_order, "the table pairs")):
        yield _full_table(m, odd), _periodic_from(m, two_back)
        two_back, one_back = one_back, odd


@dataclass(frozen=True)
class EvenShiftReport:
    """Result of the exhaustive even-shift vanishing check."""

    m_max: int
    checked: int
    violations: tuple  # (kind, m, k, value) entries; expected empty

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "check": "even-shift-zero",
            "m_max": self.m_max,
            "checked": self.checked,
            "violations": [list(v) for v in self.violations],
            "passed": self.passed,
        }


def verify_even_zero(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> EvenShiftReport:
    """Confirm both table kinds vanish at every even shift ``2 <= k < 2^m``."""
    check_order(m_max, max_order)
    violations = []
    checked = 0
    for pair in iter_table_pairs(m_max, max_order):
        for tab in pair:
            if tab.m < 2:
                continue
            even = tab.values[2 : 1 << tab.m : 2]
            checked += even.size
            if np.any(even != 0):
                for k in np.nonzero(even)[0]:
                    violations.append((tab.kind, tab.m, int(2 + 2 * k), int(even[k])))
    return EvenShiftReport(m_max, checked, tuple(violations))
