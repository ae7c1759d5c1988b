"""Aperiodic and periodic autocorrelation tables for Rudin-Shapiro sequences.

Every table can be computed two ways: by the direct O(4^m) summation over
shifted products (the oracle), or by a structural recurrence that fills
order ``m`` from orders ``m-1`` and ``m-2`` in O(2^m).  The recurrence
splits odd shifts into the four open dyadic quarters of ``(0, 2^m)``:

    Q1 = (0, 2^(m-2))          C_m(k) =  C_{m-1}(2^(m-1) - k)
    Q2 = (2^(m-2), 2^(m-1))    C_m(k) =  C_{m-1}(2^(m-1) - k) + 2 C_{m-2}(2^(m-1) - k)
    Q3 = (2^(m-1), 3*2^(m-2))  C_m(k) = -C_{m-1}(k - 2^(m-1)) + 2 C_{m-2}(k - 2^(m-1))
    Q4 = (3*2^(m-2), 2^m)      C_m(k) = -C_{m-1}(k - 2^(m-1))

Even shifts >= 2 vanish identically for both kinds, so the quarter
boundaries (all even) never need a rule.  The periodic table has its own
closed form: zero on Q1 and Q4, and ``4 C_{m-2}(|2^(m-1) - k|)`` on
Q2 and Q3.

Each quarter rule reads one odd-indexed stretch of an earlier level,
forwards or backwards, so a level is filled with strided slices and needs
no index arrays.  While the ladder runs, the levels ``m-2``, ``m-1`` and
``m`` are alive together: about ``1.75 * 8 * 2^m`` bytes.  Builders
compare that estimate with the memory the machine has available before
they allocate, and raise :class:`OrderTooLargeError` if it does not fit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .sequences import (
    DEFAULT_MAX_ORDER,
    BinarySeq,
    OrderTooLargeError,
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
    return int(np.dot(arr, np.roll(arr, -(k % arr.size))))


#: Rows formatted per write in :meth:`AutocorrTable.to_csv`.
_CSV_CHUNK = 1 << 16


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
        """Exact ``sum_{k>=1} values[k]**2`` as a Python int.

        The int64 dot product is exact while ``size * max|v|^2 < 2^63``; past
        that bound the sum is taken in Python ints.
        """
        v = self.values[1:]
        if v.size == 0:
            return 0
        peak = max(int(v.max()), -int(v.min()))
        if v.size * peak * peak < 1 << 63:
            return int(np.dot(v, v))
        return sum(x * x for x in v.tolist())

    @property
    def default_filename(self) -> str:
        return f"{'C' if self.kind == 'aperiodic' else 'P'}_{self.m}.csv"

    def to_csv(self, fileobj=None) -> str | None:
        """Write ``k,value`` rows; returns the text when no file is given."""
        buf = fileobj or io.StringIO()
        buf.write("k,value\n")
        for start in range(0, self.values.size, _CSV_CHUNK):
            rows = self.values[start : start + _CSV_CHUNK].tolist()
            buf.write("".join([f"{k},{v}\n" for k, v in enumerate(rows, start)]))
        if fileobj is None:
            return buf.getvalue()
        return None


def _naive_table(m: int, kind: str, max_order: int) -> AutocorrTable:
    seq = rs_sequence(m, max_order)
    n = 1 << m
    if kind == "aperiodic":
        vals = [aperiodic_naive(seq, k) for k in range(n + 1)]
    else:
        vals = [periodic_naive(seq, k) for k in range(n)]
    return AutocorrTable(m, kind, np.array(vals, dtype=np.int64))


def aperiodic_table_naive(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    """Oracle table built entirely by direct summation (O(4^m))."""
    check_order(m, max_order)
    return _naive_table(m, "aperiodic", max_order)


def periodic_table_naive(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    check_order(m, max_order)
    return _naive_table(m, "periodic", max_order)


#: Aperiodic values of orders 0..2, the base of the ladder.
_APERIODIC_SEEDS = ([1, 0], [2, 1, 0], [4, 1, 0, -1, 0])
#: Periodic values of orders 0 and 1, where shift 1 wraps onto itself and
#: the closed form does not apply.
_PERIODIC_SEEDS = ([1], [2, 2])


def _mem_available() -> int | None:
    """Bytes the kernel reports as available, or None where it cannot tell."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _check_memory(nbytes: int, what: str) -> None:
    """Raise :class:`OrderTooLargeError` if ``nbytes`` exceeds available memory."""
    available = _mem_available()
    if available is not None and nbytes > available:
        raise OrderTooLargeError(
            f"{what} needs about {nbytes} bytes ({nbytes / 2**30:.2f} GiB), "
            f"but only {available} bytes ({available / 2**30:.2f} GiB) are available"
        )


def _ladder_bytes(m: int) -> int:
    """int64 bytes of levels ``m-2``, ``m-1`` and ``m`` held at once (1.75 * 8 * 2^m)."""
    return 8 * ((1 << m) + (1 << m >> 1) + (1 << m >> 2) + 3)


def _next_aperiodic(prev1: np.ndarray, prev2: np.ndarray, m: int) -> np.ndarray:
    """One recurrence step: order-``m`` values from orders ``m-1`` and ``m-2``.

    Each quarter is one strided slice of ``out``; the reversed slices of
    ``prev1``/``prev2`` read ``h - k`` and the forward ones ``k - h``.
    """
    n = 1 << m
    q, h = n >> 2, n >> 1
    out = np.zeros(n + 1, dtype=np.int64)
    out[0] = n  # shift 0 is the sequence length; shift 2^m has zero overlap
    out[1:q:2] = prev1[h - 1 : q : -2]
    quarter = out[q + 1 : h : 2]
    np.multiply(prev2[q - 1 : 0 : -2], 2, out=quarter)
    quarter += prev1[q - 1 : 0 : -2]
    quarter = out[h + 1 : 3 * q : 2]
    np.multiply(prev2[1:q:2], 2, out=quarter)
    quarter -= prev1[1:q:2]
    np.negative(prev1[q + 1 : h : 2], out=out[3 * q + 1 : n : 2])
    return out


def _periodic_from(m: int, lower: np.ndarray | None) -> AutocorrTable:
    """Order-``m`` periodic table from the order-``m-2`` aperiodic values.

    From order 2 on, odd shifts in the middle two quarters carry
    ``4 C_{m-2}(|2^(m-1) - k|)`` and every other nonzero shift vanishes;
    orders 0 and 1 are literal and ignore ``lower``.
    """
    if m < 2:
        return AutocorrTable(m, "periodic", np.array(_PERIODIC_SEEDS[m], dtype=np.int64))
    n = 1 << m
    q, h = n >> 2, n >> 1
    out = np.zeros(n, dtype=np.int64)
    out[0] = n
    np.multiply(lower[q - 1 : 0 : -2], 4, out=out[q + 1 : h : 2])
    np.multiply(lower[1:q:2], 4, out=out[h + 1 : 3 * q : 2])
    return AutocorrTable(m, "periodic", out)


def iter_aperiodic_tables(
    m_max: int, max_order: int = DEFAULT_MAX_ORDER
) -> Iterator[AutocorrTable]:
    """Yield aperiodic tables for m = 0..m_max, keeping two levels of state.

    Raises :class:`OrderTooLargeError` before the first level if the ladder
    to ``m_max`` would not fit in available memory.
    """
    check_order(m_max, max_order)
    _check_memory(_ladder_bytes(m_max), f"the aperiodic ladder to order {m_max}")
    prev1 = prev2 = None
    for m in range(m_max + 1):
        if m <= 2:
            vals = np.array(_APERIODIC_SEEDS[m], dtype=np.int64)
        else:
            vals = _next_aperiodic(prev1, prev2, m)
        prev2, prev1 = prev1, vals
        yield AutocorrTable(m, "aperiodic", vals)


def aperiodic_table_fast(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    """Aperiodic table via the four-quarter recurrence (O(2^m) per level)."""
    for table in iter_aperiodic_tables(m, max_order):
        pass
    return table


def periodic_table(m: int, max_order: int = DEFAULT_MAX_ORDER) -> AutocorrTable:
    """Periodic table via the closed form on the four quarters.

    Orders 0 and 1 are literal; from order 2 on the table is derived from
    the aperiodic table of order ``m - 2``.
    """
    check_order(m, max_order)
    if m < 2:
        return _periodic_from(m, None)
    _check_memory(8 * (1 << m) + _ladder_bytes(m - 2), f"the periodic table of order {m}")
    return _periodic_from(m, aperiodic_table_fast(m - 2, max_order).values)


def iter_table_pairs(
    m_max: int, max_order: int = DEFAULT_MAX_ORDER
) -> Iterator[tuple[AutocorrTable, AutocorrTable]]:
    """Yield ``(aperiodic, periodic)`` tables of orders 0..m_max from one ladder."""
    two_back = one_back = None
    for table in iter_aperiodic_tables(m_max, max_order):
        yield table, _periodic_from(table.m, two_back)
        two_back, one_back = one_back, table.values


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
