"""Rudin-Shapiro and related sign sequences.

The order-``m`` Rudin-Shapiro sequence has ``2**m`` terms; term ``i`` is
``(-1)**t`` where ``t`` counts (overlapping) pairs of consecutive ones in
the binary expansion of ``i``.  A generalised family replaces the fixed
sign pattern of the doubling step by an arbitrary choice of one flip bit
per step; the Rudin-Shapiro sequences are the special case described in
:func:`rudin_shapiro_flips`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

#: Default cap on the order m.  This is a hard limit, not a promise that
#: the order fits in memory: at m = 30 the sequence takes 1 GiB and one int64
#: autocorrelation table 8 GiB.  The sequence and table builders check the
#: memory the machine has left before they allocate (:func:`_check_memory`).
DEFAULT_MAX_ORDER = 30


class OrderTooLargeError(ValueError):
    """Requested order exceeds the configured cap, or the memory available."""


def check_order(m: int, max_order: int = DEFAULT_MAX_ORDER) -> None:
    if m < 0:
        raise ValueError(f"order must be non-negative, got {m}")
    if m > max_order:
        raise OrderTooLargeError(f"order {m} exceeds the cap {max_order}")


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


#: Builders that hold fewer bytes at their peak skip the memory check.
#: Reading ``/proc/meminfo`` takes about 20 us, a large share of the small
#: builds that the verification suites run by the hundred.
_CHECK_FLOOR = 1 << 20


def _check_memory(builder: str, m: int, nbytes: int, mem_available) -> None:
    """Raise :class:`OrderTooLargeError` if ``builder`` at order ``m``, which
    holds ``nbytes`` bytes at its peak, exceeds what ``mem_available()``
    reports (None never blocks).  Below :data:`_CHECK_FLOOR` bytes nothing
    is read."""
    if nbytes < _CHECK_FLOOR:
        return
    available = mem_available()
    if available is not None and nbytes > available:
        raise OrderTooLargeError(
            f"{builder} of order {m} needs about {nbytes} bytes ({nbytes / 2**30:.2f} GiB), "
            f"but only {available} bytes ({available / 2**30:.2f} GiB) are available"
        )


@dataclass(frozen=True)
class BinarySeq:
    """A +/-1 sequence of length ``2**m`` with first term +1."""

    m: int
    terms: np.ndarray

    def __post_init__(self):
        terms = np.asarray(self.terms, dtype=np.int8)
        if terms.shape != (1 << self.m,):
            raise ValueError(f"expected {1 << self.m} terms for order {self.m}, got {terms.shape}")
        # -1 <= t <= 1 and t != 0, by reductions that copy nothing
        if terms.min() < -1 or terms.max() > 1 or np.count_nonzero(terms) != terms.size:
            raise ValueError("all terms must be -1 or +1")
        if terms[0] != 1:
            raise ValueError("first term must be +1")
        terms.setflags(write=False)
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return self.terms.size

    def __array__(self, dtype=None, copy=None):
        arr = self.terms
        if dtype is not None:
            arr = arr.astype(dtype)
        return np.array(arr, copy=True) if copy else arr

    def __getitem__(self, i: int) -> int:
        return int(self.terms[i])

    def text(self, style: str = "symbols") -> str:
        """Render as ``"+ + - ..."`` (``symbols``) or ``"++-..."`` (``compact``).

        The text is built in one uint8 buffer and decoded once.
        """
        glyphs = (44 - self.terms).view(np.uint8)  # "+" is 43, "-" is 45
        if style == "symbols":
            buf = np.full(2 * glyphs.size - 1, ord(" "), dtype=np.uint8)
            buf[::2] = glyphs
        elif style == "compact":
            buf = glyphs
        else:
            raise ValueError(f"unknown style {style!r}")
        return str(buf.data, "ascii")


def rs_term(i: int) -> int:
    """Sign of term ``i``: ``(-1)**(# of '11' pairs in binary i, overlaps counted)``."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return 1 - 2 * ((i & (i >> 1)).bit_count() & 1)


def rs_sequence(m: int, max_order: int = DEFAULT_MAX_ORDER) -> BinarySeq:
    """The order-``m`` Rudin-Shapiro sequence (a prefix of every later order)."""
    return generalized_sequence(m, rudin_shapiro_flips(m), max_order)


def rudin_shapiro_flips(m: int) -> tuple[int, ...]:
    """Flip bits that make :func:`generalized_sequence` reproduce Rudin-Shapiro.

    The choice is 0 at step 0 and at every odd step, 1 at every even step
    from 2 on.
    """
    return tuple(1 if (i >= 2 and i % 2 == 0) else 0 for i in range(m))


def generalized_sequence(
    m: int,
    flips: Union[Callable[[int], int], Sequence[int]],
    max_order: int = DEFAULT_MAX_ORDER,
) -> BinarySeq:
    """Doubling construction with one flip bit per step.

    Starting from ``a_0 = 1``, step ``i`` appends the reversal of the current
    block with alternating signs: ``a_{2^i + j} = (-1)**(j + flips(i)) * a_{2^i - j - 1}``
    for ``0 <= j < 2^i``.  ``flips`` may be a callable or an indexable of 0/1
    values defined on ``0..m-1``.

    The family contains the Rudin-Shapiro sequences (see
    :func:`rudin_shapiro_flips`) among its ``2**m`` sign choices.  The
    terms are one int8 array of ``2^m`` bytes, checked against the memory
    available before it is allocated.
    """
    check_order(m, max_order)
    _check_memory("the sequence", m, 1 << m, _mem_available)
    f = flips if callable(flips) else flips.__getitem__
    terms = np.empty(1 << m, dtype=np.int8)
    terms[0] = 1
    for i in range(m):
        n = 1 << i
        half = terms[n : 2 * n]
        half[:] = terms[n - 1 :: -1]
        flipped = half[1 - (int(f(i)) & 1) :: 2]  # the j with j + flips(i) odd
        np.negative(flipped, out=flipped)
    return BinarySeq(m, terms)


#: Coefficients summed per block in :func:`shapiro_eval`.
_EVAL_CHUNK = 1 << 12
#: Entries of one ``np.outer``/``np.exp`` block in :func:`shapiro_eval`
#: (16 MiB of complex128), whatever the number of angles.
_EVAL_BLOCK = 1 << 20


def shapiro_eval(m, theta, max_order: int = DEFAULT_MAX_ORDER):
    """Evaluate ``sum_j a_j e^(i j theta)`` over the order-``m`` sequence.

    ``theta`` may be a scalar or an array of arbitrary angles.  This is the
    dense reference: the sum is accumulated directly, in blocks over both
    the angles and the coefficient index, so each temporary stays under
    :data:`_EVAL_BLOCK` entries.  Uniform grids are better served by an FFT
    (see :func:`rscorr.stats.merit_factor_l4`).  The trivial bound
    ``|result| <= 2**m`` always holds.
    """
    check_order(m, max_order)
    coeffs = rs_sequence(m, max_order).terms.astype(np.float64)
    th = np.asarray(theta, dtype=np.float64)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    total = np.zeros(th.shape, dtype=np.complex128)
    rows = max(1, _EVAL_BLOCK // min(_EVAL_CHUNK, coeffs.size))
    for lo in range(0, th.size, rows):
        block = th[lo : lo + rows]
        for start in range(0, coeffs.size, _EVAL_CHUNK):
            j = np.arange(start, min(start + _EVAL_CHUNK, coeffs.size))
            total[lo : lo + rows] += np.exp(1j * np.outer(block, j)) @ coeffs[j]
    return complex(total[0]) if scalar else total
