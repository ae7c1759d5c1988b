"""Exact integer matrix form of the autocorrelation recurrence.

For an odd shift ``k`` at order ``m`` the 3-vector

    v_m(k) = (C_m(k), C_m(2^m - k), C_{m-1}(k'))

with ``k' = k`` for ``k <= 2^(m-1)`` and ``k' = 2^m - k`` otherwise,
satisfies ``v_m = T v_{m-1}`` where ``T`` is one of four fixed integer
matrices selected by the dyadic quarter containing ``k``.  Chaining down
to order 3 expresses ``v_m`` as an exact product of quarter factors
applied to a seed vector; regrouping the factors yields a normal form
``SWAP^delta * (word of MA/MB letters) * seed`` whose word length is
always ``m - 2``.

Everything here is exact 64-bit integer arithmetic; entries of the
products grow slower than ``2^m``, so overflow is impossible at the
supported orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .autocorr import iter_aperiodic_tables
from .sequences import DEFAULT_MAX_ORDER, check_order

#: Level-step matrix of the recurrence (middle-quarter case).
STEP = np.array([[0, 1, 2], [0, -1, 2], [1, 0, 0]], dtype=np.int64)
#: Permutation swapping the first two coordinates (an isometry).
SWAP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
#: Projection zeroing the third coordinate.
PROJ = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=np.int64)
#: Anti-diagonal reversal permutation (involution isometry) connecting this
#: matrix alphabet to an equivalent conjugated one.
REVERSAL = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.int64)

#: The two-letter product alphabet used by the norm bounds and the joint
#: spectral radius estimates.
MA = STEP @ SWAP
MB = STEP @ PROJ

#: Quarter label -> recurrence factor.
QUARTER_FACTORS = {
    "S1": STEP @ PROJ,
    "S2": STEP.copy(),
    "S3": SWAP @ STEP,
    "S4": SWAP @ STEP @ PROJ,
}

LETTER_MATRICES = {"MA": MA, "MB": MB}

#: Seed vector (v_2 for a shift whose quarter at level 3 is S1 or S4; the
#: other two quarters use SWAP @ SEED).
SEED = np.array([1, -1, 1], dtype=np.int64)

for _mat in (STEP, SWAP, PROJ, REVERSAL, MA, MB, SEED, *QUARTER_FACTORS.values()):
    _mat.setflags(write=False)


class NormalFormError(RuntimeError):
    """Regrouping produced a factor outside the two-letter alphabet.

    This cannot happen for valid inputs; raising loudly here means the
    adjacency structure of the quarter factors has been violated.
    """


def interval_label(k: int, m: int) -> str:
    """Quarter of ``(0, 2^m)`` containing the odd shift ``k`` (``S1``..``S4``)."""
    if m < 3:
        raise ValueError(f"order must be >= 3, got {m}")
    if k % 2 == 0:
        raise ValueError(f"shift must be odd, got {k}")
    if not 1 <= k <= (1 << m) - 1:
        raise ValueError(f"shift {k} out of range for order {m}")
    return f"S{(k >> (m - 2)) + 1}"


@dataclass(frozen=True)
class ChainStep:
    level: int
    shift: int
    label: str


@dataclass(frozen=True)
class ShiftChain:
    """Shift trajectory from level ``m`` down to level 3 with quarter labels."""

    m: int
    steps: tuple[ChainStep, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "steps": [[s.level, s.shift, s.label] for s in self.steps],
        }


def shift_chain(k: int, m: int) -> ShiftChain:
    """Iterate ``k -> k`` (quarters 1-2) or ``k -> 2^level - k`` (quarters 3-4)."""
    steps = []
    shift = k
    for level in range(m, 2, -1):
        label = interval_label(shift, level)
        steps.append(ChainStep(level, shift, label))
        if label in ("S3", "S4"):
            shift = (1 << level) - shift
    return ShiftChain(m, tuple(steps))


def t_factor(label: str) -> np.ndarray:
    """The recurrence factor for a quarter label."""
    try:
        return QUARTER_FACTORS[label].copy()
    except KeyError:
        raise ValueError(f"unknown quarter label {label!r}") from None


def v_direct(m: int, k: int, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """Read ``v_m(k)`` straight out of the autocorrelation tables."""
    check_order(m, max_order)
    interval_label(k, m)  # validates k
    n = 1 << m
    tables = {}
    for t in iter_aperiodic_tables(m, max_order):
        if t.m >= m - 1:
            tables[t.m] = t
    k_prev = k if k <= n >> 1 else n - k
    return np.array(
        [tables[m][k], tables[m][n - k], tables[m - 1][k_prev]], dtype=np.int64
    )


def _seed_for(chain: ShiftChain) -> np.ndarray:
    return SWAP @ SEED if chain.steps[-1].label in ("S2", "S3") else SEED.copy()


def v_product(m: int, k: int) -> np.ndarray:
    """Rebuild ``v_m(k)`` by applying the factor chain to the seed vector."""
    chain = shift_chain(k, m)
    v = _seed_for(chain)
    for step in reversed(chain.steps):
        v = QUARTER_FACTORS[step.label] @ v
    return v


#: Quarter label -> (swap exponent, projection exponent) in SWAP^a STEP PROJ^b.
_EXPONENTS = {"S1": (0, 1), "S2": (0, 0), "S3": (1, 0), "S4": (1, 1)}


def _regroup(labels: Iterable[str], seed_swap: int) -> tuple[int, tuple[str, ...]]:
    """Turn a top-down label sequence plus seed swap into (delta, letters).

    Flattening the factor chain gives ``... STEP PROJ^b_i SWAP^a_{i-1} STEP ...``;
    between consecutive STEPs exactly one of the projection/swap bits is set,
    so each STEP absorbs one letter to its right.  The leading swap bit pops
    out as ``delta``.
    """
    seq = list(labels)
    bits = [_EXPONENTS[lab] for lab in seq]
    delta = bits[0][0]
    rights = [a for a, _ in bits[1:]] + [seed_swap]
    letters = []
    for (_, b), a_next in zip(bits, rights):
        if (b, a_next) == (1, 0):
            letters.append("MB")
        elif (b, a_next) == (0, 1):
            letters.append("MA")
        else:
            raise NormalFormError(
                f"factor STEP PROJ^{b} SWAP^{a_next} is not a single letter"
            )
    return delta, tuple(letters)


@dataclass(frozen=True)
class NormalForm:
    """``SWAP^delta * (letter word) * seed`` presentation of ``v_m(k)``."""

    m: int
    k: int
    delta: int
    letters: tuple[str, ...]

    def matrix(self) -> np.ndarray:
        """Exact integer product ``SWAP^delta * letters``."""
        out = SWAP.copy() if self.delta else np.eye(3, dtype=np.int64)
        for letter in self.letters:
            out = out @ LETTER_MATRICES[letter]
        return out

    def reconstruct(self) -> np.ndarray:
        return self.matrix() @ SEED

    def to_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "delta": self.delta, "word": list(self.letters)}


def normal_form(m: int, k: int) -> NormalForm:
    """Two-letter normal form of the factor chain for the odd shift ``k``.

    The word always has exactly ``m - 2`` letters and reconstructs
    ``v_m(k)`` exactly.
    """
    chain = shift_chain(k, m)
    seed_swap = 1 if chain.steps[-1].label in ("S2", "S3") else 0
    delta, letters = _regroup(chain.labels(), seed_swap)
    form = NormalForm(m, k, delta, letters)
    if len(letters) != m - 2:
        raise NormalFormError(f"expected {m - 2} letters, got {len(letters)}")
    return form


def nearest_third(m: int) -> int:
    """Nearest integer to ``2^(m+1)/3`` (always odd; never a tie)."""
    if m < 1:
        raise ValueError("order must be >= 1")
    x = 1 << (m + 1)
    return (x + 1) // 3 if x % 3 == 2 else x // 3


@dataclass(frozen=True)
class IdentityCheckReport:
    """Outcome of the floor/ceil identity sweep behind :func:`nearest_third`."""

    m_max: int
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "check": "floor-ceil-thirds",
            "m_max": self.m_max,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def check_floor_ceil_identities(m_max: int) -> IdentityCheckReport:
    """Verify ``floor(2^(m+1)/3) = 2^(m+1) - ceil(2^(m+2)/3)`` for odd m,
    and the floor/ceil-swapped identity for even m, in exact integers."""
    failures = []
    for m in range(1, m_max + 1):
        a, b = 1 << (m + 1), 1 << (m + 2)
        if m % 2 == 1:
            ok = a // 3 == a - (-(-b // 3))
        else:
            ok = -(-a // 3) == a - b // 3
        if not ok:
            failures.append(m)
    return IdentityCheckReport(m_max, tuple(failures))


@dataclass(frozen=True)
class DecompositionReport:
    """Exhaustive product/normal-form agreement sweep with structural notes."""

    m_max: int
    cases: int
    failures: tuple
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "check": "decomposition",
            "m_max": self.m_max,
            "cases": self.cases,
            "failures": [list(f) for f in self.failures],
            "notes": list(self.notes),
            "passed": self.passed,
        }


#: ``QUARTER_FACTORS`` stacked in quarter order S1..S4, and the letters
#: stacked as (MA, MB), indexed by the projection bit.
_FACTOR_STACK = np.stack([QUARTER_FACTORS[f"S{i}"] for i in range(1, 5)])
_LETTER_STACK = np.stack([MA, MB])


def _apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row-wise ``mats[i] @ vecs[i]`` for stacks of 3x3 matrices and 3-vectors."""
    return np.einsum("nij,nj->ni", mats, vecs)


def _level_routes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(shifts, product, reconstruction)`` for every odd shift of order ``m``.

    The batched forms of :func:`v_product` and ``normal_form(m, k).reconstruct()``:
    row ``i`` of each ``(2^(m-1), 3)`` array belongs to ``shifts[i]``.
    Raises :class:`NormalFormError` as :func:`_regroup` would, for the
    smallest shift whose chain has a non-letter pair.
    """
    shifts = np.arange(1, 1 << m, 2, dtype=np.int64)
    # quarters[i, j]: quarter index (0..3) of shift j at level m - i
    quarters = np.empty((m - 2, shifts.size), dtype=np.intp)
    shift = shifts.copy()
    for i, level in enumerate(range(m, 2, -1)):
        quarters[i] = shift >> (level - 2)
        shift = np.where(quarters[i] >= 2, (1 << level) - shift, shift)
    seed_swap = (quarters[-1] == 1) | (quarters[-1] == 2)  # S2 or S3 at level 3

    prod = np.where(seed_swap[:, None], SWAP @ SEED, SEED)
    for q in quarters[::-1]:
        prod = _apply(_FACTOR_STACK[q], prod)

    # Between consecutive STEPs sit PROJ^b (this level) and SWAP^a (next level
    # down, or the seed swap): (1, 0) is MB, (0, 1) is MA, anything else is
    # not a letter.
    swap_bits, proj_bits = np.array([_EXPONENTS[f"S{i}"] for i in range(1, 5)]).T
    proj = proj_bits[quarters]
    swap_next = np.vstack([swap_bits[quarters[1:]], seed_swap[None, :]])
    bad = proj == swap_next
    if bad.any():
        col = int(np.argmax(bad.any(axis=0)))
        row = int(np.argmax(bad[:, col]))
        raise NormalFormError(
            f"factor STEP PROJ^{proj[row, col]} SWAP^{swap_next[row, col]} is not a single letter"
        )
    recon = np.broadcast_to(SEED, (shifts.size, 3))
    for row in proj[::-1]:  # the letter is MB where the projection bit is set
        recon = _apply(_LETTER_STACK[row], recon)
    delta = swap_bits[quarters[0]].astype(bool)
    recon[delta] = recon[delta][:, [1, 0, 2]]
    return shifts, prod, recon


def verify_decomposition(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> DecompositionReport:
    """Check the product route and the normal-form reconstruction against the
    tables for every odd shift, orders 3..m_max.

    Both routes run batched over all odd shifts of one level
    (:func:`_level_routes`); the scalar :func:`v_product` and
    :func:`normal_form` are pinned to the batched vectors at every shift by
    the tests.
    """
    check_order(m_max, max_order)
    failures = []
    cases = 0
    prev = None
    for table in iter_aperiodic_tables(m_max, max_order):
        m = table.m
        if m >= 3:
            n = 1 << m
            shifts, prod, recon = _level_routes(m)
            cases += shifts.size
            k_prev = np.where(shifts <= n >> 1, shifts, n - shifts)
            direct = np.column_stack(
                [table.values[shifts], table.values[n - shifts], prev[k_prev]]
            )
            bad = np.any(direct != prod, axis=1) | np.any(direct != recon, axis=1)
            for i in np.nonzero(bad)[0]:
                failures.append(
                    (m, int(shifts[i]), direct[i].tolist(), prod[i].tolist(), recon[i].tolist())
                )
        prev = table.values
    notes = (
        "near-two-thirds shifts: v_m(nearest_third(m)) follows the chain form "
        "(SWAP@STEP)^(m-2) @ (-1, 1, 1); the shorter display "
        "(SWAP@STEP)^(m-3) @ (-1, 1, -1) disagrees already at m=3 "
        "(it yields first component -1 where the table value is +1)",
        "the first component equals the table value with matrix power m-2; "
        "an m-1 exponent would overshoot by one factor",
    )
    return DecompositionReport(m_max, cases, tuple(failures), notes)


@dataclass(frozen=True)
class RecurrenceReport:
    """Fast-vs-oracle agreement for the autocorrelation tables."""

    check: str
    m_max: int
    cases: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "m_max": self.m_max,
            "cases": self.cases,
            "failures": [list(f) for f in self.failures],
            "passed": self.passed,
        }


def verify_recurrences(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> RecurrenceReport:
    """Compare the fast aperiodic tables against the direct-sum oracle."""
    from .autocorr import aperiodic_table_naive

    check_order(m_max, max_order)
    failures = []
    cases = 0
    for table in iter_aperiodic_tables(m_max, max_order):
        oracle = aperiodic_table_naive(table.m, max_order)
        cases += len(oracle)
        if not np.array_equal(table.values, oracle.values):
            bad = np.nonzero(table.values != oracle.values)[0]
            for k in bad:
                failures.append((table.m, int(k), int(table.values[k]), int(oracle.values[k])))
    return RecurrenceReport("recurrences", m_max, cases, tuple(failures))


def verify_periodic_formula(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> RecurrenceReport:
    """Compare the structural periodic tables against the direct-sum oracle."""
    from .autocorr import iter_table_pairs, periodic_table_naive

    check_order(m_max, max_order)
    failures = []
    cases = 0
    for _, fast in iter_table_pairs(m_max, max_order):
        m = fast.m
        oracle = periodic_table_naive(m, max_order)
        cases += len(oracle)
        if not np.array_equal(fast.values, oracle.values):
            bad = np.nonzero(fast.values != oracle.values)[0]
            for k in bad:
                failures.append((m, int(k), int(fast.values[k]), int(oracle.values[k])))
    return RecurrenceReport("periodic-formula", m_max, cases, tuple(failures))
