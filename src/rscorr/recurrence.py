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

The chain is read from the binary digits ``b_i`` of ``k``: reflecting an
odd shift ``s -> 2^L - s`` flips its digits ``1..L-1``, so the reflections
above level ``L`` have parity ``b_L``.  The shift at level ``L`` is thus
``k mod 2^L``, or ``2^L`` minus that when ``b_L`` is set; its quarter index
(0..3 for S1..S4) is ``2 (b_(L-1) ^ b_L) + (b_(L-2) ^ b_L)``; the seed is
swapped when ``b_2 != b_1``; ``delta = b_(m-1)``; and the letter of level
``L`` is ``MB`` when ``b_(L-1) = b_(L-2)``, else ``MA``.

Everything here is exact 64-bit integer arithmetic; the chain routes refuse
orders above :data:`MAX_CHAIN_ORDER`, past which ``2^m`` leaves int64, and
word products refuse words longer than :data:`MAX_WORD_LENGTH`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autocorr import _odd_levels, _odd_values, iter_aperiodic_tables
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

#: ``QUARTER_FACTORS`` stacked in quarter order S1..S4, the letters stacked
#: as (MA, MB), indexed by the projection bit, and the seeds stacked as
#: (SEED, SWAP @ SEED), indexed by the seed swap.
_FACTOR_STACK = np.stack([QUARTER_FACTORS[f"S{i}"] for i in range(1, 5)])
_LETTER_STACK = np.stack([MA, MB])
_SEED_STACK = np.stack([SEED, SWAP @ SEED])

#: Quarter label -> (swap exponent, projection exponent) in SWAP^a STEP PROJ^b.
_EXPONENTS = {"S1": (0, 1), "S2": (0, 0), "S3": (1, 0), "S4": (1, 1)}

#: Largest order of the chain routes: shifts and ``2^m`` stay int64.
MAX_CHAIN_ORDER = 62
#: Longest word whose int64 product is exact.  With ``D = diag(1, 1, 2)``,
#: ``||D M D^-1||_inf`` is 2 for both letters and 1 for ``SWAP``, so every
#: entry of a product of ``n`` letters (after ``SWAP^delta``, and times
#: ``SEED``), and every partial sum in it, is at most ``2^(n+1)`` in
#: magnitude.  It covers the ``m - 2`` letters of every normal form at
#: orders up to :data:`MAX_CHAIN_ORDER`.
MAX_WORD_LENGTH = 61


def check_word_length(n: int) -> None:
    """Refuse a word of ``n`` letters whose product could leave int64."""
    if n > MAX_WORD_LENGTH:
        raise ValueError(f"a word of {n} letters exceeds the cap {MAX_WORD_LENGTH}")


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


def _chain(m: int, k):
    """``(quarters, seed_swap)`` of the odd shift ``k`` at order ``m``, from its
    digits: ``quarters[i]`` is the quarter index at level ``m - i``.  ``k`` is
    one Python int or an int64 array of shifts (one column per shift)."""
    if m > MAX_CHAIN_ORDER:
        raise ValueError(f"order {m} exceeds the chain cap {MAX_CHAIN_ORDER}")
    quarters = np.empty((m - 2, *np.shape(k)), dtype=np.intp)
    for row, level in enumerate(range(m, 2, -1)):
        # digits level-1 and level-2, both flipped when digit ``level`` is set
        quarters[row] = ((k >> (level - 2)) & 3) ^ (3 * ((k >> level) & 1))
    return quarters, ((k >> 1) ^ (k >> 2)) & 1


def _letters(quarters: np.ndarray, seed_swap):
    """``(delta, proj)`` of a chain: the leading swap bit, and the projection
    bit of each level's letter (``MB`` where set, ``MA`` where clear).

    Flattening the factor chain gives ``... STEP PROJ^b_i SWAP^a_{i-1} STEP ...``;
    between consecutive STEPs exactly one of the two bits is set, so each STEP
    absorbs one letter to its right.  Raises :class:`NormalFormError` at the
    first shift, and its first level, where that fails.
    """
    swap_bits, proj_bits = np.array([_EXPONENTS[f"S{i}"] for i in range(1, 5)], dtype=np.intp).T
    proj = proj_bits[quarters]
    swap_next = np.concatenate([swap_bits[quarters[1:]], [seed_swap]])
    bad = proj == swap_next
    if bad.any():
        # transposed, the first hit is the smallest shift's first bad level
        at = tuple(np.argwhere(bad.T)[0][::-1])
        raise NormalFormError(
            f"factor STEP PROJ^{proj[at]} SWAP^{swap_next[at]} is not a single letter"
        )
    return swap_bits[quarters[0]], proj


def shift_chain(k: int, m: int) -> ShiftChain:
    """Shift and quarter of the odd shift ``k`` at levels ``m..3``: ``k mod 2^L``,
    reflected to ``2^L - (k mod 2^L)`` when digit ``L`` of ``k`` is set."""
    interval_label(k, m)
    steps = []
    for level, q in zip(range(m, 2, -1), _chain(m, k)[0].tolist()):
        low = k & ((1 << level) - 1)
        shift = (1 << level) - low if (k >> level) & 1 else low
        steps.append(ChainStep(level, shift, f"S{q + 1}"))
    return ShiftChain(m, tuple(steps))


def t_factor(label: str) -> np.ndarray:
    """The recurrence factor for a quarter label."""
    try:
        return QUARTER_FACTORS[label].copy()
    except KeyError:
        raise ValueError(f"unknown quarter label {label!r}") from None


def v_direct(m: int, k: int, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """Read ``v_m(k)`` straight out of the autocorrelation values of orders
    ``m`` and ``m-1`` (the compact ladder; all three shifts are odd)."""
    check_order(m, max_order)
    interval_label(k, m)  # validates k
    n = 1 << m
    prev = top = None
    for level in _odd_levels(m, max_order):
        prev, top = top, level
    k_prev = k if k <= n >> 1 else n - k
    return np.array(
        [_odd_values(top, k), _odd_values(top, n - k), _odd_values(prev, k_prev)], dtype=np.int64
    )


def v_product(m: int, k: int) -> np.ndarray:
    """Rebuild ``v_m(k)`` by applying the factor chain to the seed vector."""
    interval_label(k, m)
    quarters, seed_swap = _chain(m, k)
    v = _SEED_STACK[seed_swap]
    for q in quarters[::-1].tolist():
        v = _FACTOR_STACK[q] @ v
    return v


@dataclass(frozen=True)
class NormalForm:
    """``SWAP^delta * (letter word) * seed`` presentation of ``v_m(k)``."""

    m: int
    k: int
    delta: int
    letters: tuple[str, ...]

    def matrix(self) -> np.ndarray:
        """Exact integer product ``SWAP^delta * letters``."""
        check_word_length(len(self.letters))
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
    interval_label(k, m)
    delta, proj = _letters(*_chain(m, k))
    return NormalForm(m, k, int(delta), tuple("MB" if b else "MA" for b in proj.tolist()))


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


def _fold(stack: np.ndarray, rows: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Column-wise ``stack[rows[0]] @ stack[rows[1]] @ ... @ vecs`` for a
    ``(levels, n)`` index array and ``n`` 3-vectors."""
    for row in rows[::-1]:
        vecs = np.einsum("nij,nj->ni", stack[row], vecs)
    return vecs


def _routes(m: int, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(product, reconstruction)`` for an int64 array of odd shifts of order ``m``.

    The batched forms of :func:`v_product` and ``normal_form(m, k).reconstruct()``:
    row ``i`` of each ``(shifts.size, 3)`` array belongs to ``shifts[i]``.
    Raises :class:`NormalFormError` as :func:`normal_form` would, for the
    first shift whose chain has a non-letter pair.
    """
    quarters, seed_swap = _chain(m, shifts)
    delta, proj = _letters(quarters, seed_swap)
    prod = _fold(_FACTOR_STACK, quarters, _SEED_STACK[seed_swap])
    recon = _fold(_LETTER_STACK, proj, np.broadcast_to(SEED, (shifts.size, 3)))
    return prod, np.where(delta[:, None] == 1, recon[:, [1, 0, 2]], recon)


def _level_routes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(shifts, product, reconstruction)`` for every odd shift of order ``m``."""
    shifts = np.arange(1, 1 << m, 2, dtype=np.int64)
    return (shifts, *_routes(m, shifts))


def verify_decomposition(m_max: int, max_order: int = DEFAULT_MAX_ORDER) -> DecompositionReport:
    """Check the product route and the normal-form reconstruction against the
    compact table levels for every odd shift, orders 3..m_max.

    Both routes run batched over all odd shifts of one level
    (:func:`_level_routes`) and read the quarters from one digit rule, so
    the table is the route independent of that rule.  The scalar
    :func:`v_product` and :func:`normal_form` read the same rule; the tests
    pin them to the batched vectors at every shift.
    """
    check_order(m_max, max_order)
    failures = []
    cases = 0
    prev = None
    for m, odd in enumerate(_odd_levels(m_max, max_order)):
        if m >= 3:
            n = 1 << m
            shifts, prod, recon = _level_routes(m)
            cases += shifts.size
            k_prev = np.where(shifts <= n >> 1, shifts, n - shifts)
            direct = np.column_stack(
                [_odd_values(odd, shifts), _odd_values(odd, n - shifts), _odd_values(prev, k_prev)]
            )
            bad = np.any(direct != prod, axis=1) | np.any(direct != recon, axis=1)
            for i in np.nonzero(bad)[0]:
                failures.append(
                    (m, int(shifts[i]), direct[i].tolist(), prod[i].tolist(), recon[i].tolist())
                )
        prev = odd
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
