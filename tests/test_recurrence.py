import json
import time

import numpy as np
import pytest

from rscorr import autocorr, recurrence
from rscorr.autocorr import aperiodic_table_fast
from rscorr.recurrence import (
    MAX_CHAIN_ORDER,
    MAX_WORD_LENGTH,
    MA,
    MB,
    PROJ,
    SEED,
    STEP,
    SWAP,
    NormalForm,
    NormalFormError,
    _chain,
    _letters,
    _level_routes,
    _routes,
    check_floor_ceil_identities,
    interval_label,
    nearest_third,
    normal_form,
    shift_chain,
    t_factor,
    v_direct,
    v_product,
    verify_decomposition,
    verify_recurrences,
)

# published generator matrices
STEP_REF = [[0, 1, 2], [0, -1, 2], [1, 0, 0]]
SWAP_REF = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
PROJ_REF = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]


def test_generator_matrices():
    assert STEP.tolist() == STEP_REF
    assert SWAP.tolist() == SWAP_REF
    assert PROJ.tolist() == PROJ_REF
    assert MA.tolist() == (np.array(STEP_REF) @ np.array(SWAP_REF)).tolist()
    assert MB.tolist() == (np.array(STEP_REF) @ np.array(PROJ_REF)).tolist()


def test_quarter_factors():
    assert t_factor("S2").tolist() == STEP_REF
    assert t_factor("S1").tolist() == [[0, 1, 0], [0, -1, 0], [1, 0, 0]]
    assert t_factor("S3").tolist() == [[0, -1, 2], [0, 1, 2], [1, 0, 0]]
    assert t_factor("S4").tolist() == [[0, -1, 0], [0, 1, 0], [1, 0, 0]]
    with pytest.raises(ValueError):
        t_factor("S5")


def test_interval_label():
    assert interval_label(5, 3) == "S3"
    assert interval_label(1, 3) == "S1"
    assert interval_label(11, 4) == "S3"
    with pytest.raises(ValueError):
        interval_label(4, 3)  # even
    with pytest.raises(ValueError):
        interval_label(9, 3)  # out of range
    with pytest.raises(ValueError):
        interval_label(1, 2)  # order too small


def test_shift_chain_examples():
    chain = shift_chain(5, 3)
    assert [(s.level, s.shift, s.label) for s in chain.steps] == [(3, 5, "S3")]
    chain = shift_chain(11, 4)
    assert [(s.level, s.shift, s.label) for s in chain.steps] == [(4, 11, "S3"), (3, 5, "S3")]
    assert chain.to_dict() == {"m": 4, "steps": [[4, 11, "S3"], [3, 5, "S3"]]}


def test_chain_consistency():
    # shift is preserved at the next level exactly for first-half quarters
    for m in range(3, 11):
        for k in range(1, 1 << m, 2):
            steps = shift_chain(k, m).steps
            for cur, nxt in zip(steps, steps[1:]):
                if cur.label in ("S1", "S2"):
                    assert nxt.shift == cur.shift
                else:
                    assert nxt.shift == (1 << cur.level) - cur.shift


def test_adjacency_law():
    # a projection step is never followed by a swapped quarter and vice versa
    follows = {"S1": ("S1", "S2"), "S4": ("S1", "S2"), "S2": ("S3", "S4"), "S3": ("S3", "S4")}
    for m in range(3, 13):
        for k in range(1, 1 << m, 2):
            labels = shift_chain(k, m).labels()
            for cur, nxt in zip(labels, labels[1:]):
                assert nxt in follows[cur], (m, k, cur, nxt)


def test_near_two_thirds_chain_is_all_s3():
    for m in range(3, 21):
        assert set(shift_chain(nearest_third(m), m).labels()) == {"S3"}


def test_v_direct_frozen_examples():
    assert v_direct(3, 5).tolist() == [1, 3, -1]
    assert v_direct(4, 11).tolist() == [-5, 1, 1]
    assert v_direct(3, 1).tolist() == [-1, 1, 1]


def test_v_product_equals_v_direct():
    for m in range(3, 11):
        for k in range(1, 1 << m, 2):
            assert np.array_equal(v_product(m, k), v_direct(m, k)), (m, k)


def test_normal_form_examples():
    nf = normal_form(3, 5)
    assert (nf.delta, nf.letters) == (1, ("MA",))
    nf = normal_form(3, 1)
    assert (nf.delta, nf.letters) == (0, ("MB",))
    assert nf.to_dict() == {"m": 3, "k": 1, "delta": 0, "word": ["MB"]}


def test_normal_form_reconstruction():
    for m in range(3, 11):
        for k in range(1, 1 << m, 2):
            nf = normal_form(m, k)
            assert len(nf.letters) == m - 2
            assert nf.delta in (0, 1)
            assert np.array_equal(nf.reconstruct(), v_direct(m, k)), (m, k)


def test_regroup_rejects_impossible_factor():
    with pytest.raises(NormalFormError):
        _letters(np.array([0, 2]), 0)  # S1 then S3: projection followed by swap
    with pytest.raises(NormalFormError):
        _letters(np.array([1]), 0)  # a bare S2 step absorbs nothing


def test_seed_vector():
    assert SEED.tolist() == [1, -1, 1]
    # first-quarter chain keeps the seed: single factor times (1,-1,1)
    assert v_product(3, 1).tolist() == (t_factor("S1") @ SEED).tolist()


def test_nearest_third_values():
    assert nearest_third(2) == 3
    assert nearest_third(3) == 5
    assert nearest_third(4) == 11
    for m in range(1, 21):
        ell = nearest_third(m)
        assert ell % 2 == 1
        assert abs(ell - (1 << (m + 1)) / 3) < 0.5


def test_floor_ceil_identities():
    # m=1: floor(4/3)=1 and 4-ceil(8/3)=1; m=2: ceil(8/3)=3 and 8-floor(16/3)=3
    report = check_floor_ceil_identities(40)
    assert report.passed
    assert report.to_dict()["failures"] == []


def test_lower_bound_matrix_form():
    # first component of (SWAP@STEP)^(m-2) @ (-1,1,1) equals the table value
    am = SWAP @ STEP
    for m in range(3, 13):
        value = int((np.linalg.matrix_power(am, m - 2) @ np.array([-1, 1, 1]))[0])
        assert value == aperiodic_table_fast(m)[nearest_third(m)], m


def test_verify_reports():
    rep = verify_recurrences(8)
    assert rep.passed and rep.cases > 0
    rep = verify_decomposition(8)
    assert rep.passed and rep.cases == sum(1 << (m - 1) for m in range(3, 9))
    assert any("m-2" in note for note in rep.notes)
    assert any("disagrees" in note for note in rep.notes)


def test_level_routes_match_scalar_routes():
    for m in range(3, 11):
        shifts, prod, recon = _level_routes(m)
        assert shifts.tolist() == list(range(1, 1 << m, 2))
        for k, p, r in zip(shifts.tolist(), prod, recon):
            assert np.array_equal(p, v_product(m, k)), (m, k)
            assert np.array_equal(r, normal_form(m, k).reconstruct()), (m, k)


def _first_regroup_error(m):
    for k in range(1, 1 << m, 2):
        try:
            normal_form(m, k)
        except NormalFormError as exc:
            return str(exc)
    return None


def test_level_routes_reject_non_letter_like_regroup(monkeypatch):
    # with these bits the smallest bad shift at m=4 first meets PROJ^0 SWAP^0,
    # while later pairs and later shifts carry PROJ^1 SWAP^1
    monkeypatch.setitem(recurrence._EXPONENTS, "S3", (0, 1))
    monkeypatch.setitem(recurrence._EXPONENTS, "S4", (0, 1))
    assert "PROJ^0 SWAP^0" in _first_regroup_error(4)
    for m in range(3, 8):
        expected = _first_regroup_error(m)
        if expected is None:
            _level_routes(m)
            continue
        with pytest.raises(NormalFormError) as info:
            _level_routes(m)
        assert str(info.value) == expected, m


def test_verify_decomposition_reports_corrupted_entry(monkeypatch):
    def corrupted(m_max, max_order):
        for m, level in enumerate(autocorr._odd_levels(m_max, max_order)):
            if m == 6:
                level = level.copy()
                level[21 >> 1] += 7  # the compact level holds C_6(21) at index 10
            yield level

    monkeypatch.setattr(recurrence, "_odd_levels", corrupted)
    rep = verify_decomposition(8)
    # C_6(21) feeds v_6(21), v_6(43), v_7(21) and v_7(107); the product and
    # the normal form still carry the true values
    assert not rep.passed and rep.cases == 252
    assert rep.failures == (
        (6, 21, [0, -13, 1], [-7, -13, 1], [-7, -13, 1]),
        (6, 43, [-13, 0, 1], [-13, -7, 1], [-13, -7, 1]),
        (7, 21, [-13, 13, 0], [-13, 13, -7], [-13, 13, -7]),
        (7, 107, [13, -13, 0], [13, -13, -7], [13, -13, -7]),
    )
    json.dumps(rep.to_dict())  # plain ints only


def test_verify_decomposition_reports_each_route(monkeypatch):
    # a wrong S1 factor breaks the product route only; the normal form and
    # the table still agree
    stack = recurrence._FACTOR_STACK.copy()
    stack[0] *= 2
    monkeypatch.setattr(recurrence, "_FACTOR_STACK", stack)
    rep = verify_decomposition(5)
    expected = [
        (m, k) for m in range(3, 6) for k in range(1, 1 << m, 2)
        if "S1" in shift_chain(k, m).labels()
    ]
    assert [(f[0], f[1]) for f in rep.failures] == expected
    for m, k, direct, prod, recon in rep.failures:
        assert direct == recon == normal_form(m, k).reconstruct().tolist() != prod


def _sequential_chain(m, k):
    """Reference chain in Python ints: the quarter is the top two digits of
    the shift at each level, and quarters 3-4 reflect it, ``s -> 2^level - s``.
    Returns the ``(level, shift, label)`` steps and ``v_m(k)``."""
    factors = {f"S{q}": t_factor(f"S{q}").tolist() for q in range(1, 5)}
    steps = []
    shift = k
    for level in range(m, 2, -1):
        q = shift >> (level - 2)
        steps.append((level, shift, f"S{q + 1}"))
        if q >= 2:
            shift = (1 << level) - shift
    v = [-1, 1, 1] if steps[-1][2] in ("S2", "S3") else [1, -1, 1]
    for _, _, label in reversed(steps):
        v = [sum(a * b for a, b in zip(row, v)) for row in factors[label]]
    return steps, v


def test_chain_order_cap():
    # at the cap every route equals the Python-int product of the sequential
    # chain; past it each refuses, where int64 would wrap silently
    m = MAX_CHAIN_ORDER
    assert m == 62
    rng = np.random.default_rng(62)
    shifts = np.array(
        [nearest_third(m), *(2 * rng.integers(0, 1 << (m - 1), 100) + 1)], dtype=np.int64
    )
    prod, recon = _routes(m, shifts)
    for i, k in enumerate(shifts.tolist()):
        steps, v = _sequential_chain(m, k)
        assert [(s.level, s.shift, s.label) for s in shift_chain(k, m).steps] == steps
        assert v_product(m, k).tolist() == v, k
        assert normal_form(m, k).reconstruct().tolist() == v, k
        assert prod[i].tolist() == recon[i].tolist() == v, k
    k = nearest_third(m + 1)
    for route in (lambda: shift_chain(k, m + 1), lambda: v_product(m + 1, k),
                  lambda: normal_form(m + 1, k), lambda: _routes(m + 1, np.array([1, 3]))):
        with pytest.raises(ValueError, match="chain cap"):
            route()


def test_odd_shifts_map_one_to_one_onto_normal_forms():
    for m in range(3, 17):
        shifts = np.arange(1, 1 << m, 2, dtype=np.int64)
        delta, proj = _letters(*_chain(m, shifts))
        # (delta, word) as one integer: delta on top, the letter of level
        # m - i at bit i (1 for MB)
        codes = delta << (m - 2)
        for i, row in enumerate(proj):
            codes = codes | (row << i)
        assert np.array_equal(np.sort(codes), np.arange(1 << (m - 1))), m
        # inverse digit map: b_(m-1) = delta, b_(L-2) = b_(L-1) exactly where
        # letter L is MB, and b_0 = 1
        digit = delta.astype(np.int64)
        k = (digit << (m - 1)) | 1
        for i, row in enumerate(proj):
            digit = digit ^ (1 - row)
            k = k | (digit << (m - 2 - i))
        assert np.array_equal(k, shifts), m


def test_max_autocorrelation_is_max_over_words():
    # max over odd k of |C_m(k)| = max over words W of m-2 letters of the
    # first two components of W @ SEED: the fact a word search rests on
    letters = np.stack([MA, MB])
    for m, odd in enumerate(autocorr._odd_levels(16)):
        if m < 3:
            continue
        words = np.arange(1 << (m - 2))
        vecs = np.broadcast_to(SEED, (words.size, 3))
        for i in range(m - 2):
            vecs = np.einsum("nij,nj->ni", letters[(words >> i) & 1], vecs)
        assert np.abs(odd).max() == np.abs(vecs[:, :2]).max(), m


def test_routes_on_random_shifts():
    rng = np.random.default_rng(40)
    shifts = 2 * rng.integers(0, 1 << 39, 100_000) + 1
    start = time.perf_counter()
    prod, recon = _routes(40, shifts)
    assert time.perf_counter() - start < 1.0
    for i in rng.choice(shifts.size, 500, replace=False):
        k = int(shifts[i])
        assert np.array_equal(prod[i], v_product(40, k)), k
        assert np.array_equal(recon[i], normal_form(40, k).reconstruct()), k

    m = 24
    n = 1 << m
    prev = top = None
    for odd in autocorr._odd_levels(m):
        prev, top = top, odd
    shifts = 2 * rng.integers(0, n >> 1, 100_000) + 1
    k_prev = np.where(shifts <= n >> 1, shifts, n - shifts)
    direct = np.column_stack(
        [autocorr._odd_values(top, shifts), autocorr._odd_values(top, n - shifts),
         autocorr._odd_values(prev, k_prev)]
    )
    prod, recon = _routes(m, shifts)
    assert np.array_equal(prod, direct)
    assert np.array_equal(recon, direct)


def test_normal_form_word_cap():
    # a word at the cap still reconstructs exactly (normal forms at the chain
    # cap have 60 letters); a longer one is refused, where int64 would wrap
    letters = ("MA", "MB") * 30 + ("MA",)
    assert len(letters) == MAX_WORD_LENGTH >= MAX_CHAIN_ORDER - 2
    mats = {"MA": MA.tolist(), "MB": MB.tolist()}
    v = SEED.tolist()
    for letter in reversed(letters):
        v = [sum(a * b for a, b in zip(row, v)) for row in mats[letter]]
    v = [v[1], v[0], v[2]]  # SWAP
    assert NormalForm(63, 1, 1, letters).reconstruct().tolist() == v
    with pytest.raises(ValueError, match="word of 88 letters exceeds the cap 61"):
        NormalForm(90, 1, 0, ("MA",) * 88).reconstruct()
