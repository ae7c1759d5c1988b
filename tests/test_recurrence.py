import json

import numpy as np
import pytest

from rscorr import recurrence
from rscorr.autocorr import AutocorrTable, aperiodic_table_fast, iter_aperiodic_tables
from rscorr.recurrence import (
    MA,
    MB,
    PROJ,
    SEED,
    STEP,
    SWAP,
    NormalFormError,
    _level_routes,
    _regroup,
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
        _regroup(["S1", "S3"], 0)  # projection followed by swap
    with pytest.raises(NormalFormError):
        _regroup(["S2"], 0)  # bare step absorbs nothing


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
        for table in iter_aperiodic_tables(m_max, max_order):
            if table.m == 6:
                values = table.values.copy()
                values[21] += 7
                table = AutocorrTable(6, "aperiodic", values)
            yield table

    monkeypatch.setattr(recurrence, "iter_aperiodic_tables", corrupted)
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
