import numpy as np
import pytest

from rscorr.jsr import (
    MAX_BNB_DEPTH,
    ProductWord,
    bnb_bracket,
    invariant_polytope,
    irreducibility_check,
    spectral_radius,
)
from rscorr.norms import eigen_constants, spectral_norm
from rscorr.recurrence import MA, MAX_WORD_LENGTH, MB, PROJ, SWAP

LAM = eigen_constants().lam


def test_spectral_radius_values():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(MA) == pytest.approx(LAM, abs=1e-12)
    # characteristic cubic of MB is -x^2 (1 + x): eigenvalues 0, 0, -1
    assert spectral_radius(MB) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_power_iteration_oracle():
    x = np.array([1.0, 0.7, -0.3])
    growth = None
    for _ in range(300):
        y = MB.astype(float) @ x
        growth = np.linalg.norm(y) / np.linalg.norm(x)
        x = y / np.linalg.norm(y)
    assert spectral_radius(MB) == pytest.approx(growth, abs=1e-9)


def test_product_word():
    w = ProductWord.make(("MA", "MB", "MA"))
    assert np.array_equal(w.matrix, MA @ MB @ MA)
    assert len(w) == 3
    with pytest.raises(ValueError):
        ProductWord.make(("MC",))


def test_irreducibility_of_the_pair():
    assert irreducibility_check((MA, MB)).irreducible


def test_reducible_pairs():
    res = irreducibility_check((np.eye(3, dtype=np.int64), np.eye(3, dtype=np.int64)))
    assert not res.irreducible
    res = irreducibility_check((SWAP, PROJ))
    assert not res.irreducible
    w = res.witness
    # the witness really is a common eigenvector of both matrices
    for mat in (SWAP, PROJ):
        img = mat.astype(complex) @ w
        cross = np.linalg.norm(img - (np.vdot(w, img) / np.vdot(w, w)) * w)
        assert cross < 1e-8


def test_bracket_depth_one():
    br = bnb_bracket(1)
    assert br.lower == pytest.approx(LAM, abs=1e-12)
    assert br.upper == pytest.approx(max(spectral_norm(MA), spectral_norm(MB)), abs=1e-12)
    assert br.witness == ("MA",)


def test_bracket_validity_and_monotonicity():
    prev = None
    for depth in range(1, 11):
        br = bnb_bracket(depth)
        assert br.lower <= LAM + 1e-9
        assert br.upper >= LAM - 1e-9
        if prev is not None:
            assert br.lower >= prev.lower - 1e-12
            assert br.upper <= prev.upper + 1e-12
        prev = br
    assert max(spectral_radius(MA), spectral_radius(MB)) == pytest.approx(LAM, abs=1e-12)


def test_bracket_tightness():
    assert bnb_bracket(8).upper / bnb_bracket(8).lower <= 1.05
    br = bnb_bracket(12)
    assert br.upper / br.lower <= 1.02


def test_bracket_deterministic_and_serializable():
    a, b = bnb_bracket(6), bnb_bracket(6)
    assert a == b
    payload = a.to_dict()
    assert set(payload) == {"depth", "lower", "upper", "witness"}
    assert payload["witness"] == ["MA"]


def test_bracket_norm_scale_stays_valid():
    br = bnb_bracket(8, norm_scale=2.0)
    assert br.lower <= LAM + 1e-9 <= br.upper + 2e-9


def test_bracket_validation():
    with pytest.raises(ValueError):
        bnb_bracket(0)
    with pytest.raises(ValueError):
        bnb_bracket(MAX_BNB_DEPTH + 1)
    with pytest.raises(ValueError):
        bnb_bracket(4, norm_scale=0.0)


def test_invariant_polytope_success():
    run = invariant_polytope(tol=1e-8)
    assert run.success
    assert run.rounds <= 10
    assert 24 <= run.vertex_count <= 36
    assert run.max_violation <= 1e-8
    assert run.scale == pytest.approx(LAM, abs=1e-12)
    poly = run.polytope
    assert poly.is_centrally_symmetric()
    # direct containment certificate: both letters map vertices into scale * P
    for mat in (MA, MB):
        images = (poly.vertices @ mat.T.astype(float)) / run.scale
        assert float(np.max(poly.relative_violations(images))) <= 1e-8
    payload = run.to_dict()
    assert {"vertices", "rounds", "max_violation"} <= set(payload)
    assert len(payload["vertices"]) == run.vertex_count


def test_invariant_polytope_longer_candidate():
    run = invariant_polytope(ProductWord.make(("MA", "MA")), max_rounds=25)
    assert run.scale == pytest.approx(LAM, abs=1e-10)
    assert run.success


def test_invariant_polytope_failure_for_small_candidate():
    # spectral radius 1 < true growth: vertices escape until the round cap
    run = invariant_polytope(ProductWord.make(("MB",)), max_rounds=6)
    assert not run.success
    assert run.rounds == 6
    assert run.escaped is not None
    assert run.polytope is None
    assert "escaped" in run.to_dict()


def test_invariant_polytope_rejects_nilpotent_candidate():
    nil = {"N": np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int64)}
    with pytest.raises(ValueError):
        invariant_polytope(ProductWord.make(("N",), nil), matrices=nil)


def test_invariant_polytope_tolerance_robustness():
    for tol in (1e-6, 1e-10):
        run = invariant_polytope(tol=tol)
        assert run.success
        assert run.max_violation <= tol
        assert 24 <= run.vertex_count <= 36


def test_bracket_takes_custom_pair():
    # commuting diagonal pair: every product is diagonal with top entry
    # 2^(number of X letters), so the enclosure collapses onto 2
    pair = {
        "X": np.diag([2, 1, 0]).astype(np.int64),
        "Y": np.eye(3, dtype=np.int64),
    }
    br = bnb_bracket(4, matrices=pair)
    assert br.lower == pytest.approx(2.0, abs=1e-12)
    assert br.upper == pytest.approx(2.0, abs=1e-12)
    assert br.witness == ("X",)


def _exact_charpoly_radius(mat) -> float:
    """Largest root modulus of the characteristic polynomial, with its
    integer coefficients from Newton's identities on traces of powers."""
    a = np.array(np.asarray(mat).tolist(), dtype=object)
    a2 = a @ a
    p1, p2, p3 = (int(np.trace(x)) for x in (a, a2, a2 @ a))
    e2, rem2 = divmod(p1 * p1 - p2, 2)
    e3, rem3 = divmod(p1**3 - 3 * p1 * p2 + 2 * p3, 6)
    assert rem2 == rem3 == 0
    return float(np.max(np.abs(np.roots([1.0, -float(p1), float(e2), -float(e3)]))))


#: Words (A = MA, B = MB) on which QR eigenvalues of the product miss the
#: exact radius by more than 1e-12 relative: rho = 3, 1, 1 with norms
#: about 721, 478 and 374.
NON_NORMAL_WORDS = ("AAAAABABBABAABAA", "BABBABAAAAABAAA", "AAABAAAAABBBBAA")


def _word(spelled: str) -> np.ndarray:
    return ProductWord.make(tuple("M" + c for c in spelled)).matrix


def test_spectral_radius_matches_exact_characteristic_polynomial():
    rng = np.random.default_rng(11)
    words = [_word(s) for s in NON_NORMAL_WORDS]
    words += [_word("".join(rng.choice(["A", "B"], size=rng.integers(1, 25))))
              for _ in range(300)]
    for mat in words:
        ref = _exact_charpoly_radius(mat)
        assert spectral_radius(mat) == pytest.approx(ref, rel=1e-12, abs=1e-12), mat.tolist()


def test_product_word_is_frozen_and_read_only():
    w = ProductWord.make(["MB", "MA"], {"MA": MA, "MB": MB})
    assert w.letters == ("MB", "MA")
    assert np.array_equal(w.matrix, MB @ MA)
    with pytest.raises(ValueError):
        w.matrix[0, 0] = 7
    with pytest.raises(AttributeError):
        w.letters = ("MA",)
    with pytest.raises(ValueError, match="letter 'MC' not in alphabet"):
        ProductWord.make(("MA", "MC"))


def test_product_word_length_cap():
    # up to the cap the int64 product is the Python-int one; one more letter
    # is refused, where 87 letters of MA would wrap silently
    for letters in (("MA",) * MAX_WORD_LENGTH, ("MB", "MA") * 30 + ("MB",)):
        exact = np.array(_int_product(letters), dtype=object)
        assert np.array_equal(ProductWord.make(letters).matrix, exact)
        assert max(abs(int(x)) for x in exact.ravel()) <= 1 << (len(letters) + 1)
    for n in (MAX_WORD_LENGTH + 1, 87):
        with pytest.raises(ValueError, match=f"word of {n} letters exceeds the cap"):
            ProductWord.make(["MA"] * n)


def _int_product(letters):
    mats = {"MA": MA.tolist(), "MB": MB.tolist()}
    out = [[int(i == j) for j in range(3)] for i in range(3)]
    for letter in letters:
        out = [[sum(out[i][k] * mats[letter][k][j] for k in range(3)) for j in range(3)]
               for i in range(3)]
    return out
