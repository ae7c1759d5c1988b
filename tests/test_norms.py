import math

import numpy as np
import pytest

from rscorr.norms import (
    AM,
    conjugation_invariance_check,
    diagonalization_residual,
    eigen_constants,
    frobenius_norm,
    katz_constant,
    letter_domination_report,
    lower_bound_ratios,
    lower_bound_value,
    max_ratio,
    max_ratios,
    power_product,
    power_product_norm,
    spectral_norm,
    verify_power_bounds,
)
from rscorr.autocorr import aperiodic_table_fast
from rscorr.cubic import char_roots
from rscorr.jsr import ProductWord
from rscorr.recurrence import MA, MB, PROJ, STEP, SWAP, nearest_third


def test_spectral_norm_basic():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert spectral_norm(SWAP) == pytest.approx(1.0, abs=1e-14)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        spectral_norm(np.full((3, 3), np.nan))


def test_spectral_norm_against_svd_oracle():
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(3, 3)) for _ in range(200)]
    mats += [rng.integers(-5, 6, size=(3, 3)).astype(float) for _ in range(50)]
    mats += [MA.astype(float), MB.astype(float), (MA @ MB).astype(float)]
    mats += [power_product(j, 1).astype(float) for j in range(1, 15)]
    for a in mats:
        ref = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(a) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_spectral_norm_of_ma_bracket():
    lam = eigen_constants().lam
    nrm = spectral_norm(MA)
    assert lam < nrm <= 3.0


def test_frobenius_values():
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3), abs=1e-15)
    assert frobenius_norm(PROJ) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert frobenius_norm(STEP) == pytest.approx(math.sqrt(11), abs=1e-15)
    assert frobenius_norm(STEP.astype(float)) == pytest.approx(math.sqrt(11), abs=1e-13)


def test_power_product_sign_reduction():
    # high projection powers only flip sign, so the norm is unchanged
    assert power_product_norm(3, 7) == pytest.approx(power_product_norm(3, 2), abs=0)
    assert power_product_norm(0, 1) == pytest.approx(spectral_norm(MB), abs=0)
    direct = np.linalg.matrix_power(MB, 5)
    reduced = power_product(0, 5)
    assert np.array_equal(np.abs(direct), np.abs(reduced))
    with pytest.raises(ValueError):
        power_product_norm(0, 0)


def test_eigen_constants():
    c = eigen_constants()
    assert abs(c.lam**3 + c.lam**2 - 2 * c.lam - 4) < 1e-12
    assert abs(c.nu**3 + c.nu**2 - 2 * c.nu - 4) < 1e-12
    assert c.lam == pytest.approx(1.659, abs=1e-3)
    assert c.nu.real == pytest.approx(-1.329, abs=1e-3)
    assert c.nu.imag == pytest.approx(-0.802, abs=1e-3)
    # root sum and product of the cubic
    assert c.lam + 2 * c.nu.real == pytest.approx(-1.0, abs=1e-12)
    assert c.lam * abs(c.nu) ** 2 == pytest.approx(4.0, abs=1e-12)
    assert abs(c.gamma) ** 2 == pytest.approx(236.0, abs=1e-9)
    assert c.a_coeff != 0


def test_power_bound_sweep_passes():
    report = verify_power_bounds(1e-9)
    assert report.passed
    assert not report.failures()
    by_kind = {}
    for case in report.cases:
        by_kind.setdefault(case.kind, []).append(case)
    assert len(by_kind["upper-0.970"]) == 41  # 20 j-values x 2 + the (1,2) case
    lam = eigen_constants().lam
    exception = by_kind["mamb-upper"][0]
    assert lam**2 < exception.norm <= 1.028 * lam**2
    for case in by_kind["frobenius-tail"]:
        assert case.norm < 0.65  # measured headroom below the 0.970 requirement
    # margins are oriented so that passing always means margin >= -tolerance
    for case in report.cases:
        assert case.passed == (case.margin >= -report.tolerance)
        assert case.margin >= -report.tolerance
    payload = report.to_dict()
    assert payload["passed"] is True
    assert {"j", "k", "norm", "bound", "margin", "pass"} <= set(payload["cases"][0])


def test_power_bound_sweep_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        verify_power_bounds(0.0)


@pytest.mark.parametrize("which", ["MA", "M", "AM"])
def test_diagonalization_residuals(which):
    lam = eigen_constants().lam
    for j in range(1, 31):
        assert diagonalization_residual(which, j) <= 1e-6 * lam**j, (which, j)
    assert diagonalization_residual(which, 1) <= 1e-9
    assert diagonalization_residual(which, 2) <= 1e-8


def test_diagonalization_validation():
    with pytest.raises(ValueError):
        diagonalization_residual("MB", 1)
    with pytest.raises(ValueError):
        diagonalization_residual("MA", 0)


def test_lower_bound_values():
    assert lower_bound_value(3) == 1
    assert lower_bound_value(4) == -5
    assert lower_bound_value(5) == 1
    for m in range(3, 25):
        assert lower_bound_value(m) != 0
    for m in range(3, 13):
        assert lower_bound_value(m) == aperiodic_table_fast(m)[nearest_third(m)]


def test_lower_bound_ratio_checkpoint():
    # the growth factor between orders 19 and 20 sits within 2% of lam ...
    lam = eigen_constants().lam
    ratios = dict(lower_bound_ratios(24))
    step = (ratios[20] * lam**20) / (ratios[19] * lam**19)
    assert abs(step - lam) <= 0.02 * lam
    # ... but the complex-pair beat still swings later steps well past 2%
    swings = [
        abs((ratios[m + 1] * lam ** (m + 1)) / (ratios[m] * lam**m) - lam) / lam
        for m in range(20, 24)
    ]
    assert max(swings) > 0.02


def test_max_ratio_values():
    lam = eigen_constants().lam
    assert max_ratio(1) == pytest.approx(1.0 / lam, abs=1e-12)
    assert max_ratio(4) == pytest.approx(katz_constant(), abs=1e-12)
    sweep = dict(max_ratios(20))
    for m in range(3, 21):
        assert 0.1 <= sweep[m] <= katz_constant() + 1e-9
    # measured floor over 3..24 is 0.386; freeze a regression bound below it
    assert min(v for m, v in sweep.items() if m >= 3) >= 0.38


def test_submultiplicativity_spot_check():
    rng = np.random.default_rng(123)
    letters = [MA, MB]
    for _ in range(200):
        n1, n2 = rng.integers(1, 7, size=2)
        w1 = [letters[i] for i in rng.integers(0, 2, size=n1)]
        w2 = [letters[i] for i in rng.integers(0, 2, size=n2)]
        p1 = np.linalg.multi_dot(w1) if len(w1) > 1 else w1[0]
        p2 = np.linalg.multi_dot(w2) if len(w2) > 1 else w2[0]
        assert spectral_norm(p1 @ p2) <= spectral_norm(p1) * spectral_norm(p2) + 1e-9


def test_letter_domination():
    report = letter_domination_report(samples=1000, seed=0)
    # acting on rows the MB image is never longer; the Gram gap is PSD
    assert report.row_violations == 0
    assert report.transpose_gram_psd
    assert report.passed
    # acting on columns the claim genuinely fails on a cone: e2 is a witness
    e2 = np.array(report.column_counterexample)
    assert np.linalg.norm(MB @ e2) > np.linalg.norm(MA @ e2)
    assert report.column_violations > 0
    d = report.to_dict()
    assert d["check"] == "letter-norm-domination"


def test_conjugation_invariance():
    report = conjugation_invariance_check(max_len=5)
    assert report.involution and report.isometry
    assert report.passed
    assert report.max_norm_gap <= 1e-9
    payload = report.to_dict()
    assert payload["conjugated_MA"] != MA.tolist()  # genuinely conjugated


def test_am_constant():
    assert AM.tolist() == (SWAP @ STEP).tolist()


def test_spectral_norm_squared_is_largest_gram_root():
    # independent of LAPACK: ||W||^2 is the largest root of the exact
    # characteristic cubic of the integer Gram matrix W^T W
    rng = np.random.default_rng(17)
    words = [("MA", "MA", "MA", "MA", "MA", "MB", "MA", "MB", "MB", "MA", "MB", "MA", "MA",
              "MB", "MA", "MA")]
    words += [tuple(rng.choice(["MA", "MB"], size=rng.integers(1, 17))) for _ in range(300)]
    for letters in words:
        w = ProductWord.make(letters).matrix
        gram_top = max(z.real for z in char_roots(w.T @ w))
        assert spectral_norm(w) ** 2 == pytest.approx(gram_top, rel=1e-12, abs=1e-12), letters
