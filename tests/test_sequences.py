import numpy as np
import pytest

from rscorr import sequences
from rscorr.sequences import (
    BinarySeq,
    OrderTooLargeError,
    generalized_sequence,
    rs_sequence,
    rs_term,
    rudin_shapiro_flips,
    shapiro_eval,
)

# first three published sequences
SEQ_1 = [1, 1]
SEQ_2 = [1, 1, 1, -1]
SEQ_3 = [1, 1, 1, -1, 1, 1, -1, 1]


def test_rs_term_published_values():
    assert rs_term(0) == 1
    assert rs_term(3) == -1
    assert rs_term(6) == -1


def test_rs_term_counts_overlapping_pairs():
    # binary 111 has two overlapping '11' pairs, so the sign is +1
    assert rs_term(7) == 1
    assert rs_term(0b1011) == -1  # one pair
    with pytest.raises(ValueError):
        rs_term(-1)


@pytest.mark.parametrize("m,expected", [(1, SEQ_1), (2, SEQ_2), (3, SEQ_3)])
def test_published_sequences(m, expected):
    assert rs_sequence(m).terms.tolist() == expected


def test_terms_match_rs_term():
    seq = rs_sequence(6)
    assert seq.terms.tolist() == [rs_term(i) for i in range(64)]


def test_prefix_property():
    top = rs_sequence(12)
    for m in range(12):
        assert np.array_equal(rs_sequence(m).terms, top.terms[: 1 << m])


def test_binaryseq_invariants():
    seq = rs_sequence(5)
    assert seq.terms.dtype == np.int8
    assert len(seq) == 32
    assert seq[0] == 1
    assert not seq.terms.flags.writeable
    with pytest.raises(ValueError):
        BinarySeq(2, [1, 1, 1])  # wrong length
    with pytest.raises(ValueError):
        BinarySeq(1, [1, 2])  # bad entry
    with pytest.raises(ValueError):
        BinarySeq(1, [-1, 1])  # wrong leading sign


def test_order_cap():
    with pytest.raises(OrderTooLargeError):
        rs_sequence(31)
    with pytest.raises(OrderTooLargeError):
        rs_sequence(5, max_order=4)
    with pytest.raises(ValueError):
        rs_sequence(-1)


def test_rs_sequence_matches_rs_term_everywhere():
    assert rs_sequence(16).terms.tolist() == [rs_term(i) for i in range(1 << 16)]


def test_generalized_recovers_rudin_shapiro():
    # rs_sequence is built by generalized_sequence, so the reference is rs_term
    expected = [rs_term(i) for i in range(1 << 14)]
    for m in range(15):
        gen = generalized_sequence(m, rudin_shapiro_flips(m))
        assert gen.terms.tolist() == expected[: 1 << m], m


def test_generalized_order_zero():
    for flips in ([], [0], lambda i: 1):
        assert generalized_sequence(0, flips).terms.tolist() == [1]


def _unrolled_reference(m, flips):
    # independent oracle: literal recursion a[2^i + j] = (-1)^(j + f(i)) a[2^i - j - 1]
    a = {0: 1}
    for i in range(m):
        for j in range(1 << i):
            a[(1 << i) + j] = (-1) ** (j + flips[i]) * a[(1 << i) - j - 1]
    return [a[i] for i in range(1 << m)]


def test_generalized_all_zero_flips():
    expected = _unrolled_reference(3, [0, 0, 0])
    assert expected == [1, 1, 1, -1, -1, -1, 1, -1]  # frozen hand unroll
    assert generalized_sequence(3, [0, 0, 0]).terms.tolist() == expected


def test_generalized_against_unrolled_reference():
    rng = np.random.default_rng(7)
    for m in range(1, 9):
        flips = rng.integers(0, 2, size=m).tolist()
        assert generalized_sequence(m, flips).terms.tolist() == _unrolled_reference(m, flips)


def test_text_styles():
    seq = rs_sequence(3)
    assert seq.text() == "+ + + - + + - +"
    assert seq.text("compact") == "+++-++-+"
    with pytest.raises(ValueError):
        seq.text("hex")


def test_binary_seq_rejects_every_non_sign():
    for bad in (0, 2, -2, 127, -128):
        for pos in (1, 3):
            terms = [1, 1, 1, -1]
            terms[pos] = bad
            with pytest.raises(ValueError, match="-1 or \\+1"):
                BinarySeq(2, terms)


def test_text_matches_per_term_rendering():
    rng = np.random.default_rng(3)
    seqs = [rs_sequence(m) for m in range(13)]
    seqs += [generalized_sequence(m, rng.integers(0, 2, size=m).tolist()) for m in range(1, 11)]
    for seq in seqs:
        glyphs = ["+" if t > 0 else "-" for t in seq.terms.tolist()]
        assert seq.text() == " ".join(glyphs)
        assert seq.text("compact") == "".join(glyphs)


def test_shapiro_eval_at_zero():
    assert shapiro_eval(1, 0.0) == pytest.approx(2 + 0j)
    assert shapiro_eval(2, 0.0) == pytest.approx(2 + 0j)


def test_shapiro_eval_alternating_sum():
    # hand sum of a_j (-1)^j over the published 8-term sequence: 0
    assert shapiro_eval(3, np.pi) == pytest.approx(0j, abs=1e-12)


def test_shapiro_eval_direct_sum_oracle():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * np.pi, size=8)
    for m in (1, 4, 7):
        coeffs = rs_sequence(m).terms.astype(float)
        j = np.arange(coeffs.size)
        expected = np.array([np.sum(coeffs * np.exp(1j * t * j)) for t in theta])
        got = shapiro_eval(m, theta)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_shapiro_eval_blocks_bound_temporaries(monkeypatch):
    # tiny budgets force several blocks over both angles and coefficients
    monkeypatch.setattr(sequences, "_EVAL_CHUNK", 64)
    monkeypatch.setattr(sequences, "_EVAL_BLOCK", 256)
    sizes = []
    outer = np.outer

    def spy(a, b):
        sizes.append(np.size(a) * np.size(b))
        return outer(a, b)

    monkeypatch.setattr(sequences.np, "outer", spy)
    theta = np.random.default_rng(5).uniform(0, 2 * np.pi, size=37)
    coeffs = rs_sequence(8).terms.astype(float)
    j = np.arange(coeffs.size)
    expected = np.array([np.sum(coeffs * np.exp(1j * t * j)) for t in theta])
    assert np.allclose(shapiro_eval(8, theta), expected, rtol=1e-12, atol=1e-12)
    assert len(sizes) > 8 and max(sizes) <= 256


def test_shapiro_eval_trivial_bound():
    rng = np.random.default_rng(11)
    theta = rng.uniform(0, 2 * np.pi, size=100)
    for m in range(11):
        assert np.all(np.abs(shapiro_eval(m, theta)) <= (1 << m) + 1e-9)


def test_shapiro_eval_scalar_matches_array():
    val = shapiro_eval(5, 0.7)
    arr = shapiro_eval(5, np.array([0.7]))
    assert isinstance(val, complex)
    assert val == pytest.approx(arr[0])


def test_sequence_memory_guard(monkeypatch):
    # one int8 array of 2^m bytes, checked before it is allocated
    monkeypatch.setattr(sequences, "_mem_available", lambda: 1 << 20)
    assert len(rs_sequence(20)) == 1 << 20
    with pytest.raises(OrderTooLargeError, match=f"the sequence of order 21 needs about {1 << 21} bytes"):
        rs_sequence(21)
    with pytest.raises(OrderTooLargeError, match="order 21"):
        generalized_sequence(21, [0] * 21)
    monkeypatch.setattr(sequences, "_mem_available", lambda: None)  # unknown never blocks
    assert len(rs_sequence(21)) == 1 << 21
    # below 1 MiB nothing is read
    monkeypatch.setattr(sequences, "_mem_available", lambda: 0)
    assert len(rs_sequence(19)) == 1 << 19
    with pytest.raises(OrderTooLargeError, match="order 20"):
        rs_sequence(20)
