"""Joint spectral radius estimates for the two-letter matrix pair.

Two complementary estimates are provided.  Branch-and-bound encloses the
JSR in ``[max rho(W)^(1/|W|), min_L (max_{|W|=L} ||W||)^(1/L)]`` by
enumerating products in deterministic order with safe pruning.  The
invariant polytope iteration tries to certify a candidate product as
spectrum-maximizing by growing a centrally symmetric polytope until both
letters map it into ``scale * P``; its unit ball is then an extremal norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cubic import char_roots
from .hull3d import DegenerateInputError, Polytope3, convex_hull_3d
from .norms import spectral_norm
from .recurrence import MA, MB, check_word_length

#: Default product alphabet.
DEFAULT_ALPHABET = {"MA": MA, "MB": MB}

#: Hard cap on branch-and-bound depth (2^(depth+1) products are formed).
MAX_BNB_DEPTH = 16


def spectral_radius(mat) -> float:
    """Largest eigenvalue modulus via the characteristic cubic."""
    return max(abs(r) for r in char_roots(mat))


@dataclass(frozen=True)
class ProductWord:
    """A word over the product alphabet with its exact integer product."""

    letters: tuple[str, ...]
    matrix: np.ndarray = field(compare=False, repr=False)  # read-only

    @staticmethod
    def make(letters: Sequence[str], alphabet: Optional[dict] = None) -> "ProductWord":
        """The word and its int64 product, for at most
        :data:`~rscorr.recurrence.MAX_WORD_LENGTH` letters."""
        alpha = alphabet or DEFAULT_ALPHABET
        letters = tuple(letters)
        check_word_length(len(letters))
        out = np.eye(3, dtype=np.int64)
        for letter in letters:
            if letter not in alpha:
                raise ValueError(f"letter {letter!r} not in alphabet")
            out = out @ np.asarray(alpha[letter], np.int64)
        out.setflags(write=False)
        return ProductWord(letters, out)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    witness: Optional[np.ndarray]  # common eigenvector / invariant-plane normal
    kind: Optional[str]

    def to_dict(self) -> dict:
        return {
            "irreducible": self.irreducible,
            "witness": None if self.witness is None else [complex(x).real for x in self.witness],
            "kind": self.kind,
        }


def irreducibility_check(matrices: Sequence = (MA, MB), tol: float = 1e-9) -> IrreducibilityResult:
    """Test for a proper subspace of R^3 invariant under both matrices.

    A shared 1-dimensional invariant subspace is a common eigenvector; a
    shared 2-dimensional one corresponds to a common eigenvector of the
    transposes (its normal).  Each candidate pair of eigenvalues is probed
    by the smallest singular value of the stacked shifted matrices.
    """
    x = np.asarray(matrices[0], dtype=np.float64)
    y = np.asarray(matrices[1], dtype=np.float64)
    for kind, (u, w) in (
        ("common-eigenvector", (x, y)),
        ("invariant-plane-normal", (x.T, y.T)),
    ):
        for mu in char_roots(u):
            for eta in char_roots(w):
                stacked = np.vstack([
                    u.astype(complex) - mu * np.eye(3),
                    w.astype(complex) - eta * np.eye(3),
                ])
                svals = np.linalg.svd(stacked, compute_uv=False)
                if svals[-1] <= tol * max(1.0, svals[0]):
                    _, _, vh = np.linalg.svd(stacked)
                    vec = vh[-1].conj()
                    if np.max(np.abs(vec.imag)) < 1e-8:
                        vec = vec.real
                    return IrreducibilityResult(False, vec, kind)
    return IrreducibilityResult(True, None, None)


@dataclass(frozen=True)
class JsrBracket:
    """Lower/upper enclosure of the JSR with the best witness word."""

    depth: int
    lower: float
    upper: float
    witness: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "lower": self.lower,
            "upper": self.upper,
            "witness": list(self.witness),
        }


def bnb_bracket(
    depth: int,
    norm_scale: float = 1.0,
    matrices: Optional[dict] = None,
) -> JsrBracket:
    """Branch-and-bound enclosure of the joint spectral radius.

    ``lower`` is the best averaged spectral radius over all explored words;
    ``upper`` is the best averaged norm maximum over complete levels.  A
    prefix is abandoned only when its norm times the worst single-letter
    growth cannot raise the running maximum of any deeper level, so every
    level maximum is exact and the bracket shrinks monotonically in depth.

    ``norm_scale`` rescales the third coordinate (the lagged component of
    the recurrence vector) by a diagonal similarity before norms are taken;
    1.0 means plain Euclidean norms.  Spectral radii are unaffected.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_BNB_DEPTH:
        raise ValueError(f"depth {depth} exceeds the cap {MAX_BNB_DEPTH}")
    if not norm_scale > 0:
        raise ValueError("norm_scale must be positive")
    alphabet = matrices or DEFAULT_ALPHABET
    names = list(alphabet)
    mats = [np.asarray(alphabet[n], dtype=np.int64) for n in names]
    d = np.diag([1.0, 1.0, norm_scale])
    dinv = np.diag([1.0, 1.0, 1.0 / norm_scale])

    def scaled_norm(p):
        return spectral_norm(d @ p.astype(np.float64) @ dinv)

    sigma_max = max(scaled_norm(m) for m in mats)
    level_max = [0.0] * (depth + 1)
    best = {"lower": 0.0, "witness": ()}

    def visit(word, prod):
        ell = len(word)
        nrm = scaled_norm(prod)
        if nrm > level_max[ell]:
            level_max[ell] = nrm
        rho = spectral_radius(prod) ** (1.0 / ell)
        if rho > best["lower"]:
            best["lower"] = rho
            best["witness"] = tuple(word)
        if ell == depth:
            return
        if all(
            nrm * sigma_max ** (level - ell) < level_max[level]
            for level in range(ell + 1, depth + 1)
        ):
            return
        for name, mat in zip(names, mats):
            word.append(name)
            visit(word, prod @ mat)
            word.pop()

    for name, mat in zip(names, mats):
        visit([name], mat)

    upper = min(level_max[level] ** (1.0 / level) for level in range(1, depth + 1))
    return JsrBracket(depth, best["lower"], upper, best["witness"])


@dataclass(frozen=True)
class PolytopeRun:
    """Outcome of the invariant polytope iteration."""

    success: bool
    rounds: int
    scale: float
    candidate: tuple[str, ...]
    polytope: Optional[Polytope3]
    max_violation: float
    escaped: Optional[tuple[float, ...]]

    @property
    def vertex_count(self) -> int:
        return 0 if self.polytope is None else self.polytope.vertex_count

    def to_dict(self) -> dict:
        out = {
            "success": self.success,
            "rounds": self.rounds,
            "scale": self.scale,
            "candidate": list(self.candidate),
            "vertices": []
            if self.polytope is None
            else [[float(x) for x in v] for v in self.polytope.vertices],
            "max_violation": self.max_violation,
        }
        if self.escaped is not None:
            out["escaped"] = list(self.escaped)
        return out


def _leading_direction(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(mat.astype(np.float64))
    idx = int(np.argmax(np.abs(vals)))
    v = vecs[:, idx]
    real = v.real if np.linalg.norm(v.real) >= np.linalg.norm(v.imag) else v.imag
    real = real / np.linalg.norm(real)
    # fix an overall sign for reproducibility
    lead = np.flatnonzero(np.abs(real) > 1e-12)[0]
    return real if real[lead] > 0 else -real


def _dedupe(candidates: list[np.ndarray], p: np.ndarray, tol: float) -> bool:
    return any(
        min(np.linalg.norm(p - q), np.linalg.norm(p + q)) <= tol for q in candidates
    )


def invariant_polytope(
    candidate: Optional[ProductWord] = None,
    max_rounds: int = 20,
    tol: float = 1e-8,
    matrices: Optional[dict] = None,
) -> PolytopeRun:
    """Grow a balanced polytope invariant under both letters divided by scale.

    Seeds with the candidate's leading eigenvector direction and its
    antipode, then repeatedly maps the newest vertices by ``letter / scale``
    (``scale = rho(candidate)^(1/len)``), adding any image that escapes the
    current hull.  Stops successfully when a full sweep adds nothing; the
    resulting polytope satisfies ``letter . P  within  scale . P`` up to
    ``tol`` and certifies the candidate as spectrum-maximizing.  Vertices
    are stored as exact antipodal pairs (the leading eigenvalue may be
    negative, so the invariant body must be centrally symmetric).
    """
    alphabet = matrices or DEFAULT_ALPHABET
    word = candidate or ProductWord.make(("MA",), alphabet)
    mats = [np.asarray(m, dtype=np.float64) for m in alphabet.values()]
    rho = spectral_radius(word.matrix)
    if rho <= 0:
        raise ValueError("candidate spectral radius must be positive")
    scale = rho ** (1.0 / len(word))

    reps = [_leading_direction(word.matrix)]
    frontier = list(reps)
    rounds = 0
    hull = None
    last_escape = None

    def sym(points):
        return np.array([s * q for q in points for s in (1.0, -1.0)])

    while rounds < max_rounds and frontier:
        rounds += 1
        try:
            hull = convex_hull_3d(sym(reps), tol=1e-12)
        except DegenerateInputError:
            hull = None
        new = []
        for v in frontier:
            for mat in mats:
                p = (mat @ v) / scale
                inside = hull is not None and float(hull.relative_violations(p)[0]) <= tol
                if not inside and not _dedupe(reps + new, p, 1e-12):
                    new.append(p)
                    last_escape = p
        reps.extend(new)
        frontier = new
        if hull is not None and not new:
            break

    if frontier or hull is None:
        return PolytopeRun(
            False, rounds, scale, word.letters, None, math.inf,
            None if last_escape is None else tuple(float(x) for x in last_escape),
        )

    # Rebuild from the hull's surviving antipodal pairs so the final vertex
    # set is exactly balanced, then certify containment of every image.
    points = sym(reps)
    hull = convex_hull_3d(points, tol=1e-12)
    kept = sorted({_pair_index(points, v) for v in hull.vertices})
    final_pts = sym([reps[i] for i in kept])
    polytope = convex_hull_3d(final_pts, tol=1e-12)
    violation = max(
        float(np.max(polytope.relative_violations((points[::2][kept] @ mat.T) / scale)))
        for mat in mats
    )
    violation = max(
        violation,
        max(
            float(np.max(polytope.relative_violations((-points[::2][kept] @ mat.T) / scale)))
            for mat in mats
        ),
    )
    return PolytopeRun(True, rounds, scale, word.letters, polytope, violation, None)


def _pair_index(points: np.ndarray, vertex: np.ndarray) -> int:
    idx = int(np.argmin(np.linalg.norm(points - vertex, axis=1)))
    return idx // 2
