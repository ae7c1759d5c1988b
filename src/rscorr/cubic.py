"""Eigenvalues of 3x3 matrices as roots of their characteristic cubic.

This is the package's route to the eigenvalues of the letter products
(spectral radius, irreducibility test).  ``char_roots`` forms the
coefficients (trace, sum of principal 2x2 minors, cofactor determinant),
exact for integer products (see ``char_roots``).  ``solve_cubic`` finds
one real root by bracketed bisection (a monic real cubic always has one
inside the Cauchy bound ``1 + max |coefficient|``) and the remaining pair
from the quadratic obtained by dividing it out, assembled from root
sums/products to avoid cancellation.  A repeated root is returned exactly
when it sits on a critical point, so ``2I`` has spectral radius ``2.0``.
QR eigenvalues of a long non-normal product lose about ``eps * ||W||``
in each eigenvalue, above 1e-12 relative when the radius is far below
the norm; exact coefficients carry no such loss.
"""

from __future__ import annotations

import math

import numpy as np


def _poly(x: float, b: float, c: float, d: float) -> float:
    return ((x + b) * x + c) * x + d


def real_cubic_root(b: float, c: float, d: float, lo: float = None, hi: float = None) -> float:
    """One real root of ``x^3 + b x^2 + c x + d``.

    With no bracket given, searches the Cauchy interval; with a bracket,
    requires a sign change on it.  Bisection to machine width, then two
    guarded Newton polish steps.
    """
    if lo is None or hi is None:
        r = 1.0 + max(abs(b), abs(c), abs(d))
        lo, hi = -r, r
    flo, fhi = _poly(lo, b, c, d), _poly(hi, b, c, d)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = _poly(mid, b, c, d)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    x = 0.5 * (lo + hi)
    for _ in range(2):
        fx = _poly(x, b, c, d)
        dfx = (3.0 * x + 2.0 * b) * x + c
        if dfx == 0.0:
            break
        step = fx / dfx
        y = x - step
        if lo <= y <= hi:
            x = y
    return x


def _poly_magnitude(x: float, b: float, c: float, d: float) -> float:
    ax = abs(x)
    return ((ax + abs(b)) * ax + abs(c)) * ax + abs(d)


def solve_cubic(b: float, c: float, d: float) -> tuple[complex, complex, complex]:
    """All three roots of ``x^3 + b x^2 + c x + d`` (real coefficients).

    The first returned root is always real (as a complex with zero
    imaginary part); the other two are the deflated pair, complex
    conjugates when the discriminant of the quotient is negative.

    A repeated root is a root cluster for generic solvers (conditioning
    ~eps^(1/2..1/3)) but is also a critical point of the cubic, which the
    quadratic formula locates to full precision; when the cubic vanishes
    at a critical point to roundoff, that value is returned directly.
    """
    crit_disc = b * b - 3.0 * c
    if crit_disc >= 0.0:
        sq = math.sqrt(crit_disc)
        for r_crit in ((-b - sq) / 3.0, (-b + sq) / 3.0):
            residue = abs(_poly(r_crit, b, c, d))
            if residue <= 64.0 * 2.2e-16 * _poly_magnitude(r_crit, b, c, d):
                other = -b - 2.0 * r_crit  # remaining root via the root sum
                return complex(other, 0.0), complex(r_crit, 0.0), complex(r_crit, 0.0)
    r = real_cubic_root(b, c, d)
    # Quotient x^2 - s x + p via Vieta on the full cubic: s = sum of the
    # remaining roots, p = their product.
    s = -b - r
    p = -d / r if r != 0.0 else c + r * (b + r)
    disc = s * s - 4.0 * p
    if disc >= 0.0:
        sq = math.sqrt(disc)
        big = 0.5 * (s + sq) if s >= 0.0 else 0.5 * (s - sq)
        small = p / big if big != 0.0 else 0.0
        return complex(r, 0.0), complex(big, 0.0), complex(small, 0.0)
    half = 0.5 * math.sqrt(-disc)
    return complex(r, 0.0), complex(0.5 * s, half), complex(0.5 * s, -half)


def char_roots(mat) -> tuple[complex, complex, complex]:
    """Eigenvalues of a real 3x3 matrix via its characteristic cubic.

    The coefficients are evaluated in float64, which is exact for integer
    matrices with entries below 2^16 (every partial sum then stays below
    2^53); every letter product of up to 16 letters qualifies, its largest
    entry being 3434.  The root order is that of ``solve_cubic``.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    t = a00 + a11 + a22
    s = a00 * a11 - a01 * a10 + a00 * a22 - a02 * a20 + a11 * a22 - a12 * a21
    det = (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    return solve_cubic(-t, s, -det)
