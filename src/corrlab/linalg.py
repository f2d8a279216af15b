"""Deterministic dense linear-algebra kernels.

Everything here is plain numpy on complex128.  The pivoted routines are
hand-rolled because their *determinism* is part of the package contract:
given bit-identical input they must return bit-identical output, pivoting by
largest residual with ties broken by lowest index, and they must map exact
0/1 projection patterns to exact canonical unit vectors (so that canonical
constructions like Gamma(id) come out on the nose, not merely up to phase).
They take the rank they are to find, a *-hom's multiplicity in every
caller, and have no threshold: a tolerance belongs to the checks.
"""
from __future__ import annotations

import numpy as np

EPS = 1e-9

__all__ = [
    "EPS",
    "frob",
    "worse",
    "worst_of",
    "orthonormal_range",
    "gram_onb",
    "int_inverse",
]


def frob(a) -> float:
    """Frobenius norm, 0.0 for empty arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a.ravel()))


def worse(r: float, worst: float) -> bool:
    """Whether residual ``r`` replaces ``worst`` so far: it is larger, or NaN.
    A NaN ``worst`` stays, so a NaN anywhere fails a ``worst <= eps`` check
    (the builtin ``max(0.0, nan)`` is 0.0 and would drop it)."""
    return r > worst or r != r


def worst_of(residuals) -> float:
    """The worst of ``residuals`` by ``worse`` (0.0 for none): a NaN anywhere
    is the result; on finite nonnegative residuals the builtin max's, to the
    bit."""
    worst = 0.0
    for r in residuals:
        if worse(r, worst):
            worst = r
    return worst


def orthonormal_range(a, rank: int) -> np.ndarray:
    """Orthonormal basis of a column space of known ``rank``, deterministically.

    Pivoted modified Gram-Schmidt, ``rank`` pivots: at each step take the
    lowest-index column whose residual norm is within a relative 1e-6 of the
    largest, then orthogonalize twice against the accepted basis and
    normalize.  The tie window makes the pivot order stable under
    roundoff-level perturbations of the input; columns that are already
    exact standard unit vectors pass through unchanged, which keeps
    canonical projections canonical.  A column with a non-finite norm (NaN
    or inf), or a pivot of norm 0 (the rank overstated), raises
    ``ValueError``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("need a matrix")
    work = a.copy()
    if not np.isfinite(np.linalg.norm(work, axis=0)).all():
        raise ValueError("a column of the matrix has a non-finite norm")
    basis: list[np.ndarray] = []
    for _ in range(rank):
        norms = np.linalg.norm(work, axis=0)
        j = int(np.flatnonzero(norms >= norms.max() * (1.0 - 1e-6))[0])
        v = work[:, j]
        for _ in range(2):
            for b in basis:
                v = v - b * (b.conj() @ v)
        nv = np.linalg.norm(v)
        if nv <= 0:
            raise ValueError(f"pivot {len(basis)} of {rank} has norm 0")
        v = v / nv
        basis.append(v)
        # deflate remaining columns against the new direction
        work -= np.outer(v, v.conj() @ work)
        work[:, j] = 0.0
    return np.column_stack(basis) if basis else np.zeros((len(a), 0), dtype=complex)


def gram_onb(g, rank: int) -> np.ndarray:
    """Coefficient vectors orthonormal w.r.t. a PSD Gram matrix of known ``rank``.

    Given the Gram matrix ``g`` of a spanning family, returns R of shape
    (len(family), rank) with R^H g R = I.  Column t of R expresses the t-th
    orthonormal vector as a combination of family members.  Pivot: largest
    residual diagonal, ties -> lowest index.  For an exact 0/1 diagonal
    ``g`` the columns of R are exact standard unit vectors in pivot order.
    A pivot of norm <= 0 (the rank overstated) raises ``ValueError``; a NaN
    pivot flows through into R.
    """
    g = np.asarray(g, dtype=complex)
    q = g.shape[0]
    cols: list[np.ndarray] = []
    resid = np.real(np.diag(g)).copy()
    for _ in range(rank):
        e = int(np.argmax(resid))
        c = np.zeros(q, dtype=complex)
        c[e] = 1.0
        for _ in range(2):
            for b in cols:
                c = c - b * (b.conj() @ (g @ c))
        nrm2 = np.real(c.conj() @ (g @ c))
        if nrm2 <= 0:
            raise ValueError(f"pivot {len(cols)} of {rank} has norm 0")
        c = c / np.sqrt(nrm2)
        cols.append(c)
        resid = resid - np.abs(g @ c) ** 2
        np.maximum(resid, 0.0, out=resid)
        resid[e] = 0.0
    return np.column_stack(cols) if cols else np.zeros((q, 0), dtype=complex)


def int_inverse(m) -> np.ndarray:
    """Exact inverse of an integer matrix with det +-1.

    Fraction-based Gaussian elimination; raises ValueError if the matrix is
    not invertible over the integers.  Sizes here are tiny (block counts), so
    no cleverness is needed.
    """
    from fractions import Fraction

    m = np.asarray(m)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("need a square matrix")
    a = [  # the rows of [m | I], reduced below to [I | m^-1]
        [Fraction(int(x)) for x in m[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inv = [x for row in a for x in row[n:]]
    if any(x.denominator != 1 for x in inv):
        raise ValueError("inverse is not integral")
    return np.array([int(x) for x in inv], dtype=np.int64).reshape(n, n)
