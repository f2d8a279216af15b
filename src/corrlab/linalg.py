"""Deterministic dense linear-algebra kernels.

Everything here is plain numpy on complex128.  The pivoted routines are
hand-rolled because their *determinism* is part of the package contract:
given bit-identical input they must return bit-identical output, pivoting by
largest residual with ties broken by lowest index, and they must map exact
0/1 projection patterns to exact canonical unit vectors (so that canonical
constructions like Gamma(id) come out on the nose, not merely up to phase).
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


def orthonormal_range(a, eps: float = EPS) -> np.ndarray:
    """Orthonormal basis of the column space of ``a``, deterministically.

    Pivoted modified Gram-Schmidt: at each step take the lowest-index column
    whose residual norm is within a relative 1e-6 of the largest, then
    orthogonalize twice against the accepted basis and normalize.  The tie
    window makes the pivot order stable under roundoff-level perturbations
    of the input; columns that are already exact standard unit vectors pass
    through unchanged, which keeps canonical projections canonical.  A
    column with a non-finite norm (NaN or inf) raises ``ValueError``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("need a matrix")
    n, m = a.shape
    if n == 0 or m == 0:
        return np.zeros((n, 0), dtype=complex)
    work = a.copy()
    norms = np.linalg.norm(work, axis=0)
    if not np.isfinite(norms).all():
        raise ValueError("a column of the matrix has a non-finite norm")
    thr = eps * max(float(norms.max()) if norms.size else 0.0, 1.0)
    basis: list[np.ndarray] = []
    for _ in range(min(n, m)):
        norms = np.linalg.norm(work, axis=0)
        top = float(norms.max())
        if top <= thr:
            break
        j = int(np.flatnonzero(norms >= top * (1.0 - 1e-6))[0])
        v = work[:, j]
        for _ in range(2):
            for b in basis:
                v = v - b * (b.conj() @ v)
        nv = np.linalg.norm(v)
        if nv <= thr:
            work[:, j] = 0.0
            continue
        v = v / nv
        basis.append(v)
        # deflate remaining columns against the new direction
        work -= np.outer(v, v.conj() @ work)
        work[:, j] = 0.0
    if not basis:
        return np.zeros((n, 0), dtype=complex)
    return np.column_stack(basis)


def gram_onb(g, eps: float = EPS) -> np.ndarray:
    """Coefficient vectors orthonormal w.r.t. a PSD Gram matrix.

    Given the Gram matrix ``g`` of a spanning family, returns R of shape
    (len(family), r) with R^H g R = I, where r is the rank of the form at
    threshold eps.  Column t of R expresses the t-th orthonormal vector as a
    combination of family members.  Pivot: largest residual diagonal, ties ->
    lowest index.  For an exact 0/1 diagonal ``g`` the columns of R are exact
    standard unit vectors in pivot order.
    """
    g = np.asarray(g, dtype=complex)
    q = g.shape[0]
    if q == 0:
        return np.zeros((0, 0), dtype=complex)
    diag0 = np.real(np.diag(g)).copy()
    thr = eps * max(float(diag0.max()) if q else 0.0, 1.0)
    cols: list[np.ndarray] = []
    resid = diag0.copy()
    for _ in range(q):
        e = int(np.argmax(resid))
        if resid[e] <= thr:
            break
        c = np.zeros(q, dtype=complex)
        c[e] = 1.0
        for _ in range(2):
            for b in cols:
                c = c - b * (b.conj() @ (g @ c))
        nrm2 = np.real(c.conj() @ (g @ c))
        if nrm2 <= thr:
            resid[e] = 0.0
            continue
        c = c / np.sqrt(nrm2)
        cols.append(c)
        gc = g @ c
        resid = resid - np.abs(gc) ** 2 / 1.0
        np.maximum(resid, 0.0, out=resid)
        resid[e] = 0.0
    if not cols:
        return np.zeros((q, 0), dtype=complex)
    return np.column_stack(cols)


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
    a = [[Fraction(int(m[i, j])) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            x = inv[i][j]
            if x.denominator != 1:
                raise ValueError("inverse is not integral")
            out[i, j] = int(x)
    return out
