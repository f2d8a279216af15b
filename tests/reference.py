"""The element-level model of algebras, Hilbert modules, correspondences
and tensor products: the textbook definitions the coordinate forms of
corrlab.algebra and corrlab.modules are tested against.

An algebra element is one n_i x n_i matrix per block, and a *-hom acts on
it through its matrix on coordinate vectors (``apply``).  A module element
is one m_k x n_k matrix per base block; a correspondence acts on it from the
left through its *-hom into the compacts, an intertwiner through its
per-block unitaries, and E (x)_B F is reached through e^(j)_{a1} (x) w
(``embed``), whose sums are every element (``section``) and which spans the
pure tensors x (x) y (``pure_tensor``).  The corner p B p of a projection
(``corner_algebra``) is presented with its inclusion, a hom built from
Bratteli data.  No library path uses this model; only the tests do.
"""

from dataclasses import dataclass

import numpy as np

from corrlab.algebra import FdCstarAlgebra, StarHom, _bratteli_hom
from corrlab.errors import (
    BaseMismatch,
    EndpointMismatch,
    InvalidAlgebra,
    NotProjection,
    ShapeMismatch,
)
from corrlab.linalg import EPS, frob, gram_onb, orthonormal_range, worse
from corrlab.modules import make_module


class AlgElement:
    """An element of an FdCstarAlgebra, one matrix per block."""

    __slots__ = ("algebra", "mats")

    def __init__(self, algebra, mats):
        if len(mats) != algebra.nblocks:
            raise ShapeMismatch("wrong number of blocks")
        for m, n in zip(mats, algebra.blocks):
            if m.shape != (n, n):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({n}, {n})")
        self.algebra = algebra
        self.mats = [np.asarray(m, dtype=complex) for m in mats]

    def to_vec(self) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.mats])

    def __add__(self, other):
        return AlgElement(self.algebra, [a + b for a, b in zip(self.mats, other.mats)])

    def __sub__(self, other):
        return AlgElement(self.algebra, [a - b for a, b in zip(self.mats, other.mats)])

    def __mul__(self, scalar):
        return AlgElement(self.algebra, [scalar * m for m in self.mats])

    __rmul__ = __mul__

    def __matmul__(self, other):
        return AlgElement(self.algebra, [a @ b for a, b in zip(self.mats, other.mats)])

    def adjoint(self) -> "AlgElement":
        return AlgElement(self.algebra, [m.conj().T for m in self.mats])

    def norm(self) -> float:
        return frob(self.to_vec())

    def is_close(self, other, eps: float = EPS) -> bool:
        return (self - other).norm() <= eps

    def __repr__(self):
        return f"AlgElement({self.algebra!r})"


def alg_zero(a) -> AlgElement:
    return AlgElement(a, [np.zeros((b, b), dtype=complex) for b in a.blocks])


def identity(a) -> AlgElement:
    return AlgElement(a, [np.eye(b, dtype=complex) for b in a.blocks])


def block_unit(a, i: int) -> AlgElement:
    mats = [np.zeros((b, b), dtype=complex) for b in a.blocks]
    mats[i] = np.eye(a.blocks[i], dtype=complex)
    return AlgElement(a, mats)


def matrix_unit(a, i: int, r: int, c: int) -> AlgElement:
    mats = [np.zeros((n, n), dtype=complex) for n in a.blocks]
    mats[i][r, c] = 1.0
    return AlgElement(a, mats)


def basis_triples(a):
    """Yield (flat_index, block, row, col) over the canonical basis."""
    p = 0
    for i, n in enumerate(a.blocks):
        for r in range(n):
            for c in range(n):
                yield p, i, r, c
                p += 1


def alg_from_vec(a, v) -> AlgElement:
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != a.dim:
        raise ShapeMismatch(f"expected coordinate vector of length {a.dim}, got {v.size}")
    mats = []
    for i, n in enumerate(a.blocks):
        o = a.offset(i)
        mats.append(v[o : o + n * n].reshape(n, n).copy())
    return AlgElement(a, mats)


def apply(phi, x) -> AlgElement:
    """phi(x) for an element or a coordinate vector of phi's source."""
    if isinstance(x, AlgElement):
        if x.algebra != phi.src:
            raise EndpointMismatch("element not in the source algebra")
        x = x.to_vec()
    return alg_from_vec(phi.dst, phi.matrix @ np.asarray(x, dtype=complex).ravel())


def random_element(algebra, rng, hermitian: bool = False) -> AlgElement:
    mats = []
    for n in algebra.blocks:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if hermitian:
            m = (m + m.conj().T) / 2
        mats.append(m)
    return AlgElement(algebra, mats)


@dataclass(frozen=True)
class CornerPresentation:
    """The corner p B p presented as a canonical algebra.

    ``isometries[t]`` has orthonormal columns spanning the range of the
    corresponding block of p; ``kept`` lists the original block indices with
    nonzero corner (zero blocks are dropped from the presentation).
    ``inclusion`` is the (typically non-unital) embedding back into B.
    """

    algebra: FdCstarAlgebra
    inclusion: StarHom
    isometries: tuple
    kept: tuple


def corner_algebra(p, b: FdCstarAlgebra, *, eps: float = EPS) -> CornerPresentation:
    """The corner of the projection with coordinate vector ``p`` in b; a
    residual of p^2 = p or p^* = p that is not <= eps (NaN included) raises."""
    p = np.asarray(p, dtype=complex)
    if p.shape != (b.dim,):
        raise ShapeMismatch(f"expected a coordinate vector of length {b.dim}, got shape {p.shape}")
    mats = [b.block_rows(p[:, None], i)[:, :, 0] for i in range(b.nblocks)]
    r1 = frob(np.concatenate([(x @ x - x).ravel() for x in mats]))
    r2 = frob(np.concatenate([(x.conj().T - x).ravel() for x in mats]))
    worst = r2 if worse(r2, r1) else r1
    if not worst <= eps:
        raise NotProjection("p is not a projection", worst)
    kept, isos = [], []
    for i, n in enumerate(b.blocks):
        v = orthonormal_range(mats[i], eps)
        if v.shape[1] > 0:
            kept.append(i)
            isos.append(v)
    if not kept:
        raise InvalidAlgebra("the corner of a zero projection is not an algebra")
    corner = FdCstarAlgebra([v.shape[1] for v in isos], label=f"{b.label}-corner" if b.label else "")
    ws = [{} for _ in b.blocks]
    for t, i in enumerate(kept):
        ws[i] = {t: isos[t][:, :, None]}
    inclusion = _bratteli_hom(corner, b, ws)
    return CornerPresentation(corner, inclusion, tuple(isos), tuple(kept))


class ModElement:
    """Element of a HilbertModule, one m_k x n_k matrix per base block."""

    __slots__ = ("module", "mats")

    def __init__(self, module, mats):
        if len(mats) != module.base.nblocks:
            raise ShapeMismatch("wrong number of blocks")
        for x, m, n in zip(mats, module.mult, module.base.blocks):
            if x.shape != (m, n):
                raise ShapeMismatch(f"block of shape {x.shape}, expected ({m}, {n})")
        self.module = module
        self.mats = [np.asarray(x, dtype=complex) for x in mats]

    def to_vec(self) -> np.ndarray:
        if self.module.dim == 0:
            return np.zeros(0, dtype=complex)
        return np.concatenate([x.ravel() for x in self.mats])

    def __add__(self, other):
        return ModElement(self.module, [a + b for a, b in zip(self.mats, other.mats)])

    def right_mul(self, b: AlgElement) -> "ModElement":
        if b.algebra != self.module.base:
            raise BaseMismatch("element does not live in the base algebra")
        return ModElement(self.module, [x @ bb for x, bb in zip(self.mats, b.mats)])

    def inner(self, other: "ModElement") -> AlgElement:
        """<self, other> in the base algebra, conjugate-linear in self."""
        if other.module != self.module:
            raise BaseMismatch("inner product needs a common module")
        return AlgElement(
            self.module.base, [x.conj().T @ y for x, y in zip(self.mats, other.mats)]
        )

    def norm(self) -> float:
        return frob(self.to_vec())

    def __repr__(self):
        return f"ModElement({self.module!r})"


def zero(module) -> ModElement:
    return ModElement(
        module,
        [np.zeros((m, n), dtype=complex) for m, n in zip(module.mult, module.base.blocks)],
    )


def from_vec(module, v) -> ModElement:
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != module.dim:
        raise ShapeMismatch(f"expected {module.dim} coordinates, got {v.size}")
    mats = []
    for k, (m, n) in enumerate(zip(module.mult, module.base.blocks)):
        o = module.offset(k)
        mats.append(v[o : o + m * n].reshape(m, n).copy())
    return ModElement(module, mats)


def left_mul(corr, a: AlgElement, x: ModElement) -> ModElement:
    """lambda(a) x for a correspondence ``corr``."""
    img = apply(corr.lam, a)
    mats = []
    for k in range(corr.dst.nblocks):
        pos = corr.module.compact_pos(k)
        mats.append(img.mats[pos] @ x.mats[k] if pos is not None else x.mats[k] * 0.0)
    return ModElement(corr.module, mats)


def apply_iso(u, x: ModElement) -> ModElement:
    """The intertwiner u on x: block k of x goes to U_k x_k."""
    if x.module != u.src.module:
        raise BaseMismatch("element not in the source module")
    return ModElement(u.dst.module, [b @ m for b, m in zip(u.blocks, x.mats)])


def embed(tp, j: int, a: int, w: ModElement) -> ModElement:
    """Coordinates of e^(j)_{a1} (x) w in the tensor product ``tp``."""
    if w.module != tp.right.module:
        raise BaseMismatch("second factor not in the right module")
    z = zero(tp.module)
    for k in tp.module.kept:
        rjk = tp.r[j][k]
        if rjk == 0:
            continue
        o = tp.row_start(k, j, a)
        z.mats[k][o : o + rjk, :] = tp.onb[j][k].conj().T @ tp.proj[j][k] @ w.mats[k]
    return z


def section(tp, z: ModElement):
    """Representative { (j, a) -> F element } with sum of embeds == z."""
    if z.module != tp.module:
        raise BaseMismatch("element not in the tensor module")
    out = {}
    for j in range(tp.left.dst.nblocks):
        for a in range(tp.left.module.mult[j]):
            w = zero(tp.right.module)
            for k in tp.module.kept:
                rjk = tp.r[j][k]
                if rjk == 0:
                    continue
                o = tp.row_start(k, j, a)
                w.mats[k][:, :] = tp.onb[j][k] @ z.mats[k][o : o + rjk, :]
            out[(j, a)] = w
    return out


def pure_tensor(tp, x: ModElement, y: ModElement) -> ModElement:
    """Coordinates of x (x) y for arbitrary module elements."""
    if x.module != tp.left.module:
        raise BaseMismatch("first factor not in the left module")
    b = tp.left.dst
    z = zero(tp.module)
    for j, m in enumerate(tp.left.module.mult):
        for a in range(m):
            row = alg_zero(b)
            row.mats[j][0, :] = x.mats[j][a, :]
            z = z + embed(tp, j, a, left_mul(tp.right, row, y))
    return z


def general_product(left, right, eps=1e-9):
    """(module, left action matrix) of E (x)_B F by the general construction,
    for any F, kept identity included: r_jk is the rank of
    P_jk = lambda_F(e^(j)_00) at block k, Q_k = sum_j m_j r_jk, and
    lambda_G(x) at block k holds lambda_E(x)_j (x) I_{r_jk} on the rows
    (j, a, t), each entry of lambda_E copied, every other entry +0.0."""
    b, c = left.dst, right.dst
    ranks = [[0] * c.nblocks for _ in range(b.nblocks)]
    for j in range(b.nblocks):
        img = apply(right.lam, matrix_unit(b, j, 0, 0))
        for k in right.module.kept:
            ranks[j][k] = gram_onb(img.mats[right.module.compact_pos(k)], eps).shape[1]
    mult = left.module.mult
    module = make_module(c, [sum(m * ranks[j][k] for j, m in enumerate(mult)) for k in range(c.nblocks)])
    ke, kg = left.module.compacts, module.compacts
    lam = np.zeros((kg.dim, left.src.dim), dtype=complex)
    for kp, k in enumerate(module.kept):
        size, base, o = kg.blocks[kp], kg.offset(kp), 0
        for jp, j in enumerate(left.module.kept):
            m, r = mult[j], ranks[j][k]
            x = ke.block_rows(left.lam.matrix, jp)
            for a in range(m):
                for a2 in range(m):
                    for t in range(r):
                        lam[base + (o + a * r + t) * size + o + a2 * r + t] = x[a, a2]
            o += m * r
    return module, lam
