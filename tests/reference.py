"""The element-level model of algebras, Hilbert modules, correspondences
and tensor products: the textbook definitions the coordinate forms of
corrlab.algebra and corrlab.modules are tested against.

An algebra element is one n_i x n_i matrix per block, and a *-hom acts on
it through its matrix on coordinate vectors (``apply``).  A module element
is one m_k x n_k matrix per base block; a correspondence acts on it from the
left through its *-hom into the compacts, an intertwiner through its
per-block unitaries, and E (x)_B F is reached through e^(j)_{a1} (x) w
(``embed``), whose sums are every element (``section``) and which spans the
pure tensors x (x) y (``pure_tensor``).  Gamma(phi)'s left action is
compressed by the ranges of apply(phi, 1) (``gamma_action``).  The corner
p B p of a projection (``corner_algebra``) is presented with its inclusion,
a hom built from Bratteli data.  No library path uses this model; only the
tests do.  The helpers at the end (``is_equivalence``, ``direct_sum_corrs``,
``is_nondegenerate``, ``phi_star``, ``connecting_hom`` and ``dump_value``)
left the library for the same reason, as did ``_gram``, the full Gram
product the tests compare the dense build against, and
``dense_conjugation_matrix``, the dense writer the entries view replaced.  So did the
rank-guessing kernels ``orthonormal_range`` and ``gram_onb``: they find a
rank at a threshold, where the library's take the known rank, and the
model uses them to derive its ranks independently of any multiplicity.
"""

from dataclasses import dataclass

import numpy as np

from corrlab.algebra import FdCstarAlgebra, StarHom, _bratteli_hom
from corrlab.bicategory import equivalence_inverse
from corrlab.errors import (
    BaseMismatch,
    EndpointMismatch,
    IndexOutOfRange,
    InvalidAlgebra,
    NotAnEquivalence,
    NotMonotone,
    NotProjection,
    ShapeMismatch,
    ShapeViolation,
)
from corrlab.linalg import EPS, frob, worse
from corrlab.modules import Correspondence, direct_sum_modules, make_module
from corrlab.serialize import _json_text, _value_doc
from corrlab.subdivision import AugChain, _connecting, module_E_S


def orthonormal_range(a, eps: float = EPS) -> np.ndarray:
    """Orthonormal basis of the column space of ``a``, its rank found at a
    threshold: ``linalg.orthonormal_range``'s pivots, taken while the largest
    residual norm exceeds eps * max(largest column norm, 1), a pivot whose
    orthogonalized norm does not being skipped.  A non-finite column norm
    raises ``ValueError``."""
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
    thr = eps * max(float(norms.max()), 1.0)
    basis = []
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
        work -= np.outer(v, v.conj() @ work)
        work[:, j] = 0.0
    return np.column_stack(basis) if basis else np.zeros((n, 0), dtype=complex)


def gram_onb(g, eps: float = EPS) -> np.ndarray:
    """Coefficient vectors orthonormal w.r.t. a PSD Gram matrix, its rank
    found at a threshold: ``linalg.gram_onb``'s pivots, taken while the
    largest residual diagonal exceeds eps * max(largest diagonal, 1), a pivot
    whose orthogonalized norm does not being skipped.  A NaN diagonal makes
    the threshold NaN, so every pivot is taken."""
    g = np.asarray(g, dtype=complex)
    q = g.shape[0]
    if q == 0:
        return np.zeros((0, 0), dtype=complex)
    resid = np.real(np.diag(g)).copy()
    thr = eps * max(float(resid.max()), 1.0)
    cols = []
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
        resid = resid - np.abs(g @ c) ** 2 / 1.0
        np.maximum(resid, 0.0, out=resid)
        resid[e] = 0.0
    return np.column_stack(cols) if cols else np.zeros((q, 0), dtype=complex)


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


def _gram(w) -> np.ndarray:
    """W W^* for W of shape (m, n, r), read as an (m n) x r matrix."""
    m, n, r = w.shape
    w2 = w.reshape(m * n, r)
    return w2 @ w2.conj().T


def dense_conjugation_matrix(src, dst, ws) -> np.ndarray:
    """The dense writer of Bratteli data as it was before the entries view
    (``StarHom.entries``): a zeroed matrix whose block (l, i) is written in
    place with the Gram of W_li's nonzero rows.  Both views of a Bratteli
    hom are compared with it bit for bit."""
    matrix = np.zeros((dst.dim, src.dim), dtype=complex)
    for l, m in enumerate(dst.blocks):
        o = dst.offset(l)
        for i, w in ws[l].items():
            n, c = src.blocks[i], src.offset(i)
            block = matrix[o : o + m * m, c : c + n * n].reshape(m, m, n, n)
            a, p = np.nonzero(w.any(axis=2))
            x = w[a, p]
            block[a[:, None], a, p[:, None], p] = x @ x.conj().T
    return matrix


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


def gamma_action(phi, eps: float = EPS) -> np.ndarray:
    """The left action of Gamma(phi) through the element model: V_j is
    orthonormal_range of block j of apply(phi, 1), a block with V_j of rank
    0 is dropped, and column p is (+)_j V_j^* phi(e_p)_j V_j."""
    vs = [orthonormal_range(x, eps) for x in apply(phi, identity(phi.src)).mats]
    cols = []
    for _, i, r, c in basis_triples(phi.src):
        img = apply(phi, matrix_unit(phi.src, i, r, c)).mats
        cols.append([(v.conj().T @ x @ v).ravel() for v, x in zip(vs, img) if v.shape[1]])
    return np.array([np.concatenate(c) for c in cols]).T


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
    corner = FdCstarAlgebra([v.shape[1] for v in isos])
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


# ---------------------------------------------------------------------------
# Helpers no library path needs, kept for the tests that use them.


def is_equivalence(corr, *, eps: float = EPS) -> bool:
    try:
        equivalence_inverse(corr, eps=eps)
        return True
    except NotAnEquivalence:
        return False


def direct_sum_corrs(corrs):
    """Direct sum of correspondences with common endpoints, diagonal action;
    its multiplicities are the summands' lambda's, added on their blocks."""
    first = corrs[0]
    for c in corrs:
        if c.src != first.src:
            raise EndpointMismatch("summands must share the source algebra")
    module, starts = direct_sum_modules([c.module for c in corrs])
    kg = module.compacts
    lam = np.zeros((kg.dim, first.src.dim), dtype=complex)
    mult = np.zeros((first.src.nblocks, kg.nblocks), dtype=np.int64)
    for s, c in enumerate(corrs):
        for pos, k in enumerate(c.module.kept):
            o, m, kp = starts[s][k], c.module.mult[k], module.compact_pos(k)
            kg.block_rows(lam, kp)[o : o + m, o : o + m] = (
                c.module.compacts.block_rows(c.lam.matrix, pos)
            )
            mult[:, kp] += c.lam.mult_matrix[:, pos]
    return Correspondence(first.src, module, StarHom(first.src, kg, lam, mult)), starts


def is_nondegenerate(chain) -> bool:
    entries = chain.vertices + chain.subsets
    return all(a != b for a, b in zip(entries, entries[1:]))


def phi_star(phi, chain):
    """Reindex a chain along a weakly increasing vertex map.

    ``phi`` maps by position; subset entries whose image is a single vertex
    become vertex entries, which keeps the result well formed (only an
    initial run of subsets can collapse).
    """
    phi = [int(x) for x in phi]
    if any(b < a for a, b in zip(phi, phi[1:])):
        raise NotMonotone(f"{phi} is not weakly increasing")

    def img(v):
        if not 0 <= v < len(phi):
            raise IndexOutOfRange(f"vertex {v} outside the domain of the map")
        return phi[v]

    vs = [img(v) for v in chain.vertices]
    ss = []
    for s in chain.subsets:
        t = tuple(sorted({img(v) for v in s}))
        if len(t) == 1:
            if ss:
                raise ShapeViolation("a collapsed subset after a surviving one")
            vs.append(t[0])
        else:
            ss.append(t)
    return AugChain(tuple(vs), tuple(ss))


def connecting_hom(sigma, sub_s, sub_t) -> StarHom:
    """f_ST: A_S -> A_T for nested subsets S inside T of the base simplex."""
    return _connecting(sigma, module_E_S(sigma, sub_s), module_E_S(sigma, sub_t))


def dump_value(obj, path) -> None:
    """Write ``obj`` as the JSON text corrlab's CLI writes for it."""
    text = _json_text(_value_doc(obj))
    with open(path, "w") as f:
        f.write(text + "\n")
