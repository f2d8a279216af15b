"""The element-level model of Hilbert modules, correspondences and tensor
products: the textbook definitions the closed forms of corrlab.modules are
tested against.

A module element is one m_k x n_k matrix per base block; a correspondence
acts on it from the left through its *-hom into the compacts, an
intertwiner through its per-block unitaries, and E (x)_B F is reached
through e^(j)_{a1} (x) w (``embed``), whose sums are every element
(``section``) and which spans the pure tensors x (x) y (``pure_tensor``).
No library path uses this model; only the tests do.
"""

import numpy as np

from corrlab.algebra import AlgElement
from corrlab.errors import BaseMismatch, ShapeMismatch
from corrlab.linalg import frob, gram_onb
from corrlab.modules import make_module


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
    img = corr.lam.apply(a)
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
            row = b.zero()
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
        img = right.lam.apply(b.matrix_unit(j, 0, 0))
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
