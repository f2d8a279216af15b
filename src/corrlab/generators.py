"""Seeded generators for algebras, homs, correspondences, and simplices.

Everything takes an explicit numpy Generator so test sweeps are
reproducible.  Sizes are kept small by default; tensor products grow
multiplicatively and the point of a sweep is coverage, not bulk.

Generators build certified values from QR unitaries (each docstring says
why they are valid up to rounding) and do not re-check them; checks run on
data from outside, in the ``make_*`` constructors and at JSON load.
"""
from __future__ import annotations

import numpy as np

from .algebra import FdCstarAlgebra, StarHom, _bratteli_hom
from .errors import DimensionTooLarge, ShapeMismatch
from .modules import Correspondence, CorrIso, compose_isos, make_module, tensor_corrs, tensor_iso
from .nerve import NCorrSimplex, gamma_simplex, identity_iso

__all__ = [
    "random_unitary",
    "random_algebra",
    "embedding_hom",
    "random_unital_hom",
    "random_chain",
    "random_correspondence",
    "random_equivalence",
    "random_simplex",
    "twist_edge",
]


def random_unitary(n: int, rng) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_algebra(rng, max_blocks: int = 3, max_size: int = 3) -> FdCstarAlgebra:
    nb = int(rng.integers(1, max_blocks + 1))
    blocks = tuple(int(rng.integers(1, max_size + 1)) for _ in range(nb))
    return FdCstarAlgebra(blocks)


def embedding_hom(src: FdCstarAlgebra, dst: FdCstarAlgebra, mult, rng=None) -> StarHom:
    """The multiplicity embedding src -> dst given by an integer matrix.

    Block i of the argument appears mult[i][l] times on the diagonal of dst
    block l, zero-padded if room is left; conjugated by a random unitary per
    block when rng is given.  Unital exactly when the multiplicities fill
    every dst block.

    Certified, keeping its Bratteli data as ``_ws`` (nonzero r only): each
    W_li is r n_i columns of one unitary, and the columns of a unitary are
    isometries with orthogonal ranges, so this is a *-hom up to rounding.
    """
    mult = np.asarray(mult, dtype=np.int64)
    if mult.shape != (src.nblocks, dst.nblocks):
        raise ShapeMismatch(f"mult shape {mult.shape} != {(src.nblocks, dst.nblocks)}")
    if np.any(mult < 0):
        raise ShapeMismatch("multiplicities must be nonnegative")
    for l, nl in enumerate(dst.blocks):
        used = int(sum(mult[i, l] * src.blocks[i] for i in range(src.nblocks)))
        if used > nl:
            raise ShapeMismatch(f"dst block {l} of size {nl} cannot hold {used} dimensions")
    ws = []
    for l, nl in enumerate(dst.blocks):
        u = random_unitary(nl, rng) if rng is not None else np.eye(nl, dtype=complex)
        # the mult[i, l] copies of block i are the next r n_i columns of u
        o, w_l = 0, {}
        for i, n in enumerate(src.blocks):
            r = int(mult[i, l])
            if r:
                w_l[i] = u[:, o : o + r * n].reshape(nl, r, n).transpose(0, 2, 1)
            o += r * n
        ws.append(w_l)
    return _bratteli_hom(src, dst, ws)


def random_unital_hom(
    src: FdCstarAlgebra, rng, max_blocks: int = 2, max_mult: int = 2, max_dim=None
) -> StarHom:
    """A random unital hom out of src, onto a freshly built target; a target
    of more than max_dim dimensions raises before anything is built."""
    if max_mult < 1:  # each column would draw zeros and be redrawn forever
        raise ShapeMismatch(f"max_mult must be >= 1, got {max_mult}")
    nb = int(rng.integers(1, max_blocks + 1))
    mult = np.zeros((src.nblocks, nb), dtype=np.int64)
    for l in range(nb):
        while not mult[:, l].any():
            mult[:, l] = rng.integers(0, max_mult + 1, size=src.nblocks)
    dst = FdCstarAlgebra(
        tuple(int(sum(mult[i, l] * src.blocks[i] for i in range(src.nblocks))) for l in range(nb))
    )
    if max_dim is not None and dst.dim > max_dim:
        raise DimensionTooLarge(f"drawn algebra {list(dst.blocks)} exceeds {max_dim} dimensions")
    return embedding_hom(src, dst, mult, rng)


def random_chain(
    rng, length: int, max_blocks: int = 2, max_size: int = 2, max_mult: int = 2, max_dim=None
):
    """A composable chain of unital homs, small enough for tensor sweeps."""
    a = random_algebra(rng, max_blocks=max_blocks, max_size=max_size)
    chain = []
    for _ in range(length):
        f = random_unital_hom(a, rng, max_blocks=max_blocks, max_mult=max_mult, max_dim=max_dim)
        chain.append(f)
        a = f.dst
    return chain


def random_correspondence(
    src: FdCstarAlgebra, dst: FdCstarAlgebra, rng, max_mult: int = 1, max_dim=None
) -> Correspondence:
    """A random correspondence src -> dst with unital left action; a module
    whose multiplicities describe more than max_dim dimensions raises."""
    if max_mult < 1:  # each draw would be all zero and be redrawn forever
        raise ShapeMismatch(f"max_mult must be >= 1, got {max_mult}")
    while True:
        m = rng.integers(0, max_mult + 1, size=(src.nblocks, dst.nblocks))
        q = [int(sum(m[i, k] * src.blocks[i] for i in range(src.nblocks))) for k in range(dst.nblocks)]
        if any(q):
            break
    if max_dim is not None and sum(x * x for x in q) > max_dim:
        raise DimensionTooLarge(f"drawn module {q} exceeds {max_dim} dimensions")
    module = make_module(dst, q)
    kept = [k for k in range(dst.nblocks) if q[k] > 0]
    lam = embedding_hom(src, module.compacts, m[:, kept], rng)
    return Correspondence(src, module, lam)


def random_equivalence(dst: FdCstarAlgebra, rng) -> Correspondence:
    """A random Morita equivalence onto dst (permuted sizes, twisted action)."""
    nb = dst.nblocks
    sizes = [int(rng.integers(1, 3)) for _ in range(nb)]
    perm = rng.permutation(nb)
    src = FdCstarAlgebra(tuple(sizes[int(k)] for k in perm))
    module = make_module(dst, sizes)
    m = np.zeros((nb, nb), dtype=np.int64)
    for i in range(nb):
        m[i, int(perm[i])] = 1
    lam = embedding_hom(src, module.compacts, m, rng)
    return Correspondence(src, module, lam)


def random_simplex(rng, n: int, twist: bool = False, **chain_kw) -> NCorrSimplex:
    """A valid n-simplex: the simplex of a random chain, optionally twisted
    so it is not the simplex of any chain on the nose."""
    s = gamma_simplex(random_chain(rng, n, **chain_kw), validate=False)
    if twist and n >= 1:
        i0 = int(rng.integers(0, n))
        j0 = int(rng.integers(i0 + 1, n + 1))
        s = twist_edge(s, i0, j0, rng)
    return s


def twist_edge(s: NCorrSimplex, i0: int, j0: int, rng) -> NCorrSimplex:
    """Conjugate edge (i0, j0) by a random unitary and fix up every strict
    cell that touches it; the result is a valid simplex with the same shape
    (its unit cells are derived from the new edge).

    Certified: conjugating the *-hom lam by block unitaries V gives a *-hom
    that V intertwines with lam, and a product of unitaries that lands on the
    new edge stays unitary and intertwining, all up to rounding, and
    conjugation keeps the action's multiplicities."""
    if not (0 <= i0 < j0 <= s.n):
        raise ShapeMismatch(f"({i0}, {j0}) is not a strict edge")
    old = s.edges[(i0, j0)]
    blocks = [random_unitary(m, rng) for m in old.module.mult]
    # lam'(a) = V lam(a) V* blockwise, on the stack of all columns at once
    d = old.module.compacts
    lam_new = np.zeros_like(old.lam.matrix)
    for kp, mk in enumerate(d.blocks):
        u, o = blocks[old.module.kept[kp]], d.offset(kp)
        imgs = old.lam.matrix[o : o + mk * mk].T.copy().reshape(-1, mk, mk)
        d.block_rows(lam_new, kp)[:] = (u @ imgs @ u.conj().T).transpose(1, 2, 0)
    new = Correspondence(old.src, old.module, StarHom(old.src, d, lam_new, old.lam.mult_matrix))
    v_iso = CorrIso._trusted(old, new, blocks)
    edges = dict(s.edges)
    edges[(i0, j0)] = new
    cells = dict(s.cells)
    for (i, j, k), u in s.cells.items():
        touches_target = (i, k) == (i0, j0)
        touches_left = (i, j) == (i0, j0)
        touches_right = (j, k) == (i0, j0)
        if not (touches_target or touches_left or touches_right):
            continue
        cur = u
        if touches_target:
            cur = CorrIso._trusted(cur.src, new, [blocks[p] @ b for p, b in enumerate(cur.blocks)])
        if touches_left or touches_right:
            lft, rgt = edges[(i, j)], edges[(j, k)]
            t_new = tensor_corrs(lft, rgt)
            t_old = tensor_corrs(old if touches_left else lft, old if touches_right else rgt)
            back = tensor_iso(
                v_iso.inverse() if touches_left else identity_iso(lft),
                v_iso.inverse() if touches_right else identity_iso(rgt),
                t_new,
                t_old,
            )
            cur = compose_isos(cur, back)
        cells[(i, j, k)] = cur
    return NCorrSimplex(s.algebras, edges, cells)
