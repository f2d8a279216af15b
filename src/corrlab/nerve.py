"""Simplices of correspondences, simplicial operators, horn filling.

An n-simplex holds algebras A_0..A_n, correspondences E_ij for every pair
i <= j, and intertwiners u_ijk: E_ij (x) E_jk -> E_ik for every triple
i <= j <= k.  Simplices are normal, as in the normalised nerve of a
bicategory (Duskin 2002): E_ii is the identity correspondence and the
degenerate intertwiners are the canonical unitors.  Normality holds by
construction, since only the strict data (i < j, i < j < k) is stored and
the rest is derived, so no validator checks it.  The composition
constraint is the pentagon condition, checked at the strictly increasing
quadruples; at the others it follows from normality (see
validate_simplex).

Monotone reindexing (apply_map) is pure lookup, so shared faces of two
simplices are shared objects, byte for byte; horn assembly relies on that
and rejects faces that merely look alike numerically.

Fills: an inner (2,1)-horn composes its two edges; (3,k)-horns solve the
pentagon for the one missing intertwiner, where k = 3 extracts it from a
tensor-with-identity ansatz (well posed because the last edge is an
equivalence); a special (2,2)-horn inverts its last edge through the Morita
counit.  From dimension 4 up a horn carries no new data, since the nerve is
3-coskeletal (Duskin 2002): every edge and cell lies on a present face, so
the fill is the merged face data.  A fill is checked only where none of its
faces covers it (_check_uncovered): the solved cell and the pentagon at
n = 3, the missing face's pentagon at n = 4, nothing from n = 5 up.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import FdCstarAlgebra, StarHom, compose_homs
from .bicategory import equivalence_inverse, gamma_multiplicativity, gamma_of_hom
from .errors import (
    EndpointMismatch,
    IncompatibleFaces,
    IndexOutOfRange,
    NotMonotone,
    PentagonViolated,
    ShapeMismatch,
    Unfillable,
)
from .linalg import EPS, worse
from .modules import (
    CorrIso,
    Correspondence,
    TensorProduct,
    associator,
    compose_isos,
    corr_close,
    identity_corr,
    iso_distance,
    left_unitor,
    right_unitor,
    tensor_corrs,
    tensor_iso,
)

__all__ = [
    "NCorrSimplex",
    "HornSpec",
    "make_simplex",
    "validate_simplex",
    "apply_map",
    "face",
    "degeneracy",
    "identity_iso",
    "simplex_close",
    "structural_hash",
    "gamma_simplex",
    "pentagon_residual",
    "fill_inner_horn",
    "fill_special_outer_horn",
]


def identity_iso(corr: Correspondence) -> CorrIso:
    """Certified: exact identity blocks are unitary and intertwine exactly."""
    return CorrIso._trusted(corr, corr, [np.eye(m, dtype=complex) for m in corr.module.mult])


class NCorrSimplex:
    """A normal simplex of the correspondence nerve; immutable after construction.

    Only the strict data is stored: ``edges[(i, j)]`` for i < j and
    ``cells[(i, j, k)]`` for i < j < k; any other key is refused.  The
    degenerate data is structure, not data: ``edge(i, i)`` is
    identity_corr(A_i), ``cell(i, i, k)`` the left unitor of E_ii (x) E_ik
    and ``cell(i, k, k)`` the right unitor of E_ik (x) E_kk, each built on
    first use and cached.  The unitors are certified, not checked, so
    reading a simplex does not depend on an eps.  Construction checks keys
    and endpoints only; numeric validity is validate_simplex's job.
    """

    __slots__ = ("n", "algebras", "edges", "cells", "_units", "_tps", "_shash")

    def __init__(self, algebras, edges, cells):
        algebras = tuple(algebras)
        n = len(algebras) - 1
        if n < 0:
            raise ShapeMismatch("a simplex needs at least one vertex")
        _check_strict_keys("edge", edges, combinations(range(n + 1), 2))
        _check_strict_keys("cell", cells, combinations(range(n + 1), 3))
        for (i, j), e in edges.items():
            if e.src != algebras[i] or e.dst != algebras[j]:
                raise EndpointMismatch(f"edge ({i}, {j}) endpoints disagree")
        for (i, j, k), u in cells.items():
            if u.dst is not edges[(i, k)] and not corr_close(u.dst, edges[(i, k)]):
                raise EndpointMismatch(f"cell ({i}, {j}, {k}) does not land on edge ({i}, {k})")
        self.n = n
        self.algebras = algebras
        self.edges = dict(edges)
        self.cells = dict(cells)
        self._units = {}  # built unitor cells
        self._tps = {}
        self._shash = None

    def edge(self, i: int, j: int) -> Correspondence:
        """E_ij for i <= j; E_ii is the identity correspondence."""
        if i != j:
            return self.edges[(i, j)]
        if not 0 <= i <= self.n:
            raise KeyError((i, i))
        return identity_corr(self.algebras[i])

    def cell(self, i: int, j: int, k: int) -> CorrIso:
        """u_ijk for i <= j <= k; u_iik = lambda and u_ikk = rho."""
        if i < j < k:
            return self.cells[(i, j, k)]
        u = self._units.get((i, j, k))
        if u is None:
            if not 0 <= i <= j <= k <= self.n:
                raise KeyError((i, j, k))
            u = left_unitor(self.tp(i, i, k)) if i == j else right_unitor(self.tp(i, k, k))
            self._units[(i, j, k)] = u
        return u

    def tp(self, i: int, j: int, k: int) -> TensorProduct:
        """Cached E_ij (x) E_jk."""
        key = (i, j, k)
        if key not in self._tps:
            self._tps[key] = tensor_corrs(self.edge(i, j), self.edge(j, k))
        return self._tps[key]

    def tp_left(self, i, j, k, l) -> TensorProduct:
        key = ("L", i, j, k, l)
        if key not in self._tps:
            self._tps[key] = tensor_corrs(self.tp(i, j, k).corr, self.edge(k, l))
        return self._tps[key]

    def tp_right(self, i, j, k, l) -> TensorProduct:
        key = ("R", i, j, k, l)
        if key not in self._tps:
            self._tps[key] = tensor_corrs(self.edge(i, j), self.tp(j, k, l).corr)
        return self._tps[key]

    def __repr__(self):
        return f"NCorrSimplex(n={self.n}, algebras={[a.blocks for a in self.algebras]})"


def _check_strict_keys(what: str, given, strict) -> None:
    strict = set(strict)
    for key in given:
        if key not in strict:
            raise ShapeMismatch(f"{what} key {key} is not strictly increasing in range")
    missing = sorted(strict.difference(given))
    if missing:
        raise ShapeMismatch(f"missing {what} {missing[0]}")


def make_simplex(algebras, edges, cells, *, eps: float = EPS, validate: bool = True) -> NCorrSimplex:
    """Assemble a simplex from its strict data: ``edges`` for the pairs
    i < j, ``cells`` for the triples i < j < k."""
    s = NCorrSimplex(algebras, edges, cells)
    if validate:
        validate_simplex(s, eps=eps)
    return s


def pentagon_residual(s: NCorrSimplex, i, j, k, l) -> float:
    """Residual of u_ikl . (u_ijk (x) id) = u_ijl . (id (x) u_jkl) . assoc
    as maps (E_ij (x) E_jk) (x) E_kl -> E_il."""
    t_l, t_r = s.tp_left(i, j, k, l), s.tp_right(i, j, k, l)
    ass = associator(s.tp(i, j, k), t_l, s.tp(j, k, l), t_r)
    left = tensor_iso(s.cell(i, j, k), identity_iso(s.edge(k, l)), t_l, s.tp(i, k, l))
    right = tensor_iso(identity_iso(s.edge(i, j)), s.cell(j, k, l), t_r, s.tp(i, j, l))
    lhs = compose_isos(s.cell(i, k, l), left)
    return iso_distance(lhs, compose_isos(s.cell(i, j, l), compose_isos(right, ass)))


def _check_uncovered(s: NCorrSimplex, faces, eps: float) -> float:
    """Check s where none of ``faces`` covers it; return the worst pentagon
    residual checked (NaN is the worst).  A strict triple or quadruple t
    lies in face j iff j is not in t, so t is checked iff it holds every
    face index: u_t must start at E_ij (x) E_jk (EndpointMismatch) and the
    pentagon at t must hold (PentagonViolated).  With no faces this is
    validate_simplex.  Sound when the faces are valid simplices that s
    agrees with, as the horn merge (IncompatibleFaces) and the extension's
    face comparison ensure: a covered t's data are then that face's copies
    (within eps; bit-identical in every run measured), and that face was
    checked where it was made.
    """
    uncovered = set(faces).issubset
    ids = range(s.n + 1)
    for t in filter(uncovered, combinations(ids, 3)):
        if not corr_close(s.cells[t].src, s.tp(*t).corr, eps):
            raise EndpointMismatch(f"cell {t} does not start at E_ij (x) E_jk")
    pent, pent_at = 0.0, None
    for q in filter(uncovered, combinations(ids, 4)):
        r = pentagon_residual(s, *q)
        if worse(r, pent):
            pent, pent_at = r, q
    if not pent <= eps:
        raise PentagonViolated(*pent_at, pent)
    return pent


def validate_simplex(s: NCorrSimplex, *, eps: float = EPS) -> NCorrSimplex:
    """Check the pentagon condition; raise on failure.

    The edges must be correspondences (left actions *-homs), as JSON parse
    with validate=True and the library constructors guarantee; ``corrlab
    validate`` checks them itself.  Normality (E_ii = I, u_iik = lambda,
    u_ikk = rho) holds by construction: NCorrSimplex stores no degenerate
    data and derives it from the unitors, so there is nothing to check.
    Each strict u_ijk must start at E_ij (x) E_jk (NCorrSimplex checks only
    where cells land).  The pentagon is checked at i < j < k < l only; at a repeated index it is
    implied, since every cell is a valid CorrIso between those endpoints
    (unitary, intertwining, right linear by structure) and the unit cells
    are the unitors; the first case that applies covers it:
    - i = j: naturality of lambda along u_ikl, and
      lambda_{E (x) F} . a = lambda_E (x) id;
    - j = k: the triangle identity (rho (x) id) = (id (x) lambda) . a;
    - k = l: naturality of rho along u_ijk, and
      rho_{E (x) F} = (id (x) rho_F) . a.
    These hold to rounding (test_bicategory_coherence).
    """
    _check_uncovered(s, (), eps)
    return s


def apply_map(s: NCorrSimplex, phi) -> NCorrSimplex:
    """Reindex along a weakly increasing phi: [m] -> [n]; pure lookup."""
    phi = tuple(int(x) for x in phi)
    if any(b < a for a, b in zip(phi, phi[1:])):
        raise NotMonotone(f"{list(phi)} is not weakly increasing")
    if phi and (phi[0] < 0 or phi[-1] > s.n):
        raise NotMonotone(f"{list(phi)} does not land in [0, {s.n}]")
    ids = range(len(phi))
    algebras = tuple(s.algebras[p] for p in phi)
    edges = {(a, b): s.edge(phi[a], phi[b]) for a, b in combinations(ids, 2)}
    cells = {t: s.cell(*(phi[x] for x in t)) for t in combinations(ids, 3)}
    return NCorrSimplex(algebras, edges, cells)


def face(s: NCorrSimplex, i: int) -> NCorrSimplex:
    if not 0 <= i <= s.n:
        raise IndexOutOfRange(f"face index {i} out of range for dimension {s.n}")
    return apply_map(s, [x for x in range(s.n + 1) if x != i])


def degeneracy(s: NCorrSimplex, i: int) -> NCorrSimplex:
    if not 0 <= i <= s.n:
        raise IndexOutOfRange(f"degeneracy index {i} out of range for dimension {s.n}")
    return apply_map(s, sorted(list(range(s.n + 1)) + [i]))


def simplex_close(s1: NCorrSimplex, s2: NCorrSimplex, eps: float = EPS) -> bool:
    if s1.n != s2.n or s1.algebras != s2.algebras:
        return False
    for key, e in s1.edges.items():
        if not corr_close(e, s2.edges[key], eps):
            return False
    for key, u in s1.cells.items():
        if u.src.module != s2.cells[key].src.module:
            return False
        if iso_distance(u, s2.cells[key]) > eps:
            return False
    return True


def _h_update(h, obj):
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(obj, FdCstarAlgebra):
        h.update(b"alg" + repr(obj.blocks).encode())
    elif isinstance(obj, Correspondence):
        h.update(b"corr")
        _h_update(h, obj.src)
        _h_update(h, obj.dst)
        h.update(repr(obj.module.mult).encode())
        _h_update(h, obj.lam.matrix)
    elif isinstance(obj, CorrIso):
        h.update(b"iso")
        _h_update(h, obj.src)
        _h_update(h, obj.dst)
        for u in obj.blocks:
            _h_update(h, u)
    elif isinstance(obj, StarHom):
        h.update(b"hom")
        _h_update(h, obj.src)
        _h_update(h, obj.dst)
        _h_update(h, obj.matrix)
    elif isinstance(obj, NCorrSimplex):
        h.update(f"simplex{obj.n}".encode())
        for a in obj.algebras:
            _h_update(h, a)
        for size, stored in ((2, obj.edges), (3, obj.cells)):
            for key in combinations(range(obj.n + 1), size):
                h.update(repr(key).encode())
                _h_update(h, stored[key])
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for x in obj:
            _h_update(h, x)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def structural_hash(obj) -> str:
    """Hash of the exact bytes of an object's defining data.

    Equal hashes mean bit-identical data. Used for memo keys, trace ids and
    exact-recovery checks; tolerance-based comparisons live in simplex_close.
    A simplex hashes its algebras and its stored strict edges and cells: its
    identity edges and unit cells are a function of those, so hashing builds
    none of them.
    """
    if isinstance(obj, NCorrSimplex) and obj._shash is not None:
        return obj._shash
    h = hashlib.sha1()
    _h_update(h, obj)
    digest = h.hexdigest()
    if isinstance(obj, NCorrSimplex):
        obj._shash = digest
    return digest


def gamma_simplex(phis, *, eps: float = EPS, validate: bool = True, composites=None) -> NCorrSimplex:
    """The simplex of a composable chain A_0 -> A_1 -> ... -> A_n.

    E_ij is the correspondence of the composite hom over (i, j], and the
    u_ijk are the canonical multiplicativity intertwiners. ``composites``
    may supply the hom for (i, j) directly; callers holding a coherent
    family use it so that shared edges come out bit-identical instead of
    being recomposed per chain.
    """
    phis = list(phis)
    n = len(phis)
    algebras = [phis[0].src] if n else []
    for f in phis:
        if algebras and f.src != algebras[-1]:
            raise EndpointMismatch("chain is not composable")
        algebras.append(f.dst)
    if not n:
        raise ShapeMismatch("gamma_simplex needs at least one hom")
    composites = composites or {}
    comp = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            given = composites.get((i, j))
            if given is not None:
                if given.src != algebras[i] or given.dst != algebras[j]:
                    raise EndpointMismatch(f"supplied composite ({i}, {j}) has wrong endpoints")
                comp[(i, j)] = given
            else:
                comp[(i, j)] = (
                    phis[i] if j == i + 1 else compose_homs(phis[j - 1], comp[(i, j - 1)])
                )
    edges = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            edges[(i, j)] = gamma_of_hom(comp[(i, j)], eps=eps)
    cells = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                t = tensor_corrs(edges[(i, j)], edges[(j, k)], eps=eps)
                cells[(i, j, k)] = gamma_multiplicativity(
                    comp[(j, k)], comp[(i, j)], t, comp=comp[(i, k)], eps=eps
                )
    return make_simplex(algebras, edges, cells, eps=eps, validate=validate)


@dataclass(frozen=True)
class HornSpec:
    """The horn L^n_k: all faces of an n-simplex except the k-th.

    ``faces[j]`` for j != k are (n-1)-simplices; they must agree on shared
    sub-faces up to rounding.
    """

    n: int
    k: int
    faces: dict

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise ShapeMismatch(f"horn index {self.k} out of range for n={self.n}")
        expected = set(range(self.n + 1)) - {self.k}
        if set(self.faces) != expected:
            raise ShapeMismatch(f"horn needs faces {sorted(expected)}, got {sorted(self.faces)}")
        for j, f in self.faces.items():
            if f.n != self.n - 1:
                raise ShapeMismatch(f"face {j} has dimension {f.n}, expected {self.n - 1}")


def _coface(j: int, n: int):
    """delta_j: [n-1] -> [n], skipping j."""
    return [x for x in range(n + 1) if x != j]


def _merge_face_data(n: int, faces: dict, eps: float = EPS, prefer=None):
    """Pool edges and cells from the faces.

    Shared data must agree within eps; the copy from the lowest face index
    is kept, or from face ``prefer`` when given. Bit-exact agreement is not
    required because values reaching a horn along different composition
    paths differ by rounding.
    """
    algebras = [None] * (n + 1)
    edges, cells = {}, {}
    owner = {}
    for j in sorted(faces, key=lambda x: (x != prefer, x)):
        f = faces[j]
        d = _coface(j, n)
        for a in range(n):
            if algebras[d[a]] is None:
                algebras[d[a]] = f.algebras[a]
            elif algebras[d[a]] != f.algebras[a]:
                raise IncompatibleFaces(f"faces disagree on vertex {d[a]}")
        for (a, b), e in f.edges.items():
            key = (d[a], d[b])
            if key in edges:
                if edges[key] is not e and not corr_close(edges[key], e, eps):
                    raise IncompatibleFaces(
                        f"faces {owner[key]} and {j} disagree on edge {key}"
                    )
            else:
                edges[key] = e
                owner[key] = j
        for (a, b, c), u in f.cells.items():
            key = (d[a], d[b], d[c])
            if key in cells:
                prev = cells[key]
                if prev is not u:
                    if (
                        prev.src.module != u.src.module
                        or prev.dst.module != u.dst.module
                        or iso_distance(prev, u) > eps
                    ):
                        raise IncompatibleFaces(
                            f"faces {owner[key]} and {j} disagree on cell {key}"
                        )
            else:
                cells[key] = u
                owner[key] = j
    return algebras, edges, cells


def fill_inner_horn(horn: HornSpec, *, eps: float = EPS) -> NCorrSimplex:
    """Fill L^n_k for 0 < k < n.

    n=2 composes the edges, n=3 solves the pentagon for the missing
    intertwiner, n >= 4 assembles the boundary (no new data from there up).
    The faces must be valid simplices; the fill is checked where none covers it.
    """
    n, k = horn.n, horn.k
    if not (0 < k < n):
        raise Unfillable(f"L^{n}_{k} is not an inner horn")
    algebras, edges, cells = _merge_face_data(horn.n, horn.faces, eps)
    if n == 2:
        t = tensor_corrs(edges[(0, 1)], edges[(1, 2)], eps=eps)
        edges[(0, 2)] = t.corr
        cells[(0, 1, 2)] = identity_iso(t.corr)
    elif n == 3:
        cells[_missing_triple(k)] = _solve_pentagon(edges, cells, k, eps)
    s = NCorrSimplex(algebras, edges, cells)
    _check_uncovered(s, horn.faces, eps)
    return s


def fill_special_outer_horn(horn: HornSpec, witness=None, *, eps: float = EPS) -> NCorrSimplex:
    """Fill L^n_n, n >= 2, whose last edge is an equivalence.

    ``witness`` may carry the equivalence data of E_{n-1,n}; it is computed
    (and the edge thereby certified) when absent.  From n = 4 up the fill
    assembles the boundary.  The faces must be valid simplices; the fill is
    checked where none covers it.
    """
    n, k = horn.n, horn.k
    if k != n:
        raise Unfillable(f"L^{n}_{k} is not a special outer horn")
    if n < 2:
        raise Unfillable("a special outer horn below dimension 2 has no last edge")
    algebras, edges, cells = _merge_face_data(horn.n, horn.faces, eps)
    if n < 4:
        last = edges[(n - 1, n)]
        if witness is None or not corr_close(witness.corr, last, eps):
            witness = equivalence_inverse(last, eps=eps)
        if n == 2:
            inv = witness.inverse
            t1 = tensor_corrs(edges[(0, 2)], inv, eps=eps)
            e01 = t1.corr
            edges[(0, 1)] = e01
            t2 = tensor_corrs(e01, edges[(1, 2)], eps=eps)
            t_r = witness.tp_right
            t_e_fg = tensor_corrs(edges[(0, 2)], t_r.corr, eps=eps)
            ass = associator(t1, t2, t_r, t_e_fg)
            t_unit = tensor_corrs(edges[(0, 2)], identity_corr(algebras[2]), eps=eps)
            mid = tensor_iso(
                identity_iso(edges[(0, 2)]), witness.counit_right, t_e_fg, t_unit, eps=eps
            )
            u = compose_isos(right_unitor(t_unit, eps=eps), compose_isos(mid, ass))
            cells[(0, 1, 2)] = u
        else:
            cells[(0, 1, 2)] = _solve_pentagon(edges, cells, 3, eps)
    s = NCorrSimplex(algebras, edges, cells)
    _check_uncovered(s, horn.faces, eps)
    return s


def _boundary_dim(faces: dict) -> int:
    """The n of a boundary: faces keyed 0..n, each of dimension n - 1."""
    n = len(faces) - 1
    if set(faces) != set(range(n + 1)):
        raise ShapeMismatch(f"boundary needs faces 0..{n}, got {sorted(faces)}")
    for j, f in faces.items():
        if f.n != n - 1:
            raise ShapeMismatch(f"face {j} has dimension {f.n}, expected {n - 1}")
    return n


def assemble_boundary(faces: dict, *, eps: float = EPS, prefer=None) -> NCorrSimplex:
    """Rebuild an n-simplex from all n+1 of its faces.

    From dimension 3 up every edge and cell lives on some face, so the
    boundary pins the simplex down completely; shared data must agree
    within eps. A 2-boundary leaves the triangle's intertwiner free and is
    rejected. ``prefer`` names a face whose copy of shared data wins the
    vote; callers that later extract that face get its bits back unchanged.
    The faces must be valid simplices; from n = 4 up they cover every check.
    """
    n = _boundary_dim(faces)
    if n < 3:
        raise Unfillable("a boundary below dimension 3 does not determine the simplex")
    algebras, edges, cells = _merge_face_data(n, faces, eps, prefer)
    s = NCorrSimplex(algebras, edges, cells)
    _check_uncovered(s, faces, eps)
    return s


def _missing_triple(k: int):
    return tuple(x for x in range(4) if x != k)


def _solve_pentagon(edges, cells, k, eps):
    """The unique u making the (0,1,2,3) pentagon commute, k in {1, 2, 3}."""
    e01, e12, e23 = edges[(0, 1)], edges[(1, 2)], edges[(2, 3)]
    e02, e13 = edges[(0, 2)], edges[(1, 3)]
    t01_12 = tensor_corrs(e01, e12, eps=eps)
    t12_23 = tensor_corrs(e12, e23, eps=eps)
    t_l = tensor_corrs(t01_12.corr, e23, eps=eps)
    t_r = tensor_corrs(e01, t12_23.corr, eps=eps)
    t02_23 = tensor_corrs(e02, e23, eps=eps)
    t01_13 = tensor_corrs(e01, e13, eps=eps)
    ass = associator(t01_12, t_l, t12_23, t_r)
    step = tensor_iso(identity_iso(e01), cells[(1, 2, 3)], t_r, t01_13, eps=eps)
    if k == 2:
        left = compose_isos(
            cells[(0, 2, 3)],
            tensor_iso(cells[(0, 1, 2)], identity_iso(e23), t_l, t02_23, eps=eps),
        )
        return compose_isos(left, compose_isos(ass.inverse(), step.inverse()))
    right = compose_isos(cells[(0, 1, 3)], compose_isos(step, ass))
    if k == 1:
        left_part = tensor_iso(cells[(0, 1, 2)], identity_iso(e23), t_l, t02_23, eps=eps)
        return compose_isos(right, left_part.inverse())
    # k == 3: solve u (x) id = T for u: E01 (x) E12 -> E02
    t_mat = compose_isos(cells[(0, 2, 3)].inverse(), right)
    a2 = e02.dst
    blocks = []
    for j in range(a2.nblocks):
        m_dst = e02.module.mult[j]
        m_src = t01_12.module.mult[j]
        num = np.zeros((m_dst, m_src), dtype=complex)
        den = 0
        for kk in range(e23.dst.nblocks):
            r = int(t02_23.r[j, kk])
            if r == 0:
                continue
            den += r
            tb = t_mat.blocks[kk]
            o_d = t02_23.row_start(kk, j, 0)
            o_s = t_l.row_start(kk, j, 0)
            for a in range(m_dst):
                for a2_ in range(m_src):
                    num[a, a2_] += np.trace(
                        tb[o_d + a * r : o_d + (a + 1) * r, o_s + a2_ * r : o_s + (a2_ + 1) * r]
                    )
        if m_dst > 0 and den == 0:
            raise Unfillable(f"extraction ill posed at block {j}: last edge acts by zero")
        blocks.append(num / den if den else num)
    u = CorrIso(t01_12.corr, e02, blocks, eps=eps)
    resid = iso_distance(tensor_iso(u, identity_iso(e23), t_l, t02_23, eps=eps), t_mat)
    if resid > eps:
        raise IncompatibleFaces("no fill matches the given faces", resid)
    return u
