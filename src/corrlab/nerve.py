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

One rule, _check_uncovered, checks a simplex at its caller's eps.  The
simplicial operators of every nerve in the package (both targets, the
subdivision's chains, the prism cells) are checked here, once each: a
vertex map by _vertex_map, a face or degeneracy index by _index (whose
coface or codegeneracy map _index_map makes), a horn's kind by
HornSpec._check_kind; _face_closure is the one face closure.  Reindexing
is then pure lookup with no re-check, so shared faces are shared objects,
byte for byte.  Simplices store no tensor products: all read the one
tensor_corrs keeps on the left edge.

Fills: an inner (2,1)-horn composes its two edges; (3,k)-horns solve the
pentagon for the one missing intertwiner, where k = 3 extracts it from a
tensor-with-identity ansatz (well posed because the last edge is an
equivalence); every special fill checks that its last edge is one, and a
(2,2)-horn inverts it through the Morita counit.  From dimension 4 up a horn
carries no new data, since the nerve is 3-coskeletal (Duskin 2002): every
edge and cell lies on a present face, so the fill is the merged face data.
A fill is checked only where none of its faces covers it
(_check_uncovered): the solved cell and the pentagon at n = 3, the missing
face's pentagon at n = 4, nothing from n = 5 up.
"""
from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import FdCstarAlgebra, compose_homs
from .bicategory import equivalence_inverse, gamma_multiplicativity, gamma_of_hom
from .errors import (
    EndpointMismatch, FunctorialityViolated, IncompatibleFaces, IndexOutOfRange, NotMonotone, PentagonViolated,
    ShapeMismatch, Unfillable,
)
from .linalg import EPS, frob, worse
from .modules import (
    CorrIso, Correspondence, TensorProduct, associator, compose_isos, corr_close, identity_corr, iso_distance,
    left_unitor, right_unitor, tensor_corrs, tensor_iso,
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

    The certified constructor: it stores the strict data, ``edges[(i, j)]``
    for i < j and ``cells[(i, j, k)]`` for i < j < k, and checks nothing, as
    StarHom does; make_simplex and the fills check it (_check_uncovered).
    The degenerate data is structure, not data: ``edge(i, i)`` is
    identity_corr(A_i), ``cell(i, i, k)`` the left unitor of E_ii (x) E_ik
    and ``cell(i, k, k)`` the right unitor of E_ik (x) E_kk, each built on
    first use and cached.  The unitors are certified, not checked, so
    reading a simplex does not depend on an eps.
    """

    __slots__ = ("n", "algebras", "edges", "cells", "_units", "_shash")

    def __init__(self, algebras, edges, cells):
        self.algebras = tuple(algebras)
        self.n = len(self.algebras) - 1
        self.edges = dict(edges)
        self.cells = dict(cells)
        self._units = {}  # built unitor cells
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
        """E_ij (x) E_jk, the product kept on E_ij (tensor_corrs)."""
        return tensor_corrs(self.edge(i, j), self.edge(j, k))

    def __repr__(self):
        return f"NCorrSimplex(n={self.n}, algebras={[a.blocks for a in self.algebras]})"


def make_simplex(algebras, edges, cells, *, eps: float = EPS, validate: bool = True) -> NCorrSimplex:
    """Assemble a simplex from its strict data: ``edges`` for the pairs
    i < j, ``cells`` for the triples i < j < k."""
    s = NCorrSimplex(algebras, edges, cells)
    if validate:
        validate_simplex(s, eps=eps)
    return s


def pentagon_residual(s: NCorrSimplex, i, j, k, l, *, eps: float = EPS) -> float:
    """Residual of u_ikl . (u_ijk (x) id) = u_ijl . (id (x) u_jkl) . assoc
    as maps (E_ij (x) E_jk) (x) E_kl -> E_il, each endpoint checked at eps."""
    t_l = tensor_corrs(s.tp(i, j, k).corr, s.edge(k, l))
    t_r = tensor_corrs(s.edge(i, j), s.tp(j, k, l).corr)
    ass = associator(s.tp(i, j, k), t_l, s.tp(j, k, l), t_r, eps=eps)
    left = tensor_iso(s.cell(i, j, k), identity_iso(s.edge(k, l)), t_l, s.tp(i, k, l), eps=eps)
    right = tensor_iso(identity_iso(s.edge(i, j)), s.cell(j, k, l), t_r, s.tp(i, j, l), eps=eps)
    lhs = compose_isos(s.cell(i, k, l), left, eps=eps)
    rhs = compose_isos(s.cell(i, j, l), compose_isos(right, ass, eps=eps), eps=eps)
    return iso_distance(lhs, rhs)


def _check_uncovered(s: NCorrSimplex, faces, eps: float) -> float:
    """The one check of a simplex, all at eps; return the worst pentagon
    residual checked (NaN is the worst).  s needs a vertex, the strict keys
    (ShapeMismatch) and edges E_ij: A_i -> A_j (EndpointMismatch).  A strict
    triple or quadruple t lies in face j iff j is not in t, so t is checked
    iff it holds every one of ``faces``: u_ijk must land on E_ik and start
    at E_ij (x) E_jk (EndpointMismatch), and the pentagon at t must hold
    (PentagonViolated).  With no faces this is validate_simplex.  Sound when
    the faces are valid simplices that s agrees with, as the horn merge
    (IncompatibleFaces) and the extension's face comparison ensure: each
    skipped t's data are then within eps of a checked face's copies, not
    always the same bits: a merge keeps the lowest face's copy, and a
    guided run's top is the section's proposal itself.
    """
    if s.n < 0:
        raise ShapeMismatch("a simplex needs at least one vertex")
    ids = range(s.n + 1)
    for what, stored, size in (("edge", s.edges, 2), ("cell", s.cells, 3)):
        strict = set(combinations(ids, size))
        for key in stored:
            if key not in strict:
                raise ShapeMismatch(f"{what} key {key} is not strictly increasing in range")
        missing = sorted(strict.difference(stored))
        if missing:
            raise ShapeMismatch(f"missing {what} {missing[0]}")
    for (i, j), e in s.edges.items():
        if e.src != s.algebras[i] or e.dst != s.algebras[j]:
            raise EndpointMismatch(f"edge ({i}, {j}) endpoints disagree")
    uncovered = set(faces).issubset
    for t in filter(uncovered, combinations(ids, 3)):
        if not corr_close(s.cells[t].dst, s.edges[t[::2]], eps):
            raise EndpointMismatch(f"cell {t} does not land on edge {t[::2]}")
        if not corr_close(s.cells[t].src, s.tp(*t).corr, eps):
            raise EndpointMismatch(f"cell {t} does not start at E_ij (x) E_jk")
    pent, pent_at = 0.0, None
    for q in filter(uncovered, combinations(ids, 4)):
        r = pentagon_residual(s, *q, eps=eps)
        if worse(r, pent):
            pent, pent_at = r, q
    if not pent <= eps:
        raise PentagonViolated(*pent_at, pent)
    return pent


def validate_simplex(s: NCorrSimplex, *, eps: float = EPS) -> NCorrSimplex:
    """Check the pentagon condition; raise on failure.

    The edges must be correspondences (left actions *-homs), as a JSON load
    and the library constructors guarantee.  Normality (E_ii = I, u_iik =
    lambda, u_ikk = rho) holds by construction: NCorrSimplex stores no
    degenerate data and derives it from the unitors: nothing to check.
    _check_uncovered checks the keys and endpoints, and the pentagon at
    i < j < k < l only; at a repeated index it is implied, since every cell
    is a valid CorrIso between those endpoints (unitary, intertwining, right
    linear by structure) and the unit cells are the unitors; the first case
    that applies covers it:
    - i = j: naturality of lambda along u_ikl, and
      lambda_{E (x) F} . a = lambda_E (x) id;
    - j = k: the triangle identity (rho (x) id) = (id (x) lambda) . a;
    - k = l: naturality of rho along u_ijk, and
      rho_{E (x) F} = (id (x) rho_F) . a.
    These hold to rounding (test_bicategory_coherence).
    """
    _check_uncovered(s, (), eps)
    return s


def _vertex_map(phi, n: int) -> tuple:
    """phi: [m] -> [n] as ints; ShapeMismatch if empty, NotMonotone unless
    integers (numpy's pass, 1.5 and "1" do not), weakly increasing, in [0, n]."""
    phi = tuple(phi)
    if not phi:
        raise ShapeMismatch("a simplex needs at least one vertex")
    try:
        out = tuple(map(operator.index, phi))
        ok = 0 <= out[0] and out[-1] <= n and all(a <= b for a, b in zip(out, out[1:]))
    except TypeError:
        ok = False
    if not ok:
        raise NotMonotone(f"{list(phi)} is not a weakly increasing map into [0, {n}]")
    return out


def _index(what: str, i, n: int) -> int:
    """A face or degeneracy index: IndexOutOfRange unless an integer in [0, n]."""
    try:
        i = operator.index(i)
        ok = 0 <= i <= n
    except TypeError:
        ok = False
    if not ok:
        raise IndexOutOfRange(f"{what} index {i!r} out of range for dimension {n}")
    return i


def _index_map(what: str, i, n: int) -> tuple:
    """The coface [n-1] -> [n] missing i (a vertex has none: ShapeMismatch)
    or the codegeneracy [n+1] -> [n] hitting i twice."""
    i = _index(what, i, n)
    if what == "degeneracy":
        return (*range(i + 1), *range(i, n + 1))
    if n == 0:
        raise ShapeMismatch("a vertex has no faces")
    return (*range(i), *range(i + 1, n + 1))


def _reindex(s: NCorrSimplex, phi: tuple) -> NCorrSimplex:
    """s along a checked vertex map phi; pure lookup."""
    ids = range(len(phi))
    algebras = tuple(s.algebras[p] for p in phi)
    edges = {(a, b): s.edge(phi[a], phi[b]) for a, b in combinations(ids, 2)}
    cells = {t: s.cell(*(phi[x] for x in t)) for t in combinations(ids, 3)}
    return NCorrSimplex(algebras, edges, cells)


def apply_map(s: NCorrSimplex, phi) -> NCorrSimplex:
    """Reindex along a vertex map phi: [m] -> [n] (_vertex_map)."""
    return _reindex(s, _vertex_map(phi, s.n))


def face(s: NCorrSimplex, i: int) -> NCorrSimplex:
    return _reindex(s, _index_map("face", i, s.n))


def degeneracy(s: NCorrSimplex, i: int) -> NCorrSimplex:
    return _reindex(s, _index_map("degeneracy", i, s.n))


def _face_closure(simplices, out=None) -> dict:
    """The given simplices and all their faces, keyed by structural_hash,
    each after its own faces, added to ``out`` (a new dict by default).  It
    calls itself, not a nested function, which would be a reference cycle."""
    out = {} if out is None else out
    for s in simplices:
        key = structural_hash(s)
        if key not in out:
            _face_closure((face(s, i) for i in range(s.n + 1 if s.n else 0)), out)
            out[key] = s
    return out


def simplex_close(s1: NCorrSimplex, s2: NCorrSimplex, eps: float = EPS) -> bool:
    if s1.n != s2.n or s1.algebras != s2.algebras:
        return False
    return all(corr_close(e, s2.edges[key], eps) for key, e in s1.edges.items()) and all(
        u.src.module == s2.cells[key].src.module and iso_distance(u, s2.cells[key]) <= eps
        for key, u in s1.cells.items()
    )


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
    elif isinstance(obj, NCorrSimplex):
        h.update(f"simplex{obj.n}".encode())
        for a in obj.algebras:
            _h_update(h, a)
        for size, stored in ((2, obj.edges), (3, obj.cells)):
            for key in combinations(range(obj.n + 1), size):
                h.update(repr(key).encode())
                _h_update(h, stored[key])
    else:
        raise TypeError(f"structural_hash has no rule for {type(obj).__name__}")


def structural_hash(obj) -> str:
    """Hash of the exact bytes of an object's defining data.

    Equal hashes mean bit-identical data. Used for memo keys, trace ids and
    exact-recovery checks; tolerance-based comparisons live in simplex_close.
    A type with no rule raises TypeError, a lone hom, a K0Simplex, a tuple
    or a scalar among them: no memo key is one (a K0Simplex compares by ==).
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
    being recomposed per chain.  With ``validate`` each must be, within eps
    in Frobenius norm, phis[i] at j = i + 1 (IncompatibleFaces) and else
    phis[j-1] . comp(i, j-1) (FunctorialityViolated).
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
    for i, j in combinations(range(n + 1), 2):
        given = composites.get((i, j))
        if given is not None and (given.src != algebras[i] or given.dst != algebras[j]):
            raise EndpointMismatch(f"supplied composite ({i}, {j}) has wrong endpoints")
        if given is None or validate:
            made = phis[i] if j == i + 1 else compose_homs(phis[j - 1], comp[(i, j - 1)])
            if given is not None and not (r := frob(given.matrix - made.matrix)) <= eps:
                if j == i + 1:
                    raise IncompatibleFaces(f"supplied edge ({i}, {j}) is not phis[{i}]", r)
                raise FunctorialityViolated((i,), (j - 1,), (j,), r)
        comp[(i, j)] = made if given is None else given
    edges = {(i, j): gamma_of_hom(comp[(i, j)]) for i, j in combinations(range(n + 1), 2)}
    cells = {
        (i, j, k): gamma_multiplicativity(comp[(j, k)], comp[(i, j)], comp=comp[(i, k)])
        for i, j, k in combinations(range(n + 1), 3)
    }
    return make_simplex(algebras, edges, cells, eps=eps, validate=validate)


@dataclass(frozen=True)
class HornSpec:
    """The horn L^n_k: all faces of an n-simplex except the k-th.

    n and k are integers (numpy's pass, 1.5 does not) with 0 <= k <= n, and
    ``faces[j]`` for j != k are (n-1)-simplices, else ShapeMismatch; the
    faces must agree on shared sub-faces up to rounding.
    """

    n: int
    k: int
    faces: dict

    def __post_init__(self):
        try:  # k read by the one index rule, against an integer n
            _index("horn", self.k, operator.index(self.n))
        except (TypeError, IndexOutOfRange):
            raise ShapeMismatch(f"horn index {self.k} out of range for n={self.n}") from None
        expected = set(range(self.n + 1)) - {self.k}
        _check_faces(self.faces, expected, self.n, f"horn needs faces {sorted(expected)}")

    def _check_kind(self, special: bool):
        """The one horn rule: L^n_k fills as an inner horn iff 0 < k < n and
        as a special outer horn iff k = n >= 2; Unfillable otherwise.  A
        special fill then checks that its last edge, (n-1, n), is an
        equivalence."""
        n, k = self.n, self.k
        if not special and not 0 < k < n:
            raise Unfillable(f"L^{n}_{k} is not an inner horn")
        if special and k != n:
            raise Unfillable(f"L^{n}_{k} is not a special outer horn")
        if special and n < 2:
            raise Unfillable("a special outer horn below dimension 2 has no last edge")


def _check_faces(faces: dict, keys: set, n: int, needs: str):
    if set(faces) != keys:
        raise ShapeMismatch(f"{needs}, got {sorted(faces)}")
    for j, f in faces.items():
        if f.n != n - 1:
            raise ShapeMismatch(f"face {j} has dimension {f.n}, expected {n - 1}")


def _merge_face_data(n: int, faces: dict, eps: float = EPS):
    """Pool edges and cells from the faces.

    Shared data must agree within eps; the copy from the lowest face index
    is kept. Bit-exact agreement is not required because values reaching a
    horn along different composition paths differ by rounding.
    """
    algebras = [None] * (n + 1)
    edges, cells = {}, {}
    owner = {}
    for j, f in sorted(faces.items()):
        d = _index_map("face", j, n)
        for a in range(n):
            if algebras[d[a]] is None:
                algebras[d[a]] = f.algebras[a]
            elif algebras[d[a]] != f.algebras[a]:
                raise IncompatibleFaces(f"faces disagree on vertex {d[a]}")
        for (a, b), e in f.edges.items():
            key = (d[a], d[b])
            if key in edges:
                if not corr_close(edges[key], e, eps):
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
                        or not iso_distance(prev, u) <= eps
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
    horn._check_kind(special=False)
    n, k = horn.n, horn.k
    algebras, edges, cells = _merge_face_data(n, horn.faces, eps)
    if n == 2:
        t = tensor_corrs(edges[(0, 1)], edges[(1, 2)])
        edges[(0, 2)] = t.corr
        cells[(0, 1, 2)] = identity_iso(t.corr)
    elif n == 3:
        cells[_index_map("face", k, 3)] = _solve_pentagon(edges, cells, k, eps)
    s = NCorrSimplex(algebras, edges, cells)
    _check_uncovered(s, horn.faces, eps)
    return s


def fill_special_outer_horn(horn: HornSpec, *, eps: float = EPS) -> NCorrSimplex:
    """Fill L^n_n, n >= 2, whose last edge is an equivalence.

    The fill checks that edge itself, in every dimension: equivalence_inverse
    of E_{n-1,n} raises unless it is one, and at n = 2 its inverse and counit
    make the fill.  From n = 4 up the fill assembles the boundary.  The faces
    must be valid simplices; the fill is checked where none covers it.
    """
    horn._check_kind(special=True)
    n = horn.n
    algebras, edges, cells = _merge_face_data(n, horn.faces, eps)
    equiv = equivalence_inverse(edges[(n - 1, n)], eps=eps)
    if n == 2:
        inv = equiv.inverse
        t1 = tensor_corrs(edges[(0, 2)], inv)
        e01 = t1.corr
        edges[(0, 1)] = e01
        t2 = tensor_corrs(e01, edges[(1, 2)])
        t_r = tensor_corrs(inv, equiv.corr)
        t_e_fg = tensor_corrs(edges[(0, 2)], t_r.corr)
        ass = associator(t1, t2, t_r, t_e_fg, eps=eps)
        t_unit = tensor_corrs(edges[(0, 2)], identity_corr(algebras[2]))
        mid = tensor_iso(
            identity_iso(edges[(0, 2)]), equiv.counit_right, t_e_fg, t_unit, eps=eps
        )
        rho = right_unitor(t_unit, eps=eps)
        cells[(0, 1, 2)] = compose_isos(rho, compose_isos(mid, ass, eps=eps), eps=eps)
    elif n == 3:
        cells[(0, 1, 2)] = _solve_pentagon(edges, cells, 3, eps)
    s = NCorrSimplex(algebras, edges, cells)
    _check_uncovered(s, horn.faces, eps)
    return s


def _boundary_dim(faces: dict) -> int:
    """The n of a boundary: faces keyed 0..n, each of dimension n - 1."""
    n = len(faces) - 1
    _check_faces(faces, set(range(n + 1)), n, f"boundary needs faces 0..{n}")
    return n


def assemble_boundary(faces: dict, *, eps: float = EPS) -> NCorrSimplex:
    """Rebuild an n-simplex from all n+1 of its faces.

    From dimension 3 up every edge and cell lives on some face, so the
    boundary pins the simplex down completely; shared data must agree
    within eps. A 2-boundary leaves the triangle's intertwiner free and is
    rejected. The faces must be valid simplices; from n = 4 up they cover
    every check.
    """
    n = _boundary_dim(faces)
    if n < 3:
        raise Unfillable("a boundary below dimension 3 does not determine the simplex")
    algebras, edges, cells = _merge_face_data(n, faces, eps)
    s = NCorrSimplex(algebras, edges, cells)
    _check_uncovered(s, faces, eps)
    return s


def _solve_pentagon(edges, cells, k, eps):
    """The unique u making the (0,1,2,3) pentagon commute, k in {1, 2, 3}.

    At k = 3, u solves u (x) id = T = u_023^* u_013 (id (x) u_123) a and is
    checked only as a CorrIso: u_023 is block-unitary, so |u (x) id - T| is
    the pentagon residual at (0, 1, 2, 3) up to rounding, which the fill
    checks as no face of the horn covers it.
    """
    e01, e12, e23 = edges[(0, 1)], edges[(1, 2)], edges[(2, 3)]
    e02, e13 = edges[(0, 2)], edges[(1, 3)]
    t01_12 = tensor_corrs(e01, e12)
    t12_23 = tensor_corrs(e12, e23)
    t_l = tensor_corrs(t01_12.corr, e23)
    t_r = tensor_corrs(e01, t12_23.corr)
    t02_23 = tensor_corrs(e02, e23)
    t01_13 = tensor_corrs(e01, e13)
    ass = associator(t01_12, t_l, t12_23, t_r, eps=eps)
    step = tensor_iso(identity_iso(e01), cells[(1, 2, 3)], t_r, t01_13, eps=eps)
    if k < 3:
        left_part = tensor_iso(cells[(0, 1, 2)], identity_iso(e23), t_l, t02_23, eps=eps)
    if k == 2:
        left = compose_isos(cells[(0, 2, 3)], left_part, eps=eps)
        return compose_isos(left, compose_isos(ass.inverse(), step.inverse(), eps=eps), eps=eps)
    right = compose_isos(cells[(0, 1, 3)], compose_isos(step, ass, eps=eps), eps=eps)
    if k == 1:
        return compose_isos(right, left_part.inverse(), eps=eps)
    # k == 3: solve u (x) id = T for u: E01 (x) E12 -> E02
    t_mat = compose_isos(cells[(0, 2, 3)].inverse(), right, eps=eps)
    a2 = e02.dst
    blocks = []
    for j in range(a2.nblocks):
        m_dst = e02.module.mult[j]
        m_src = t01_12.module.mult[j]
        num = np.zeros((m_dst, m_src), dtype=complex)
        den = 0
        for kk in range(e23.dst.nblocks):
            r = t02_23.r[j][kk]
            if r == 0:
                continue
            den += r
            o_d = t02_23.row_start(kk, j, 0)
            o_s = t_l.row_start(kk, j, 0)
            sub = t_mat.blocks[kk][o_d : o_d + m_dst * r, o_s : o_s + m_src * r]
            # the trace of each r x r block (a, a2); summed over a contiguous
            # copy of the diagonals, in the order np.trace sums one block
            diag = sub.reshape(m_dst, r, m_src, r).diagonal(axis1=1, axis2=3)
            num += np.ascontiguousarray(diag).sum(axis=2)
        if m_dst > 0 and den == 0:
            raise Unfillable(f"extraction ill posed at block {j}: last edge acts by zero")
        blocks.append(num / den if den else num)
    return CorrIso(t01_12.corr, e02, blocks, eps=eps)
