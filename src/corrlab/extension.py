"""Extending corner-inverting functors from algebras to the correspondence nerve.

Subdividing an n-simplex of the nerve yields a diagram of algebras indexed
by nonempty subsets of {0..n}.  A functor F into a quasi-category target
that sends corner embeddings to equivalences extends from that diagram to
every chain of the augmented subdivision (`extend_bar_G`), and a homotopy
between two such functors extends over the prisms Δ^q × Δ^1 of a simplex
family (`extend_relative`).  Both are one engine (``_Run``) walking the
nerve of a finite poset, where a face drops an entry of an address and a
degenerate address repeats one.  One resolver gives an address the value
made for it, a degeneracy of its face's value, or an engine's base value;
one fill loop makes the rest, one horn or boundary fill and one ``trace``
record at a time.  The engines differ in their addresses, base values and
fill targets.  A bar run (`BarExtension`) addresses the chains of sd Δ^n:
a chain whose support misses a vertex comes from the run over that face, a
chain with at most one vertex from F, and the rest from inner horns and,
last in each stage, a special outer horn certified by the corner
embedding's inverse (``_fill_targets``).  A prism run (`RelExtension`)
addresses pairs (vertex, time) over a family member: lower support comes
from the member on it, constant times from the two functors' bar runs,
(0,0)(0,1) over an object from eta, and the rest from the prism's q + 1
shuffles (Goerss and Jardine), q inner horns and one cell from its whole
boundary, which is where data that is not natural fails (``_prism_targets``).

Each nondegenerate value is checked against its faces' values once, where
it is made (``_bad_face``); degenerate values need no check.  The missing
face a fill produces is not compared again: by d_i d_k = d_{k-1} d_i
(i < k) and d_i d_k = d_k d_{i+1} (i >= k), each of its faces is a face of
a horn face the fill carries, compared when that was made (Duskin, TAC 9,
2002).  This holds for every target whose ``face`` satisfies those
identities, as both oracles here do: their faces, degeneracies and horn
kinds follow nerve's one rule.  The caller owns the memo: a bar run holds
it only while ``extend_bar_G`` makes the run's fills.

A target implements the ``QCOracle`` protocol (abstract, docstrings only):
``K0Oracle``, the nerve of integer matrices (K-theory), and ``NCorrOracle``,
the correspondence nerve itself.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nerve
from . import subdivision as sdv
from .algebra import StarHom, _sizes, compose_homs
from .bicategory import equivalence_inverse, find_corr_iso, gamma_of_hom
from .errors import (
    BoundaryMismatch,
    CompatibilityViolated,
    CorrLabError,
    IncompatibleFaces,
    IndexOutOfRange,
    NotStableOnDiagram,
    OracleFillFailed,
    ShapeMismatch,
    Unfillable,
)
from .linalg import EPS, int_inverse
from .modules import tensor_corrs
from .nerve import HornSpec, gamma_simplex, make_simplex, structural_hash
from .subdivision import AugChain, _drop, subdivision_functor

__all__ = [
    "QCOracle",
    "K0Simplex",
    "K0Oracle",
    "NCorrOracle",
    "CstFunctor",
    "k0_matrix",
    "k0_functor",
    "gamma_functor",
    "BarExtension",
    "extend_bar_G",
    "bar_F",
    "CstHomotopy",
    "RelExtension",
    "extend_relative",
]


# ---------------------------------------------------------------------------
# target oracles


class QCOracle(ABC):
    """What the extension recursion needs from a target quasi-category.

    Simplices are opaque values; the engine only moves them along faces and
    degeneracies, compares them at the run's eps, and asks for horn fills at
    it (an oracle holds no tolerance).  Fills must return simplices carrying
    the supplied faces exactly, in every dimension, or raise a CorrLabError:
    the run's dimension is bounded by its subdivision alone.  A special
    outer horn's last edge needs no test of its own: it is the functor's
    image of a corner, whose ``certificate`` raises when that image is not
    invertible.  ``guided_fill`` completes a horn by a proposal, or raises.
    """

    @abstractmethod
    def face(self, s, i: int):
        """Face i of s."""

    @abstractmethod
    def degeneracy(self, s, i: int):
        """Degeneracy i of s."""

    @abstractmethod
    def equal(self, s, t, *, eps: float = EPS) -> bool:
        """Whether s and t are the same simplex at eps."""

    @abstractmethod
    def fill_inner_horn(self, horn: HornSpec, *, eps: float = EPS):
        """A simplex with the faces of an inner horn."""

    @abstractmethod
    def fill_special_outer_horn(self, horn: HornSpec, certificate=None, *, eps: float = EPS):
        """A simplex with the faces of a special outer horn."""

    @abstractmethod
    def fill_boundary(self, faces: dict, *, eps: float = EPS):
        """The simplex with all these faces."""

    @abstractmethod
    def guided_fill(self, horn: HornSpec, proposal, *, eps: float = EPS):
        """The special outer fill whose missing face is the proposal."""


class K0Simplex:
    """A simplex in the nerve of free abelian groups and integer matrices.

    Vertices carry a rank, the edge (i,j) an integer matrix of shape
    (rank_j, rank_i), and higher cells carry no data.  This is the nerve of
    a category, so a simplex is exactly its spine (Segal): the n steps
    M_{i,i+1}, every other edge being their product M_ij = M_{j-1,j} ...
    M_{i,i+1}.  Any steps of the right shapes therefore make a simplex, and
    ``key``, the steps' bytes, decides equality together with the ranks.
    """

    __slots__ = ("n", "ranks", "steps", "key")

    def __init__(self, ranks, steps):
        ranks = _sizes(ranks, ShapeMismatch, "ranks")
        if not ranks or any(r < 0 for r in ranks):
            raise ShapeMismatch(f"bad rank vector {ranks}")
        steps = list(steps)
        if len(steps) != len(ranks) - 1:
            raise ShapeMismatch(f"{len(ranks)} ranks need {len(ranks) - 1} steps, got {len(steps)}")
        for i, m in enumerate(steps):
            m = np.asarray(m)
            if m.dtype != np.int64:
                try:
                    with np.errstate(invalid="ignore"):
                        exact = m.astype(np.int64)
                except (TypeError, ValueError, OverflowError):
                    exact = None
                if exact is None or not np.array_equal(exact, m):
                    raise ShapeMismatch(f"step ({i},{i + 1}) has entries that are not int64 integers")
                m = exact
            if m.shape != (ranks[i + 1], ranks[i]):
                raise ShapeMismatch(
                    f"step ({i},{i + 1}) has shape {m.shape}, expected ({ranks[i + 1]}, {ranks[i]})"
                )
            steps[i] = np.ascontiguousarray(m)
        self.n, self.ranks, self.steps = len(ranks) - 1, ranks, tuple(steps)
        self.key = b"".join(m.tobytes() for m in steps)

    @classmethod
    def _trusted(cls, ranks, steps) -> "K0Simplex":
        """Unchecked; only for the ranks and int64 edges of a valid simplex."""
        out = cls.__new__(cls)
        out.n, out.ranks, out.steps = len(ranks) - 1, tuple(ranks), tuple(steps)
        out.key = b"".join(m.tobytes() for m in steps)
        return out

    def edge(self, i: int, j: int) -> np.ndarray:
        if not 0 <= i <= j <= self.n:
            raise IndexOutOfRange(f"edge ({i},{j}) out of range for dimension {self.n}")
        if i == j:
            return np.eye(self.ranks[i], dtype=np.int64)
        out = self.steps[i]
        for m in self.steps[i + 1 : j]:
            out = m @ out
        return out

    def _reindex(self, phi: tuple) -> "K0Simplex":
        """Built unchecked along a checked vertex map: the ranks are this
        simplex's own, and each step is an edge, a product of its int64
        steps (or an int64 identity)."""
        ranks = [self.ranks[p] for p in phi]
        return K0Simplex._trusted(ranks, [self.edge(a, b) for a, b in zip(phi, phi[1:])])

    def apply_map(self, phi) -> "K0Simplex":
        return self._reindex(nerve._vertex_map(phi, self.n))

    def face(self, i: int) -> "K0Simplex":
        return self._reindex(nerve._index_map("face", i, self.n))

    def degeneracy(self, i: int) -> "K0Simplex":
        return self._reindex(nerve._index_map("degeneracy", i, self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, K0Simplex):
            return NotImplemented
        return self.ranks == other.ranks and self.key == other.key

    def __repr__(self) -> str:
        return f"K0Simplex(n={self.n}, ranks={self.ranks})"


def _merge_k0_faces(n: int, faces: dict):
    """Pool the faces' ranks, which must agree, and their spine steps, each
    read off the first face that has it.  Whether the steps agree is left
    to the caller, which compares each face with the simplex they make."""
    ranks = [None] * (n + 1)
    steps = [None] * n
    for j, f in faces.items():
        d = nerve._index_map("face", j, n)
        for a, v in enumerate(d):
            if ranks[v] is None:
                ranks[v] = f.ranks[a]
            elif ranks[v] != f.ranks[a]:
                raise IncompatibleFaces(f"faces disagree on the rank at vertex {v}")
            if a < f.n and d[a + 1] == v + 1 and steps[v] is None:
                steps[v] = f.steps[a]
    return ranks, steps


class K0Oracle(QCOracle):
    """The nerve of integer matrices as an extension target.

    Being the nerve of an ordinary category it has unique inner fills, and a
    final-edge fill needs exactly an integer inverse, which is unique, so it
    reads no certificate.  Its data are integers: it ignores ``eps``.
    """

    def face(self, s: K0Simplex, i: int) -> K0Simplex:
        return s.face(i)

    def degeneracy(self, s: K0Simplex, i: int) -> K0Simplex:
        return s.degeneracy(i)

    def equal(self, s: K0Simplex, t: K0Simplex, *, eps: float = EPS) -> bool:
        return s == t

    def fill_inner_horn(self, horn: HornSpec, *, eps: float = EPS) -> K0Simplex:
        horn._check_kind(special=False)
        ranks, steps = _merge_k0_faces(horn.n, horn.faces)
        return self._build(ranks, steps, horn.faces)

    def fill_special_outer_horn(self, horn: HornSpec, certificate=None, *, eps: float = EPS) -> K0Simplex:
        horn._check_kind(special=True)
        ranks, steps = _merge_k0_faces(horn.n, horn.faces)
        if horn.n == 2:
            try:  # an integer inverse is unique, so no certificate is read
                steps[0] = int_inverse(steps[1]) @ horn.faces[1].steps[0]
            except ValueError as err:
                raise Unfillable(f"last edge is not invertible: {err}") from err
        return self._build(ranks, steps, horn.faces)

    def fill_boundary(self, faces: dict, *, eps: float = EPS) -> K0Simplex:
        n = nerve._boundary_dim(faces)
        if n < 2:
            raise Unfillable("a boundary below dimension 2 does not determine the simplex")
        ranks, steps = _merge_k0_faces(n, faces)
        return self._build(ranks, steps, faces)

    def guided_fill(self, horn: HornSpec, proposal, *, eps: float = EPS) -> K0Simplex:
        horn._check_kind(special=True)
        return self.fill_boundary({**horn.faces, horn.k: proposal}, eps=eps)

    def _build(self, ranks, steps, faces: dict) -> K0Simplex:
        """The simplex with these ranks and steps, which must carry each of
        the given faces.  From dimension 3 up every edge lies in a given
        face, so this is the whole of the faces' compatibility; at dimension
        2 it compares the horn's composite edge with the steps' product."""
        s = K0Simplex(ranks, steps)
        j = _bad_face(self, s, faces, eps=0.0)
        if j is not None:
            raise IncompatibleFaces(f"face {j} disagrees with the simplex the other faces make")
        return s


class NCorrOracle(QCOracle):
    """The correspondence nerve as its own extension target."""

    def face(self, s, i: int):
        return nerve.face(s, i)

    def degeneracy(self, s, i: int):
        return nerve.degeneracy(s, i)

    def equal(self, s, t, *, eps: float = EPS) -> bool:
        return s is t or nerve.simplex_close(s, t, eps)

    def fill_inner_horn(self, horn: HornSpec, *, eps: float = EPS):
        return nerve.fill_inner_horn(horn, eps=eps)

    def fill_special_outer_horn(self, horn: HornSpec, certificate=None, *, eps: float = EPS):
        return nerve.fill_special_outer_horn(horn, witness=certificate, eps=eps)

    def fill_boundary(self, faces: dict, *, eps: float = EPS):
        return nerve.assemble_boundary(faces, eps=eps)

    def guided_fill(self, horn: HornSpec, proposal, *, eps: float = EPS):
        """The special outer fill whose missing face is the proposal: from
        dimension 3 up the boundary it completes (the nerve is 3-coskeletal);
        at 2, its edge E_01 and an intertwiner E_01 (x) E_12 -> E_02."""
        horn._check_kind(special=True)
        if horn.n > 2:
            return nerve.assemble_boundary({**horn.faces, horn.k: proposal}, eps=eps)
        e01, e12, e02 = proposal.edge(0, 1), horn.faces[0].edge(0, 1), horn.faces[1].edge(0, 1)
        u = find_corr_iso(tensor_corrs(e01, e12).corr, e02, eps=eps)
        if u is None:
            raise Unfillable("the proposed edge times the last edge has no intertwiner to the composite edge")
        algebras = [*proposal.algebras, horn.faces[0].algebras[1]]
        return make_simplex(algebras, {(0, 1): e01, (0, 2): e02, (1, 2): e12}, {(0, 1, 2): u}, eps=eps)


# ---------------------------------------------------------------------------
# algebra-level functors


@dataclass(frozen=True)
class CstFunctor:
    """An algebra-level functor into an oracle target.

    ``vertex`` and ``chain`` produce the target simplices of objects and of
    composable hom chains (a chain of one hom is the image edge).
    ``certificate`` returns invertibility data for the image of a marked
    corner-like hom and raises when the hom is not invertible in the target.
    ``chain`` and ``certificate`` take the run's ``eps`` as a keyword.
    ``section``, when set, guides every run of the functor: it proposes the
    exact simplex the run should land on for a given input simplex, or None
    to decline; the proposal is the run's top, and one that does not fit
    refuses the run (OracleFillFailed).  The engine compares each chain
    value with all of its faces' values, so ``chain`` need check a value
    only where no face covers it.
    """

    name: str
    vertex: Callable
    chain: Callable
    certificate: Callable
    section: Callable = None


def k0_matrix(phi: StarHom) -> np.ndarray:
    """The induced map on K-theory classes, dst blocks by src blocks."""
    return np.ascontiguousarray(phi.mult_matrix.T)


def k0_functor() -> CstFunctor:
    """K-theory as a target: objects to Z^blocks, homs to multiplicity matrices."""

    def vertex(a):
        return K0Simplex((a.nblocks,), ())

    def chain(homs, composites=None, *, eps: float = EPS):
        homs = list(homs)
        if not homs:
            raise ShapeMismatch("a chain needs at least one hom")
        for f, g in zip(homs, homs[1:]):
            if f.dst != g.src:
                raise ShapeMismatch("homs do not compose")
        ranks = (homs[0].src.nblocks,) + tuple(h.dst.nblocks for h in homs)
        return K0Simplex(ranks, [k0_matrix(h) for h in homs])

    def certificate(phi, *, eps: float = EPS):
        m = k0_matrix(phi)
        try:
            return int_inverse(m)
        except ValueError as err:
            raise NotStableOnDiagram(f"hom has no integer inverse on K-theory classes: {err}") from err

    return CstFunctor("K0", vertex, chain, certificate)


def gamma_functor(arrows=()) -> CstFunctor:
    """The nerve itself as a target, acting by the correspondence of a hom.

    Composites of the listed arrows (up to three long, folded left to right)
    are indexed by their image correspondence, so the section can recognise
    simplices produced from the diagram and every run lands on them
    exactly.  With no arrows the section declines every simplex above
    dimension 0.
    """
    homs = list(arrows)
    level = {1: homs}
    for length in (2, 3):
        level[length] = [
            compose_homs(f, g)
            for g in level[length - 1]
            for f in homs
            if f.src == g.dst
        ]
    table = {}
    for length in (1, 2, 3):
        for h in level[length]:
            table.setdefault(structural_hash(gamma_of_hom(h)), h)

    def vertex(a):
        return make_simplex([a], {}, {})

    def chain(homs_, composites=None, *, eps: float = EPS):
        s = gamma_simplex(homs_, composites=composites, validate=False)
        nerve._check_uncovered(s, range(s.n + 1), eps)
        return s

    def certificate(phi, *, eps: float = EPS):
        return equivalence_inverse(gamma_of_hom(phi), eps=eps)

    def section(sig):
        if sig.n == 0:
            return sig
        chain_homs = []
        for i in range(sig.n):
            h = table.get(structural_hash(sig.edge(i, i + 1)))
            if h is None:
                return None
            chain_homs.append(h)
        cand = gamma_simplex(chain_homs, validate=False)
        if structural_hash(cand) == structural_hash(sig):
            return sig
        return None

    return CstFunctor("Gamma", vertex, chain, certificate, section)


# ---------------------------------------------------------------------------
# the extension engine


def _chain_str(c: AugChain) -> str:
    parts = [str(v) for v in c.vertices]
    parts += ["{" + ",".join(map(str, s)) + "}" for s in c.subsets]
    return "(" + ", ".join(parts) + ")"


def _cert_id(cert) -> str:
    if cert is None:
        return "none"
    if isinstance(cert, np.ndarray):
        return structural_hash(cert)[:12]
    corr = getattr(cert, "corr", None)
    inv = getattr(cert, "inverse", None)
    if corr is not None and inv is not None:
        return structural_hash((corr, inv))[:12]
    return structural_hash(np.frombuffer(repr(cert).encode(), dtype=np.uint8))[:12]


@functools.cache
def _fill_targets(n: int) -> tuple:
    """Stage k's fill targets, k = 1..n: the chains of csd(n) whose subsets run
    from exactly their k + 1 vertices up to the top, in fill order."""
    csd, top = sdv.enumerate_csd(n), tuple(range(n + 1))
    chains = [
        c
        for d in sorted(csd)
        for c in csd[d]
        if c.subsets and c.subsets[0] == c.vertices and c.subsets[-1] == top
    ]
    return tuple(
        (k, tuple(c for c in chains if len(c.vertices) == k + 1)) for k in range(1, n + 1)
    )


@functools.cache
def _prism_targets(q: int) -> tuple:
    """The shuffles of Δ^q × Δ^1 in fill order, as (pairs, k): for t = q..1
    the shuffle turning at vertex t fills the horn (q+1, t), whose missing
    face is a diagonal, and the last is filled from its boundary (k None)."""
    return tuple(
        (tuple(zip(nerve._index_map("degeneracy", t, q), (0,) * (t + 1) + (1,) * (q + 1 - t))), t or None)
        for t in (range(q, -1, -1) if q else ())
    )


def _bad_face(D: QCOracle, value, faces: dict, eps: float):
    """The first j whose face of value differs from faces[j] at eps, or None:
    the one face comparison the engine makes, once, where each value is made."""
    return next((j for j, f in faces.items() if not D.equal(D.face(value, j), f, eps=eps)), None)


class _Run:
    """The one engine: values on the addresses of a finite poset's nerve.

    ``vals`` holds every value resolved or filled so far, ``trace`` one
    record per fill in order.  An engine gives its addresses' ``_entries``
    and ``_face``, the values no fill makes (``_base``), a special fill's
    ``_certificate``, and the words of its refusals (``_name``, ``_refusal``).
    """

    eps = EPS  # the tolerance of every check and fill, set by the run's maker
    proposal = None  # the section's proposal: the top, the special fill's missing face

    def _resolve(self, addr):
        """The value at addr: made already, a degeneracy, or a base value."""
        hit = self.vals.get(addr)
        if hit is not None:
            return hit
        es = self._entries(addr)
        for i in range(len(es) - 1):
            if es[i] == es[i + 1]:
                out = self.oracle.degeneracy(self._resolve(self._face(addr, i)), i)
                break
        else:
            out = self._base(addr)
        self.vals[addr] = out
        return out

    def _faces(self, addr, n: int, skip=None) -> dict:
        return {j: self._resolve(self._face(addr, j)) for j in range(n + 1) if j != skip} if n else {}

    def _fill(self, addr, n: int, k):
        """Fill the n-simplex at addr: the horn (n, k), inner or special outer
        (k = n; with a proposal, the boundary it completes), or its whole
        boundary (k None); keep the fill and a horn's missing face."""
        missing = None if k is None else self._face(addr, k)
        if addr in self.vals or missing in self.vals:
            raise CompatibilityViolated(f"fill target {self._name(addr)} or its face was assigned twice")
        faces = self._faces(addr, n, skip=k)
        kind = "boundary" if k is None else "special" if k == n else "inner"
        D, eps, cert, guided = self.oracle, self.eps, None, k == n and self.proposal is not None
        try:
            if kind == "boundary":
                fill = D.fill_boundary(faces, eps=eps)
            elif kind == "inner":
                fill = D.fill_inner_horn(HornSpec(n, k, faces), eps=eps)
            else:
                horn, cert = HornSpec(n, k, faces), self._certificate(addr)
                if guided:
                    fill = D.guided_fill(horn, self.proposal, eps=eps)
                    faces = {**faces, k: self.proposal}  # compared as a face, kept as the missing one
                else:
                    fill = D.fill_special_outer_horn(horn, certificate=cert, eps=eps)
        except CorrLabError as err:
            raise self._refusal(addr, n, k, err=err) from err
        j = _bad_face(D, fill, faces, eps)
        if j is not None:
            raise self._refusal(addr, n, k, j=j)
        self.vals[addr] = fill
        if missing is not None:
            # face i of the missing face is face k-1 of horn face i (i < k)
            # or face k of horn face i + 1 (i >= k): already compared
            self.vals[missing] = self.proposal if guided else D.face(fill, k)
        self.trace.append(
            dict(chain=self._name(addr), horn=(n, k), kind=kind, guided=guided, certificate=_cert_id(cert))
        )


class BarExtension(_Run):
    """One run of ``extend_bar_G``: target simplices on the augmented chains.

    ``value`` resolves any chain, ``trace`` records every horn fill of this
    run in order, and ``top()`` is the value on the plain vertex chain
    (0..n), i.e. the extended functor applied to the simplex.
    """

    _face = staticmethod(sdv.face)
    _name = staticmethod(_chain_str)

    def __init__(self, sigma, functor, oracle, memo, eps):
        self.sigma, self.n, self.functor, self.oracle, self.memo = sigma, sigma.n, functor, oracle, memo
        self.eps, self.full = eps, tuple(range(sigma.n + 1))
        # a child run restricts the subdivision its parent left in the memo
        sd, sub = memo.get(("sd", eps, structural_hash(sigma)), (None, None))
        self.sd = subdivision_functor(sigma, eps=eps, check=True) if sd is None else sd.restrict(sigma, sub)
        self.proposal = None if functor.section is None else functor.section(sigma)
        self.children, self.vals, self.trace = {}, {}, []

    value = _Run._resolve

    def top(self):
        return self._resolve(AugChain(self.full, ()))

    @staticmethod
    def _entries(c: AugChain) -> tuple:
        return c.vertices + c.subsets

    def _base(self, c: AugChain):
        support = set(c.subsets[-1]) if c.subsets else set(c.vertices)
        if len(support) <= self.n:
            # the run over the face on the vertices sub, entered once and kept
            sub = tuple(sorted(support))
            child = self.children.get(sub)
            if child is None:
                face = nerve.apply_map(self.sigma, sub)
                self.memo.setdefault(("sd", self.eps, structural_hash(face)), (self.sd, sub))
                child = extend_bar_G(face, self.functor, self.oracle, self.memo, eps=self.eps)
                self.children[sub] = child
            pos = {v: i for i, v in enumerate(sub)}
            vs, ss = tuple(pos[x] for x in c.vertices), tuple(tuple(pos[x] for x in s) for s in c.subsets)
            return child._resolve(AugChain._trusted(vs, ss))
        if len(c.vertices) > 1:
            raise CompatibilityViolated(f"chain {_chain_str(c)} was needed before its fill")
        out = self._g_value(tuple((v,) for v in c.vertices) + c.subsets)
        # the one check a functor value gets: against its faces' values
        j = _bad_face(self.oracle, out, self._faces(c, c.dim), self.eps)
        if j is not None:
            raise CompatibilityViolated(f"face {j} of {_chain_str(c)} disagrees with its value")
        return out

    def _g_value(self, subsets: tuple):
        if len(subsets) == 1:
            return self.functor.vertex(self.sd.data[subsets[0]].algebra)
        # composites are read from the subdivision's own hom table, so one
        # geometric edge has the same bits in every chain
        homs, m = self.sd.homs, len(subsets)
        comp = {(i, j): homs[(subsets[i], subsets[j])] for i in range(m) for j in range(i + 1, m)}
        steps = [homs[(s, t)] for s, t in zip(subsets, subsets[1:])]
        return self.functor.chain(steps, composites=comp, eps=self.eps)

    def _certificate(self, c: AugChain):
        """The certificate of the corner from c's last vertex to the top."""
        return self.functor.certificate(self.sd.hom((c.vertices[-1],), self.full), eps=self.eps)

    def _refusal(self, c: AugChain, n, k, err=None, j=None) -> CorrLabError:
        horn = f"horn ({n},{k}) at {_chain_str(c)}"
        return OracleFillFailed(f"{horn}: {err}" if j is None else f"oracle changed face {j} of {horn}")


def extend_bar_G(sigma, F: CstFunctor, D: QCOracle, memo: dict = None, *, eps: float = EPS) -> BarExtension:
    """Extend F from the subdivision diagram of sigma over all augmented chains.

    Builds the run (``BarExtension``) and makes its fills stage by stage.
    The one dimension bound is the subdivision's (``subdivision._MAX_N``),
    checked when the run builds it, before any chain is filled.  A functor
    with a ``section`` guides every special fill it recognises.  eps is the
    run's one tolerance: every oracle and functor check takes it.  Runs are
    memoised per functor, oracle and eps by the structural hash of sigma;
    pass the same memo dict to share faces across calls (a finished run
    keeps an empty one of its own).  It also holds, under ``("sd", eps,
    hash)``, the subdivision a run hands to the runs over its faces: one
    ``subdivision_functor`` build and check per top-level run, which each
    child restricts, even a child run with another functor or oracle (both
    ends of ``extend_relative``).  A run enters each face's run once.
    """
    if memo is None:
        memo = {}
    # ids are safe keys: each memo value holds F and D, so neither can be
    # collected (and its id reused) while its entry exists
    key = (id(F), id(D), eps, structural_hash(sigma))
    hit = memo.get(key)
    if hit is not None:
        return hit
    ext = BarExtension(sigma, F, D, memo, eps)
    for k, targets in _fill_targets(sigma.n):
        for c in targets:
            ext._fill(c, c.dim, k + 1)
    ext.memo = {}  # the memo keeps the run, not the run the memo
    memo[key] = ext
    return ext


def bar_F(sigma, F: CstFunctor, D: QCOracle, memo: dict = None, *, eps: float = EPS):
    """The extended functor's value on sigma itself."""
    return extend_bar_G(sigma, F, D, memo, eps=eps).top()


# ---------------------------------------------------------------------------
# relative extension over a prism


@dataclass(frozen=True)
class CstHomotopy:
    """Two functors into the same target and an edgewise homotopy between them.

    ``eta(A)`` is the target edge F0(A) -> F1(A); its naturality is not
    assumed but verified cell by cell while the prism is filled.
    """

    f0: CstFunctor
    f1: CstFunctor
    eta: Callable


class RelExtension(_Run):
    """A simplicial map out of a family of prisms simplex x interval.

    Cells are addressed by a base simplex of the family together with a pair
    (alpha, w): a vertex map into the base and an equally long time word, a
    vertex map into [1] (both ``nerve._vertex_map``).  Constant words
    restrict to the two boundary maps, and ``value(sigma, w)`` with the
    identity alpha gives the homotopy's value on a simplex at a time word.
    The run keys a cell by the base's structural hash and the pairs
    (alpha_i, w_i), and ``trace`` records its fills as a bar run's does,
    each naming its member by the hash's first 12 characters (``member``).
    """

    def __init__(self, oracle: QCOracle, homotopy, boundary, family: dict):
        self.oracle, self.homotopy, self.boundary, self.family = oracle, homotopy, boundary, family
        self.vals, self.trace = {}, []

    def value(self, sigma, w, alpha=None):
        key = structural_hash(sigma)
        if key not in self.family:
            raise BoundaryMismatch("simplex is not in the extended family")
        sigma = self.family[key]
        w, alpha = tuple(w), tuple(range(sigma.n + 1) if alpha is None else alpha)
        if len(alpha) != len(w):
            raise ShapeMismatch("alpha and w must have equal length")
        alpha, w = nerve._vertex_map(alpha, sigma.n), nerve._vertex_map(w, 1)
        return self._resolve((key, tuple(zip(alpha, w))))

    @staticmethod
    def _entries(addr) -> tuple:
        return addr[1]

    def _fill(self, addr, n: int, k):
        super()._fill(addr, n, k)
        self.trace[-1]["member"] = addr[0][:12]

    @staticmethod
    def _face(addr, i: int):
        return addr[0], _drop(addr[1], i)

    @staticmethod
    def _name(addr) -> str:
        alpha, w = zip(*addr[1])
        return f"{alpha}/{w}"

    def _base(self, addr):
        key, pairs = addr
        sig = self.family[key]
        used = sorted({a for a, _ in pairs})
        if len(used) <= sig.n:
            pos = {v: i for i, v in enumerate(used)}
            sub = structural_hash(nerve.apply_map(sig, used))
            return self._resolve((sub, tuple((pos[a], t) for a, t in pairs)))
        if pairs[0][1] == pairs[-1][1]:
            return self.boundary[pairs[0][1]][key]
        if sig.n == 0 and pairs == ((0, 0), (0, 1)):
            eta = self.homotopy.eta(sig.algebras[0])
            if _bad_face(self.oracle, eta, self._faces(addr, 1), self.eps) is not None:
                raise BoundaryMismatch("eta does not connect the two boundary values")
            return eta
        raise CompatibilityViolated(f"prism cell {self._name(addr)} was needed before it was built")

    def _refusal(self, addr, n, k, err=None, j=None) -> CorrLabError:
        if k is not None:
            return OracleFillFailed(
                f"prism horn ({n},{k}): {err}" if j is None else f"oracle changed face {j} of a prism horn"
            )
        if j is None:  # the boundary cell, where data that is not natural fails
            return BoundaryMismatch(f"homotopy data is not natural on a {n - 1}-simplex: {err}")
        return CompatibilityViolated(f"face {j} of prism cell {self._name(addr)} disagrees")


def extend_relative(h, family, D: QCOracle, *, eps: float = EPS) -> RelExtension:
    """Extend functor-level homotopy data over the prisms of a simplex family.

    ``h`` is a CstHomotopy.  The family is closed under faces, and the two
    boundaries are ``bar_F`` of ``h.f0`` and ``h.f1`` on each member of the
    closure, on one memo.  Eta is checked against both on every object
    first, then each member's prism is filled shuffle by shuffle.  Each
    family member is held to the subdivision's dimension bound up front, so
    an oversized member fails before the boundary runs over its faces, and
    ``h`` is type-checked before the family is walked.
    """
    if not isinstance(h, CstHomotopy):
        raise ShapeMismatch("relative extension needs a CstHomotopy")
    family = list(family)
    for s in family:
        sdv._nonempty_subsets(s.n)  # raises above the bound, before any run
    closed = nerve._face_closure(family)
    order = sorted(closed.values(), key=lambda s: s.n)

    memo = {}
    ends = tuple({structural_hash(s): bar_F(s, f, D, memo, eps=eps) for s in order} for f in (h.f0, h.f1))
    rel = RelExtension(D, h, ends, closed)
    rel.eps = eps
    for s in order:  # objects first: eta's edge is checked against both ends before any fill
        if s.n == 0:
            rel._resolve((structural_hash(s), ((0, 0), (0, 1))))
        for pairs, k in _prism_targets(s.n):
            rel._fill((structural_hash(s), pairs), s.n + 1, k)
    return rel
