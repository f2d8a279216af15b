"""Seeded property sweeps over the whole construction.

Each suite draws its own generator from the seed, runs a fixed number of
randomized cases, and reports one record per case: name, pass/fail, the
worst residual observed, and wall time.  The sweeps are what the
``selftest`` command runs and what the acceptance tests assert on;
tolerances come in through ``eps`` so a deliberately tight run can show
where double precision gives out.  ``_sweep`` runs every suite but
section-exact, whose cases share one diagram per draw.  In every suite a
case that raises ``ValidationError`` or ``ValueError`` fails with residual
inf, and its sweep goes on.

Cross-checks are computed here rather than read back from the
constructors: unitarity and intertwining residuals are recomputed from the
raw blocks with the constructor's own function (``modules._iso_residuals``).
The intertwiners judged are certified ones (``CorrIso._trusted``), which
never run that constructor, so the judge is still their only check.
K-theory matrices of bimodules are obtained by ranking the images of the
source units, independently of the extension engine.

The subdivision judge reads each connecting hom only through its
``entries`` (``StarHom.entries``), never its ``mult_matrix``, Bratteli
data or dense ``matrix``: every nonzero entry, NaN and inf among them,
with the bits the dense view holds.  f_TU f_ST - f_SU is then checked for
every nested triple by ``_product_residual``, the Frobenius norm over the
union of the supports of the product's terms and of f_SU; every entry
outside that union is an exact zero of the dense difference, and a
non-finite factor gives NaN.  So the judge still sees every entry of
every hom and the same difference as the dense product, up to the order of
the sums.  The csd identity sweep computes each chain's faces and
degeneracies once and compares every identity instance on them
(``_identity_faults``).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .algebra import EPS, compose_homs, is_full_hom
from .bicategory import equivalence_inverse, gamma_multiplicativity, u_of_corr
from .errors import ValidationError
from .extension import (
    CstFunctor,
    CstHomotopy,
    K0Oracle,
    K0Simplex,
    NCorrOracle,
    bar_F,
    extend_bar_G,
    extend_relative,
    gamma_functor,
    k0_functor,
    k0_matrix,
)
from .generators import (
    random_algebra,
    random_chain,
    random_correspondence,
    random_equivalence,
    random_simplex,
)
from .linalg import frob, int_inverse, worst_of
from .modules import _iso_residuals, corr_close, identity_corr, iso_distance
from .nerve import (
    HornSpec,
    _face_closure,
    _index_map,
    face as simplex_face,
    fill_inner_horn,
    gamma_simplex,
    make_simplex,
    pentagon_residual,
    simplex_close,
    structural_hash,
    validate_simplex,
)
from .subdivision import (
    degeneracy as chain_degeneracy,
    enumerate_csd,
    face as chain_face,
    subdivision_functor,
)

__all__ = [
    "CaseReport",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "report_json",
    "k0_of_corr",
    "random_unimodular",
    "conjugated_k0",
]


@dataclass(frozen=True)
class CaseReport:
    case: str
    ok: bool
    residual: float
    seconds: float


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    ok: bool
    worst: float
    seconds: float
    cases: tuple

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "worst": self.worst,
            "seconds": self.seconds,
            "cases": [
                {"case": c.case, "ok": c.ok, "residual": c.residual, "time": c.seconds}
                for c in self.cases
            ],
        }


def _finish(name: str, cases: list, t0: float) -> SuiteReport:
    return SuiteReport(
        name,
        bool(cases) and all(c.ok for c in cases),
        worst_of(c.residual for c in cases),
        time.perf_counter() - t0,
        tuple(cases),
    )


def _sweep(name: str, seed: int, labels, case) -> SuiteReport:
    """One case per label, each ``case(rng, t) -> (residual, ok)`` on the
    seed's one generator and timed from before its draws.  A case that
    raises ``ValidationError`` or ``ValueError`` fails with residual inf,
    and the sweep goes on."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    cases = []
    for t, label in enumerate(labels):
        tc = time.perf_counter()
        try:
            resid, ok = case(rng, t)
        except (ValidationError, ValueError):
            resid, ok = float("inf"), False
        cases.append(CaseReport(label, ok, resid, time.perf_counter() - tc))
    return _finish(name, cases, t0)


# ---------------------------------------------------------------------------
# independent recomputations


def k0_of_corr(corr) -> np.ndarray:
    """K-theory matrix of a correspondence, dst blocks by src blocks.

    Entry (k, i) is the rank of the left action of the i-th source unit on
    the k-th module block, read off one unit at a time; no factorization
    machinery is involved.
    """
    a, lam = corr.src, corr.lam
    out = np.zeros((corr.dst.nblocks, a.nblocks), dtype=np.int64)
    for i in range(a.nblocks):
        p = np.zeros(a.dim, dtype=complex)
        p[a.offset(i)] = 1.0
        img = (lam.matrix @ p)[:, None]
        for kk in range(lam.dst.nblocks):
            blk = lam.dst.block_rows(img, kk)[:, :, 0]
            out[corr.module.kept[kk], i] = np.linalg.matrix_rank(blk, tol=1e-7)
    return out


def random_unimodular(n: int, rng) -> np.ndarray:
    """Integer matrix with determinant +-1, by random row operations."""
    m = np.eye(n, dtype=np.int64)
    for _ in range(3 * n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            m[i] += int(rng.integers(-2, 3)) * m[j]
    return m


def conjugated_k0(rng):
    """A second K-theory functor, conjugated objectwise by unimodular P(A).

    Returns (functor, P); the functor sends a hom f to P(dst) K(f) P(src)^-1,
    so eta(A) = P(A) is a natural edge from the plain K-theory functor.
    """
    ps = {}

    def P(a) -> np.ndarray:
        key = structural_hash(a)
        if key not in ps:
            ps[key] = random_unimodular(a.nblocks, rng)
        return ps[key]

    def vertex(a):
        return K0Simplex((a.nblocks,), ())

    def chain(homs, composites=None, *, eps=EPS):
        homs = list(homs)
        ranks = (homs[0].src.nblocks,) + tuple(h.dst.nblocks for h in homs)
        return K0Simplex(ranks, [P(h.dst) @ k0_matrix(h) @ int_inverse(P(h.src)) for h in homs])

    def certificate(phi, *, eps=EPS):
        return int_inverse(P(phi.dst) @ k0_matrix(phi) @ int_inverse(P(phi.src)))

    return CstFunctor("K0conj", vertex, chain, certificate), P


def _small_pair(rng):
    """A composable pair whose three algebras fit in 3 blocks of size <= 4."""
    while True:
        phi, psi = random_chain(rng, 2, max_blocks=3, max_size=2, max_mult=1)
        algs = (phi.src, phi.dst, psi.dst)
        if all(a.nblocks <= 3 and max(a.blocks) <= 4 for a in algs):
            return phi, psi


# ---------------------------------------------------------------------------
# the suites


def suite_gamma_mult(*, seed: int = 42, eps: float = EPS, trials: int = 200) -> SuiteReport:
    """Multiplicativity intertwiners exist and validate on random pairs."""

    def case(rng, t):
        phi, psi = _small_pair(rng)
        resid = worst_of(_iso_residuals(gamma_multiplicativity(psi, phi)))
        return resid, resid <= eps

    return _sweep("gamma-mult", seed, [f"pair-{t:03d}" for t in range(trials)], case)


def suite_nerve_coherence(*, seed: int = 42, eps: float = EPS, trials: int = 100) -> SuiteReport:
    """3-chain simplices validate and satisfy every pentagon instance."""

    def case(rng, t):
        chain = random_chain(rng, 3, max_blocks=2, max_size=2, max_mult=1)
        s = gamma_simplex(chain, eps=eps, validate=False)
        validate_simplex(s, eps=eps)
        resid = worst_of(
            pentagon_residual(s, i, j, k, l, eps=eps)
            for i in range(4)
            for j in range(i, 4)
            for k in range(j, 4)
            for l in range(k, 4)
        )
        return resid, resid <= eps

    return _sweep("nerve-coherence", seed, [f"chain-{t:03d}" for t in range(trials)], case)


def _product_residual(x, y, z) -> float:
    """frob(X @ Y - Z) from the ``entries`` of X, Y and Z.

    Every product X_ik Y_kj of two listed entries is summed into its (i, j)
    together with -Z_ij; every other entry of X Y - Z is a sum of products
    with a zero factor, an exact zero.  A non-finite entry of X or Y makes
    the residual NaN, as it makes the dense product non-finite, even where
    the other factor is zero.
    """
    (p, _), xr, xc, xv, _, x_finite = x
    (_, n), _, yc, yv, ys, y_finite = y
    _, zr, zc, zv, _, _ = z
    if p * n and not (x_finite and y_finite):
        return math.nan
    cnt = ys[xc + 1] - ys[xc]  # the entries of row k of Y, for each X_ik
    at = np.repeat(ys[xc] - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
    keys = np.concatenate((np.repeat(xr, cnt) * n + yc[at], zr * n + zc))
    if not keys.size:
        return 0.0
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    vals = np.concatenate((np.repeat(xv, cnt) * yv[at], -zv))[order]
    return frob(np.add.reduceat(vals, first))


def suite_subdivision(*, seed: int = 42, eps: float = EPS, trials: int = 50) -> SuiteReport:
    """Connecting homs compose on the nose over every nested subset triple,
    each hom read through its ``entries``."""

    def case(rng, t):
        s = random_simplex(rng, t % 3 + 1, twist=bool(t % 2), max_blocks=2, max_size=2, max_mult=1)
        sd = subdivision_functor(s, eps=eps, check=False)
        e = {st: f.entries for st, f in sd.homs.items()}
        resid = worst_of(
            _product_residual(e[(b, c)], e[(a, b)], e[(a, c)])
            for a in sd.subsets
            for b in sd.subsets
            if set(a) <= set(b)
            for c in sd.subsets
            if set(b) <= set(c)
        )
        return resid, resid <= eps

    labels = [f"simplex-{t:02d}-n{t % 3 + 1}" for t in range(trials)]
    return _sweep("subdivision-functor", seed, labels, case)


def suite_corner_unitary(*, seed: int = 42, eps: float = EPS, trials: int = 100) -> SuiteReport:
    """Every correspondence factors through its linking algebra corner."""

    def case(rng, t):
        a = random_algebra(rng, max_blocks=2, max_size=2)
        b = random_algebra(rng, max_blocks=2, max_size=2)
        corr = random_correspondence(a, b, rng)
        fact = u_of_corr(corr)
        resid = worst_of(_iso_residuals(fact.iso))
        ok = (
            resid <= eps
            and corr_close(fact.iso.dst, corr, eps)
            and is_full_hom(fact.i_hom, eps=eps)
        )
        return resid, ok

    return _sweep("corner-unitary", seed, [f"corr-{t:03d}" for t in range(trials)], case)


def suite_morita(*, seed: int = 42, eps: float = EPS, trials: int = 50) -> SuiteReport:
    """Equivalence inverses contract to the identity on both sides."""

    def case(rng, t):
        b = random_algebra(rng, max_blocks=2, max_size=2)
        e = random_equivalence(b, rng)
        w = equivalence_inverse(e, eps=eps)
        resid = worst_of(_iso_residuals(w.counit_left) + _iso_residuals(w.counit_right))
        ok = (
            resid <= eps
            and corr_close(w.counit_left.dst, identity_corr(e.src), eps)
            and corr_close(w.counit_right.dst, identity_corr(e.dst), eps)
        )
        return resid, ok

    return _sweep("morita-inverse", seed, [f"equiv-{t:02d}" for t in range(trials)], case)


def suite_horn_uniqueness(*, seed: int = 42, eps: float = EPS, trials: int = 50) -> SuiteReport:
    """Refilling a deleted inner face of a 3-simplex recovers its unitary."""

    def case(rng, t):
        s = random_simplex(rng, 3, twist=bool(t % 2), max_blocks=2, max_size=2, max_mult=1)
        dists, ok = [], True
        for k in (1, 2):
            horn = HornSpec(3, k, {j: simplex_face(s, j) for j in range(4) if j != k})
            refill = fill_inner_horn(horn, eps=eps)
            missing = _index_map("face", k, 3)
            dists.append(iso_distance(refill.cells[missing], s.cells[missing]))
            ok = ok and simplex_close(refill, s, eps)
        resid = worst_of(dists)
        return resid, ok and resid <= eps

    return _sweep("horn-uniqueness", seed, [f"simplex-{t:02d}" for t in range(trials)], case)


def suite_k0_extension(
    *, seed: int = 42, eps: float = EPS, trials: int = 50, trials2: int = 20
) -> SuiteReport:
    """The extension over K-theory returns the bimodule's integer matrix.

    Checked edge by edge against k0_of_corr and, on the leading edge,
    against the product K(i)^-1 K(f) of the corner factorization.
    """
    F, D, memo = k0_functor(), K0Oracle(), {}

    def case(rng, t):
        n = 1 if t < trials else 2
        s = random_simplex(rng, n, twist=bool(t % 2), max_blocks=2, max_size=2, max_mult=1)
        bar = bar_F(s, F, D, memo, eps=eps)
        diffs = [
            bar.edge(i, j) - k0_of_corr(s.edges[(i, j)])
            for i in range(n + 1)
            for j in range(i + 1, n + 1)
        ]
        fact = u_of_corr(s.edges[(0, 1)])
        diffs.append(bar.edge(0, 1) - int_inverse(k0_matrix(fact.i_hom)) @ k0_matrix(fact.j_hom))
        worst = max(int(np.abs(d).max()) for d in diffs)
        return float(worst), worst == 0

    labels = [f"simplex-{t:02d}-n{1 if t < trials else 2}" for t in range(trials + trials2)]
    return _sweep("k0-extension", seed, labels, case)


def _diagram(rng):
    """Four objects in a row, the three steps, and all their composites."""
    f01, f12, f23 = random_chain(rng, 3, max_blocks=2, max_size=2, max_mult=1)
    f02 = compose_homs(f12, f01)
    f13 = compose_homs(f23, f12)
    f03 = compose_homs(f23, f02)
    return [f01, f12, f23, f02, f13, f03]


def suite_section(*, seed: int = 42, eps: float = EPS, trials: int = 3) -> SuiteReport:
    """Guided extension is the identity on image simplices of the nerve map.

    Every vertex, edge and triangle the diagram produces comes back with the
    same structural hash, i.e. bit-identical.
    """
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    cases = []
    for t in range(trials):
        arrows = _diagram(rng)
        F = gamma_functor(arrows)
        D = NCorrOracle()
        memo: dict = {}
        sims = []
        seen = set()
        for h in arrows:
            for a in (h.src, h.dst):
                key = structural_hash(a)
                if key not in seen:
                    seen.add(key)
                    sims.append(make_simplex([a], {}, {}, eps=eps))
        sims += [gamma_simplex([h], eps=eps) for h in arrows]
        sims += [
            gamma_simplex([g, h], eps=eps)
            for g in arrows
            for h in arrows
            if h.src == g.dst
        ]
        for p, sig in enumerate(sims):
            tc = time.perf_counter()
            try:
                bar = bar_F(sig, F, D, memo, eps=eps)
                exact = structural_hash(bar) == structural_hash(sig)
                resid, ok = (0.0, True) if exact else (1.0, False)
            except (ValidationError, ValueError):
                resid, ok = float("inf"), False
            cases.append(
                CaseReport(f"diagram-{t}-sim-{p:02d}-n{sig.n}", ok, resid, time.perf_counter() - tc)
            )
    return _finish("section-exact", cases, t0)


def suite_relative(*, seed: int = 42, eps: float = EPS, trials: int = 10) -> SuiteReport:
    """Prism extensions restrict to the two bar extensions on the boundary."""

    def case(rng, t):
        n = t % 2 + 1
        sig = random_simplex(rng, n, twist=bool(t % 2), max_blocks=2, max_size=2, max_mult=1)
        F0 = k0_functor()
        F1, P = conjugated_k0(rng)

        def eta(a):
            return K0Simplex((a.nblocks, a.nblocks), [P(a)])

        D = K0Oracle()
        rel = extend_relative(CstHomotopy(F0, F1, eta), [sig], D, eps=eps)
        memo: dict = {}
        ok = all(
            rel.value(s, (0,) * (s.n + 1)) == bar_F(s, F0, D, memo, eps=eps)
            and rel.value(s, (1,) * (s.n + 1)) == bar_F(s, F1, D, memo, eps=eps)
            for s in _face_closure([sig]).values()
        )
        return (0.0 if ok else 1.0), ok

    labels = [f"prism-{t:02d}-n{t % 2 + 1}" for t in range(trials)]
    return _sweep("relative-prism", seed, labels, case)


def _identity_faults(pool) -> int:
    """The simplicial identity instances that fail on the chains of ``pool``.

    face and degeneracy are pure functions of (chain, i), so each chain's
    faces d_j and degeneracies s_j are computed once, keyed by the chain's
    value, and shared by every instance that needs them; every instance is
    still compared.
    """
    def once(op):  # a hit has c.dim + 1 >= 1 entries, so it is truthy
        memo: dict = {}
        return lambda c: memo.get(c) or memo.setdefault(c, [op(c, j) for j in range(c.dim + 1)])

    d, s = once(chain_face), once(chain_degeneracy)
    bad = 0
    for c in pool:
        l = c.dim
        dc = d(c) if l else []  # a point has no faces
        sc = s(c)
        if l >= 2:
            dd = [d(x) for x in dc]
            bad += sum(dd[j][i] != dd[i][j - 1] for j in range(l + 1) for i in range(j))
        ss = [s(x) for x in sc]
        bad += sum(ss[j][i] != ss[i][j + 1] for j in range(l + 1) for i in range(j + 1))
        ds, sd = [d(x) for x in sc], [s(x) for x in dc]
        for j in range(l + 1):
            for i in range(l + 2):
                if i < j:
                    want = sd[i][j - 1]
                elif i in (j, j + 1):
                    want = c
                else:
                    want = sd[i - 1][j]
                bad += ds[j][i] != want
    return bad


def suite_combinatorics(*, seed: int = 42, eps: float = EPS, trials: int = 4) -> SuiteReport:
    """Simplicial identities on augmented chains, and the fixed fill order.

    The identity sweep covers every nondegenerate chain of dimension <= 4
    together with all their one-step degeneracies; the trace case pins the
    2-simplex run to three inner tetrahedron horns and one special step.
    """
    sizes = range(min(trials, 4))

    def case(rng, t):
        if t in sizes:
            by_dim = enumerate_csd(t)
            pool = [c for d in sorted(by_dim) if d <= 4 for c in by_dim[d]]
            pool += [
                chain_degeneracy(c, i) for c in pool if c.dim <= 3 for i in range(c.dim + 1)
            ]
            bad = float(_identity_faults(pool))
            return bad, bad == 0
        sig = random_simplex(rng, 2, max_blocks=2, max_size=2, max_mult=1)
        ext = extend_bar_G(sig, k0_functor(), K0Oracle(), {})
        ok = [(tuple(e["horn"]), e["kind"]) for e in ext.trace] == (
            [((3, 2), "inner")] * 3 + [((3, 3), "special")]
        )
        return (0.0 if ok else 1.0), ok

    labels = [f"identities-n{n}" for n in sizes] + ["n2-fill-order"]
    return _sweep("csd-combinatorics", seed, labels, case)


SUITES = {
    "gamma-mult": suite_gamma_mult,
    "nerve-coherence": suite_nerve_coherence,
    "subdivision-functor": suite_subdivision,
    "corner-unitary": suite_corner_unitary,
    "morita-inverse": suite_morita,
    "horn-uniqueness": suite_horn_uniqueness,
    "k0-extension": suite_k0_extension,
    "section-exact": suite_section,
    "relative-prism": suite_relative,
    "csd-combinatorics": suite_combinatorics,
}


def run_suite(name: str, *, seed: int = 42, eps: float = EPS, **kw) -> SuiteReport:
    return SUITES[name](seed=seed, eps=eps, **kw)


def report_json(reports, *, seed: int, eps: float) -> dict:
    return {
        "seed": seed,
        "eps": eps,
        "ok": all(r.ok for r in reports),
        "suites": [r.to_json() for r in reports],
    }
