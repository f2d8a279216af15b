"""Acceptance gate: the ten verification sweeps at full scale.

Each criterion is one parametrized test, so a verbose run shows one
pass/fail line per criterion; the body also prints the suite's case count,
worst residual and wall time.  The time budgets in the table below are
asserted, as are exact-zero residuals for the integer-arithmetic sweeps.
"""

import math

import numpy as np
import pytest

from corrlab import acceptance
from corrlab.acceptance import run_suite
from corrlab.modules import CorrIso
from corrlab.nerve import NCorrSimplex

# (criterion, suite, time budget in seconds, exact-arithmetic suite)
CRITERIA = [
    ("c01", "gamma-mult", 30.0, False),
    ("c02", "nerve-coherence", 60.0, False),
    ("c03", "subdivision-functor", 120.0, False),
    ("c04", "corner-unitary", None, False),
    ("c05", "morita-inverse", None, False),
    ("c06", "horn-uniqueness", None, False),
    ("c07", "k0-extension", 120.0, True),
    ("c08", "section-exact", 40.0, True),
    ("c09", "relative-prism", None, True),
    ("c10", "csd-combinatorics", 1.5, True),
]

MIN_CASES = {
    "gamma-mult": 200,
    "nerve-coherence": 100,
    "subdivision-functor": 50,
    "corner-unitary": 100,
    "morita-inverse": 50,
    "horn-uniqueness": 50,
    "k0-extension": 70,
    "section-exact": 30,
    "relative-prism": 10,
    "csd-combinatorics": 5,
}


@pytest.mark.parametrize(
    "cid,suite,budget,exact",
    CRITERIA,
    ids=[f"{cid}-{suite}" for cid, suite, _, _ in CRITERIA],
)
def test_criterion(cid, suite, budget, exact):
    report = run_suite(suite, seed=42, eps=1e-9)
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"{cid} {suite}: {verdict} "
        f"({len(report.cases)} cases, worst residual {report.worst:.3e}, "
        f"{report.seconds:.1f}s)"
    )
    failed = [c.case for c in report.cases if not c.ok]
    assert report.ok, f"{suite} failed cases: {failed[:5]}"
    assert len(report.cases) >= MIN_CASES[suite]
    if exact:
        assert report.worst == 0.0
    else:
        assert report.worst <= 1e-9
    if budget is not None:
        assert report.seconds < budget, f"{suite} took {report.seconds:.1f}s"


def test_horn_uniqueness_refuses_a_nan_refill(monkeypatch):
    """A refill whose recovered cell is NaN fails its case, and the case's
    residual is NaN, not the 0.0 that the builtin max(0.0, nan) gives."""
    real = acceptance.fill_inner_horn

    def nan_refill(horn, *, eps):
        s = real(horn, eps=eps)
        missing = tuple(x for x in range(4) if x != horn.k)
        c = s.cells[missing]
        cells = dict(s.cells)
        cells[missing] = CorrIso._trusted(
            c.src, c.dst, [np.full(u.shape, np.nan, dtype=complex) for u in c.blocks]
        )
        return NCorrSimplex(s.algebras, s.edges, cells)

    monkeypatch.setattr(acceptance, "fill_inner_horn", nan_refill)
    (case,) = acceptance.suite_horn_uniqueness(trials=1).cases
    assert not case.ok and math.isnan(case.residual)
