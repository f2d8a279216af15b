"""The *-hom laws, as hypothesis properties on generated homs, each side
computed through the element model of tests/reference.py: a *-hom is
multiplicative and *-preserving, composing homs is applying them in turn,
and the identity hom acts as the identity to the bit.  The module laws are
test_modules.py's test_inner_product_axioms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab.algebra import compose_homs, identity_hom
from corrlab.generators import random_unital_hom
from reference import apply, random_element
from test_algebra import homs

EPS = 1e-9
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40)
@given(phi=homs(), seed=seeds)
def test_a_hom_is_multiplicative_and_star_preserving(phi, seed):
    rng = np.random.default_rng(seed)
    x, y = random_element(phi.src, rng), random_element(phi.src, rng)
    assert apply(phi, x @ y).is_close(apply(phi, x) @ apply(phi, y), EPS)
    assert apply(phi, x.adjoint()).is_close(apply(phi, x).adjoint(), EPS)


@settings(max_examples=40)
@given(phi=homs(), seed=seeds)
def test_composing_is_applying_in_turn_and_the_identity_acts_exactly(phi, seed):
    rng = np.random.default_rng(seed)
    psi = random_unital_hom(phi.dst, rng, max_mult=1)
    x = random_element(phi.src, rng)
    assert apply(compose_homs(psi, phi), x).is_close(apply(psi, apply(phi, x)), EPS)
    for a, z in ((phi.src, x), (phi.dst, apply(phi, x))):
        assert np.array_equal(apply(identity_hom(a), z).to_vec(), z.to_vec())
