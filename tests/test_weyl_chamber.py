"""Property tests: the Weyl-chamber closed forms against the enumerated support.

For every simple type up to rank 12, a random dominant lambda with
(theta|lambda) <= 2 and a random half-integral h, min_pairing and
support_contains must agree with rootsys.weight_support, which enumerates
the whole support and is kept as the oracle for exactly this purpose.
"""

from fractions import Fraction
from functools import lru_cache
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from orbifold24.affine import enumerate_modules
from orbifold24.rootsys import (
    MAX_RANK,
    SimpleType,
    build_root_datum,
    min_pairing,
    support_contains,
    weight_support,
)

F = Fraction
TYPES = (
    [f"A{n}" for n in range(1, MAX_RANK + 1)]
    + [f"{x}{n}" for x in "BC" for n in range(2, MAX_RANK + 1)]
    + [f"D{n}" for n in range(3, MAX_RANK + 1)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
# The oracle walks the box 0 <= c <= (root coordinates of lambda); labels whose
# box is larger are left out so that the file stays fast.
MAX_BOX = 5000


@lru_cache(maxsize=None)
def small_labels(name):
    """Dominant lambda with (theta|lambda) <= 2, i.e. the level-2 labels."""
    return [
        m.weight
        for m in enumerate_modules(SimpleType.parse(name), 2)
        if prod(int(x) + 1 for x in m.weight) <= MAX_BOX
    ]


@st.composite
def cases(draw):
    name = draw(st.sampled_from(TYPES))
    d = build_root_datum(SimpleType.parse(name))
    lam = draw(st.sampled_from(small_labels(name)))
    halves = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
    h = d.weight_from_fundamental(draw(st.lists(halves, min_size=d.rank, max_size=d.rank)))
    offsets = st.lists(st.integers(-1, 3), min_size=d.rank, max_size=d.rank)
    mus = [tuple(l - c for l, c in zip(lam, cs)) for cs in draw(st.lists(offsets, max_size=4))]
    return d, lam, h, mus


def is_dominant(d, v):
    return all(x >= 0 for x in d.weight_to_fundamental(v))


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_closed_forms_match_enumeration(case, data):
    d, lam, h, mus = case
    support = weight_support(d, lam)

    h_alpha = [d.pair(h, a) for a in d.simple_roots]
    brute = min(sum(x * y for x, y in zip(mu, h_alpha)) for mu in support)
    assert min_pairing(d, h, lam) == brute

    inside = data.draw(st.lists(st.sampled_from(sorted(support)), max_size=4))
    above = tuple(l + t for l, t in zip(lam, d.theta))
    queries = [lam, above] + mus + inside
    index = st.integers(0, d.rank - 1)
    queries += [d.reflect(mu, data.draw(index)) for mu in queries]
    # weights off the coset lam + Q as well (Lambda_1 is in Q only for E8, F4, G2)
    queries += [
        tuple(a + b for a, b in zip(mu, v)) for mu in inside for v in (h, d.fundamental_weights[0])
    ]
    for mu in queries:
        assert support_contains(d, lam, mu) == (mu in support), mu


@settings(max_examples=40, deadline=None)
@given(cases())
def test_dominant_conjugate_is_a_class_function(case):
    d, lam, h, mus = case
    for v in [h, lam] + mus:
        dom = d.dominant_conjugate(v)
        assert is_dominant(d, v) == (dom == v)
        assert is_dominant(d, dom)
        assert d.norm(dom) == d.norm(v)
        for i in range(d.rank):
            assert d.dominant_conjugate(d.reflect(v, i)) == dom
