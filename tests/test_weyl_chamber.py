"""Property tests: the Weyl-chamber closed forms against two oracles.

For every simple type up to rank 12, a random dominant lambda with
(theta|lambda) <= 2 and a random half-integral h, min_pairing and
support_contains must agree with rootsys.weight_support, which enumerates
the whole support and is kept as the oracle for exactly this purpose.
weight_support itself (dominant descent and orbit walk) is checked against
the box walk it replaced, tests/fraction_oracle.py, wherever the box is small.

The integer label kernel under them (dominant conjugates, label pairings,
conformal weights, twisted lowest weights and their certificates) is also
checked against the Fraction kernel it replaced, tests/fraction_oracle.py,
on every module label up to level 3, with no limit on the support.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from fraction_oracle import reflect
from orbifold24 import affine
from orbifold24.affine import (
    AffineLabel,
    conformal_weight,
    enumerate_modules,
    twisted_lowest,
    twisted_positivity_certificate,
)
from orbifold24.rootsys import (
    MAX_RANK,
    RootDatum,
    SimpleType,
    _to_integral,
    build_root_datum,
    min_pairing,
    neg_dominant,
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
# weight_support builds every weight, and at rank 12 a level-2 support reaches
# about 10^8 weights (C12, 2 Lambda_12).  A support has at most dim L(lambda)
# weights, so labels of a larger dimension are left out; the size of the
# box 0 <= c <= (root coordinates of lambda) no longer matters.
MAX_DIM = 50000


@lru_cache(maxsize=None)
def small_labels(name):
    """Dominant lambda with (theta|lambda) <= 2, i.e. the level-2 labels."""
    t = SimpleType.parse(name)
    d = build_root_datum(t)
    weights = map(oracle.label_weight, enumerate_modules(t, 2))
    return [lam for lam in weights if oracle.weyl_dimension(d, lam) <= MAX_DIM]


@lru_cache(maxsize=16)
def enumerated(d, lam):
    """weight_support(d, lam), the same weights sorted, and the sorted weights
    as integer vectors over one denominator (every weight lies in lam + Q);
    sorting the integer vectors is sorting the weights, and much faster."""
    support = weight_support(d, lam)
    den = lcm(*(x.denominator for x in lam))
    rows = sorted((tuple(x.numerator * (den // x.denominator) for x in mu), mu) for mu in support)
    return support, [mu for _, mu in rows], den, [row for row, _ in rows]


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
    return all(x >= 0 for x in oracle.to_fundamental(d, v))


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_closed_forms_match_enumeration(case, data):
    d, lam, h, mus = case
    support, ordered, den, scaled = enumerated(d, lam)

    # (h|alpha_j) for each simple root alpha_j
    h_den, h_alpha = _to_integral(oracle.gram_row(d, h))
    brute = min(sum(map(mul, mu, h_alpha)) for mu in scaled)
    assert min_pairing(d, h, lam) == Fraction(brute, den * h_den)

    # draw indices: a strategy over the weights themselves would hash them all
    inside = [ordered[i] for i in data.draw(st.lists(st.integers(0, len(ordered) - 1), max_size=4))]
    _, fund, _, theta = oracle.datum(d.type)
    above = tuple(l + t for l, t in zip(lam, theta))
    queries = [lam, above] + mus + inside
    index = st.integers(0, d.rank - 1)
    queries += [reflect(d, mu, data.draw(index)) for mu in queries]
    # weights off the coset lam + Q as well (Lambda_1 is in Q only for E8, F4, G2)
    queries += [
        tuple(a + b for a, b in zip(mu, v)) for mu in inside for v in (h, fund[0])
    ]
    for mu in queries:
        assert support_contains(d, lam, mu) == (mu in support), mu


@settings(max_examples=40, deadline=None)
@given(cases())
def test_dominant_conjugate_is_a_class_function(case):
    d, lam, h, mus = case
    for v in [h, lam] + mus:
        dom = oracle.kernel_dominant_conjugate(d, v)
        assert is_dominant(d, v) == (dom == v)
        assert is_dominant(d, dom)
        assert oracle.pair(d, dom, dom) == oracle.pair(d, v, v)
        for i in range(d.rank):
            assert oracle.kernel_dominant_conjugate(d, reflect(d, v, i)) == dom


# -- the enumerator against the box walk it replaced -----------------------------

# the box walk visits every point of 0 <= c <= (root coordinates of lambda)
MAX_BOX = 5000


@lru_cache(maxsize=None)
def box_labels(name):
    """The labels at levels 1 and 2 whose box has at most MAX_BOX points."""
    t = SimpleType.parse(name)
    d = build_root_datum(t)
    weights = map(oracle.label_weight, enumerate_modules(t, 2))
    return [lam for lam in weights if oracle.box_size(d, lam) <= MAX_BOX]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TYPES), st.data())
def test_weight_support_matches_box_walk(name, data):
    d = build_root_datum(SimpleType.parse(name))
    lam = data.draw(st.sampled_from(box_labels(name)))
    assert weight_support(d, lam) == oracle.weight_support(d, lam)


# -- the shared orbits against the per-call enumerator ----------------------------

# the per-call enumerator builds and hashes every weight again, and all labels
# within MAX_DIM hold about 1.7 million weights (over a minute); the labels of
# dimension <= SHARED_MAX_DIM still cover every type, 454 labels in all
SHARED_MAX_DIM = 1000


@pytest.mark.parametrize("name", TYPES)
def test_shared_orbits_match_per_call_enumerator(name):
    # levels 1 and 2, in two query orders, each on a fresh datum, which no
    # cached orbit is keyed by; an orbit may be cached from an earlier query
    # in one order and not in the other, or evicted in between
    t = SimpleType.parse(name)
    weights = map(oracle.label_weight, enumerate_modules(t, 2))
    d = build_root_datum(t)
    labels = [lam for lam in weights if oracle.weyl_dimension(d, lam) <= SHARED_MAX_DIM]
    expected = {lam: oracle.descent_support(d, lam) for lam in labels}
    for order in (labels, labels[::-1]):
        d = RootDatum(t)
        for lam in order:
            assert weight_support(d, lam) == expected[lam], lam


def test_returned_supports_are_fresh_sets_over_shared_weights():
    d = RootDatum(SimpleType.parse("D5"))
    lam = d.weight_from_fundamental([1, 0, 1, 0, 0])
    first = weight_support(d, lam)
    want = oracle.descent_support(d, lam)
    assert first == want
    first.clear()
    second = weight_support(d, lam)
    assert second == want and second is not first
    second.add(lam)
    second.discard(d.weight_from_fundamental([0, 0, 0, 1, 1]))
    assert weight_support(d, lam) == want
    # a support below lam is a union of orbits lam's support holds: the same tuples
    theta = d.weight_from_fundamental([0, 1, 0, 0, 0])
    objects = {id(mu) for mu in weight_support(d, lam)}
    assert all(id(mu) in objects for mu in weight_support(d, theta))


def test_repeated_h_makes_one_dominant_walk(monkeypatch):
    # min_pairing and twisted_lowest read dom(-h) from one cache: three h,
    # each asked on every module of E6,2 by both, cost one walk each
    calls = []
    dominant_int = RootDatum.dominant_int

    def counted(self, x):
        calls.append(x)
        return dominant_int(self, x)

    monkeypatch.setattr(RootDatum, "dominant_int", counted)
    neg_dominant.cache_clear()
    affine._twist.cache_clear()
    t = SimpleType.parse("E6")
    d = build_root_datum(t)
    hs = [d.weight_from_fundamental(c) for c in
          ([F(1, 2), 0, 0, 0, 0, F(-1, 2)], [0, F(-1, 2), 0, 0, 0, 0], [0, 0, 0, F(1, 2), 0, 0])]
    for h in hs:
        for _ in range(2):
            for m in enumerate_modules(t, 2):
                lam = oracle.label_weight(m)
                assert min_pairing(d, h, lam) == oracle.min_pairing(d, h, lam)
                assert twisted_lowest(m, h) == oracle.twisted_lowest(d, lam, 2, h)
    assert len(calls) == len(hs)


# -- the integer label kernel against the Fraction oracle ------------------------


@st.composite
def label_cases(draw):
    """A type, a module label lambda at level k <= 3 and an h: random
    half-integral labels, or -Lambda_j / s, which with lambda = k Lambda_j
    reaches the zero-weight witness."""
    name = draw(st.sampled_from(TYPES))
    d = build_root_datum(SimpleType.parse(name))
    _, fund, _, theta = oracle.datum(d.type)
    comarks = [oracle.pair(d, theta, w) for w in fund]
    k = draw(st.integers(1, 3))
    j = draw(st.integers(0, d.rank - 1))
    if comarks[j] == 1 and draw(st.booleans()):
        coeffs = [k if i == j else 0 for i in range(d.rank)]
    else:
        coeffs, budget = [0] * d.rank, k
        for i in draw(st.permutations(range(d.rank))):
            coeffs[i] = draw(st.integers(0, int(budget / comarks[i])))
            budget -= coeffs[i] * comarks[i]
    if draw(st.booleans()):
        halves = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
        h_labels = draw(st.lists(halves, min_size=d.rank, max_size=d.rank))
    else:
        s = draw(st.sampled_from([1, 2, 3]))
        h_labels = [F(-1, s) if i == j else 0 for i in range(d.rank)]
    h = oracle.weight_from_fundamental(d, h_labels)
    index = st.integers(0, d.rank - 1)
    h = draw(st.sampled_from([h, reflect(d, h, draw(index))]))
    return d, AffineLabel(d.type, k, tuple(coeffs)), h, draw(st.data())


@settings(max_examples=80, deadline=None)
@given(label_cases())
def test_label_kernel_matches_fraction_oracle(case):
    d, m, h, data = case
    k = m.level
    lam = oracle.weight_from_fundamental(d, m.coeffs)
    assert oracle.label_weight(m) == lam
    assert oracle.kernel_dominant_conjugate(d, h) == oracle.dominant_conjugate(d, h)
    assert min_pairing(d, h, lam) == oracle.min_pairing(d, h, lam)
    assert conformal_weight(m) == oracle.conformal_weight(d, lam, k)
    assert twisted_lowest(m, h) == oracle.twisted_lowest(d, lam, k, h)
    cert = twisted_positivity_certificate(m, h)
    assert (cert.kind, cert.witness) == oracle.certificate(d, m.coeffs, k, h)

    offsets = st.lists(st.integers(-1, 2), min_size=d.rank, max_size=d.rank)
    below = [tuple(l - c for l, c in zip(lam, cs)) for cs in data.draw(st.lists(offsets, max_size=3))]
    queries = [lam, h, tuple(-k * x for x in h)] + below
    queries += [reflect(d, mu, data.draw(st.integers(0, d.rank - 1))) for mu in queries]
    for mu in queries:
        assert support_contains(d, lam, mu) == oracle.support_contains(d, lam, mu), mu


@st.composite
def order_two_h(draw, d):
    """An h with Dynkin labels in Z/2, drawn as in label_cases: free labels
    in [-1, 1], or -Lambda_j or -Lambda_j/2; then perhaps one reflection."""
    if draw(st.booleans()):
        halves = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
        h_labels = draw(st.lists(halves, min_size=d.rank, max_size=d.rank))
    else:
        j, s = draw(st.integers(0, d.rank - 1)), draw(st.sampled_from([1, 2]))
        h_labels = [F(-1, s) if i == j else 0 for i in range(d.rank)]
    h = oracle.weight_from_fundamental(d, h_labels)
    return draw(st.sampled_from([h, reflect(d, h, draw(st.integers(0, d.rank - 1)))]))


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_every_module_up_to_rank_8_matches_fraction_oracle(data):
    # every module of every (type, level) with rank <= 8 and level <= 3, one
    # random h per type: the integer conformal weight, twisted lowest weight
    # and certificate equal the Fraction kernel's
    for name in TYPES:
        d = build_root_datum(SimpleType.parse(name))
        if d.rank > 8:
            continue
        h = data.draw(order_two_h(d), label=name)
        for k in (1, 2, 3):
            for m in enumerate_modules(d.type, k):
                lam = oracle.weight_from_fundamental(d, m.coeffs)
                assert conformal_weight(m) == oracle.conformal_weight(d, lam, k)
                value = oracle.twisted_lowest(d, lam, k, h)
                assert twisted_lowest(m, h) == value
                cert = twisted_positivity_certificate(m, h)
                assert (cert.kind, cert.witness) == oracle.certificate(d, m.coeffs, k, h)
                assert cert.value == (None if cert.kind == "precondition_violated" else value)


def test_zero_weight_witnesses_match_fraction_oracle():
    # lambda = k Lambda_j and h = -Lambda_j over every admissible (type, j, k):
    # the certificates, witnesses included, equal the oracle's, and witnesses occur
    witnesses = 0
    for name in TYPES:
        d = build_root_datum(SimpleType.parse(name))
        if d.rank > 8:
            continue
        for j in (j for j, mark in enumerate(d.comarks) if mark == 1):
            for k in (1, 2):
                m = AffineLabel(d.type, k, tuple(k if i == j else 0 for i in range(d.rank)))
                h = oracle.weight_from_fundamental(d, [F(-1) if i == j else 0 for i in range(d.rank)])
                cert = twisted_positivity_certificate(m, h)
                assert (cert.kind, cert.witness) == oracle.certificate(d, m.coeffs, k, h)
                witnesses += cert.witness is not None
    assert witnesses > 10


# -- canonical coordinates ---------------------------------------------------------


def canonical(v):
    """Whether each coordinate of v is an int when it is integral, and
    otherwise a Fraction with denominator > 1."""
    return all(type(x) is int or type(x) is Fraction and x.denominator > 1 for x in v)


@pytest.mark.parametrize("name", [name for name in TYPES if int(name[1:]) <= 8])
def test_vecs_are_canonical_and_equal_the_fraction_oracle(name):
    # every label at levels 1 and 2 of dimension <= MAX_DIM; the box walk is the
    # oracle where its box has at most MAX_BOX points, and beyond that (the
    # boxes of all these labels hold 7.2 million points) the per-call descent,
    # whose weights are all Fractions
    t = SimpleType.parse(name)
    d = build_root_datum(t)
    n = d.rank
    for j in range(n):
        for c in (1, F(1, 2), F(-1, 3)):
            coeffs = [c if i == j else 0 for i in range(n)]
            v = d.weight_from_fundamental(coeffs)
            assert canonical(v) and v == oracle.weight_from_fundamental(d, coeffs), coeffs
    hs = [d.weight_from_fundamental([0] * n), d.weight_from_fundamental([F(1, 2)] * n)]
    for m in enumerate_modules(t, 2):
        lam = d.weight_from_fundamental(m.coeffs)
        assert canonical(lam) and lam == oracle.weight_from_fundamental(d, m.coeffs)
        for h in hs:
            assert type(min_pairing(d, h, lam)) is Fraction
            assert type(twisted_lowest(m, h)) is Fraction
        if oracle.weyl_dimension(d, lam) > MAX_DIM:
            continue
        support = weight_support(d, lam)
        assert all(map(canonical, support)), m.coeffs
        if oracle.box_size(d, lam) <= MAX_BOX:
            assert support == oracle.weight_support(d, lam), m.coeffs
        else:
            assert support == oracle.descent_support(d, lam), m.coeffs
