from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle
from fraction_oracle import invariant_pairing, level_transfer, long_norm_ambient, reflect
from orbifold24 import orbifold
from orbifold24.affine import HVector, ProductAlgebra
from orbifold24.orbifold import (
    OrbifoldError,
    SeedSubalgebra,
    SemisimpleShape,
    _cartan_permutation_match,
    _embedding_query,
    _shape_sort_key,
    assemble_root_subsystem,
    classify_simple_system,
    embeds,
    fixed_subalgebra,
    identify,
    negate,
    product_weight,
    seeds_meeting,
    twisted_sector_roots,
    verlinde_simple_current,
)
from orbifold24.rootsys import IntWeight, MAX_RANK, RootSystemError, SimpleType, build_root_datum

F = Fraction
T = SimpleType.parse


def halg(factors, hlists):
    a = ProductAlgebra.of(*factors)
    return a, HVector.from_fundamental(a, hlists)


SCENARIOS = {
    "M1": halg(
        [("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1)],
        [[F(1, 2), 0, 0, 0, 0, F(-1, 2)], [0, F(1, 2)], [0, F(1, 2)], [0, 0]],
    ),
    "M2": halg(
        [("D7", 3), ("A3", 1), ("G2", 1)],
        [[0, 0, 0, 0, 0, F(1, 2), F(-1, 2)], [1, 0, 0], [0, F(1, 2)]],
    ),
    "M3": halg(
        [("E7", 3), ("A5", 1)],
        [[0, F(1, 2), 0, 0, 0, 0, 0], [0, 0, F(1, 2), 0, 0]],
    ),
    "M4": halg(
        [("C5", 3), ("G2", 2), ("A1", 1)],
        [[0, 0, 0, 0, F(1, 2)], [0, F(1, 2)], [F(1, 2)]],
    ),
    "M5": halg(
        [("A4", 5), ("A4", 5)],
        [[0, 0, 0, F(1, 2)], [0, 0, 0, F(1, 2)]],
    ),
}

FIXED_EXPECT = {
    "M1": ("D5,3 A1,1^2 A1,3^2 G2,1 U(1)", 72),
    "M2": ("D6,3 A3,1 A1,1 A1,3 U(1)", 88),
    "M3": ("A7,3 A2,1^2 U(1)", 80),
    "M4": ("A4,6 A1,6 A1,2 U(1)^2", 32),
    "M5": ("A3,5^2 U(1)^2", 32),
}

H_NORMS = {"M1": 2, "M2": 2, "M3": 3, "M4": 3, "M5": 2}


def at_factor(a, i, alpha):
    """The Fraction product weight, one Vec per factor, with alpha in factor i
    and zero elsewhere."""
    return tuple(
        tuple(alpha) if j == i else (F(0),) * t.rank for j, (t, _) in enumerate(a.factors)
    )


def ints(a, w):
    """A Fraction product weight, one Vec per factor, as one IntWeight per
    factor, the form product_weight and twisted_sector_roots take."""
    return tuple(d.integral(c) for d, c in zip(a.data, w))


def flat(a, weights):
    """Fraction product weights on the grid, as the package keeps them."""
    return tuple(product_weight(a, ints(a, w)) for w in weights)


def test_shape_parse_format_roundtrip():
    for text in ["D7,3 A3,1 G2,1", "A1,1^2 D6,5", "A4,6 A1,6 A1,2 U(1)^2", "U(1)"]:
        shape = SemisimpleShape.parse(text)
        assert SemisimpleShape.parse(str(shape)) == shape


@pytest.mark.parametrize("text", ["U(1)^-1", "U(1)^0", "A1,1^-2 U(1)", "D7,3 A3,1^0"])
def test_shape_parse_rejects_multiplicity_below_one(text):
    # U(1)^-1 once parsed to center_dim -1 and printed as U(1)
    with pytest.raises(OrbifoldError, match="below 1"):
        SemisimpleShape.parse(text)


def test_shape_dim_and_rank():
    s = SemisimpleShape.parse("D5,3 A1,1^2 A1,3^2 G2,1 U(1)")
    assert s.dim == 72 and s.rank == 12


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_h_norms(name):
    _, h = SCENARIOS[name]
    assert h.norm_invariant() == H_NORMS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fixed_subalgebras(name):
    a, h = SCENARIOS[name]
    shape, seeds = fixed_subalgebra(a, h)
    expected_text, expected_dim = FIXED_EXPECT[name]
    assert shape == SemisimpleShape.parse(expected_text)
    assert shape.dim == expected_dim
    assert sum(s.type.rank for s in seeds) + shape.center_dim == a.rank


def test_m1_fixed_root_sets_match_stated_description():
    # factor 1: roots in the integer span of alpha_2..alpha_5 and theta,
    # which for E6 is exactly c_1 = c_6 in root-basis coordinates;
    # factors 2,3: only +-theta and the short +-alpha_1 survive;
    # factor 4: the whole G2
    a, h = SCENARIOS["M1"]
    _, seeds = fixed_subalgebra(a, h)
    e6, g2 = a.data[0], a.data[1]
    small = {g2.theta, tuple(-x for x in g2.theta),
             g2.simple_roots[0], tuple(-x for x in g2.simple_roots[0])}
    want = (
        [at_factor(a, 0, r) for r in e6.roots if r[0] == r[5]]
        + [at_factor(a, i, r) for i in (1, 2) for r in small]
        + [at_factor(a, 3, r) for r in g2.roots]
    )
    assert {r for s in seeds for r in s.roots} == set(flat(a, want))


def test_m2_fixed_root_set_matches_stated_description():
    # the D7 component consists of the roots in the integer span of
    # alpha_1..alpha_5 and theta, i.e. c_6 = c_7 in root-basis coordinates
    a, h = SCENARIOS["M2"]
    _, seeds = fixed_subalgebra(a, h)
    d6 = next(s for s in seeds if str(s.type) == "D6")
    d7 = a.data[0]
    assert set(d6.roots) == set(flat(a, [at_factor(a, 0, r) for r in d7.roots if r[5] == r[6]]))


def test_fixed_subalgebra_trivial_h():
    a, _ = SCENARIOS["M1"]
    h = HVector.from_fundamental(a, [[0] * 6, [0, 0], [0, 0], [0, 0]])
    shape, seeds = fixed_subalgebra(a, h)
    assert shape == SemisimpleShape.parse("E6,3 G2,1^3")
    assert shape.center_dim == 0


def test_classification_canonical_names():
    # rank-2 BC components report as C2, rank-3 D components as A3
    for ambient, expected in [("C2", "C2,1"), ("B3", "B3,1"), ("D3", "A3,1")]:
        a = ProductAlgebra.of((ambient, 1))
        h = HVector.from_fundamental(a, [[0] * a.rank])
        shape, _ = fixed_subalgebra(a, h)
        assert shape == SemisimpleShape.parse(expected)


def test_fixed_subalgebra_rejects_non_half_integral():
    a = ProductAlgebra.of(("A2", 1))
    h = HVector.from_fundamental(a, [[F(1, 3), 0]])
    with pytest.raises(OrbifoldError):
        fixed_subalgebra(a, h)


def test_product_weight_rejects_off_grid_weight():
    # the grid of A2 is 1/6 (D = 2 fund_den); a label 1/3 gives root coordinates in 1/9
    a = ProductAlgebra.of(("A2", 1))
    d = a.data[0]
    assert product_weight(a, (d.from_fundamental([F(1, 2), 0]),)) == (2, 1)
    with pytest.raises(OrbifoldError, match="off the grid 1/6"):
        product_weight(a, (d.from_fundamental([F(1, 3), 0]),))
    with pytest.raises(OrbifoldError, match="one weight of the factor's rank"):
        product_weight(a, (IntWeight(1, (1, 0, 0), (2, -1, 0)),))


def test_seed_long_in_ambient_flags():
    # the A1,1 seeds sit on long G2 roots and the A1,3 seeds on short ones
    a, h = SCENARIOS["M1"]
    _, seeds = oracle_fixed_subalgebra(a, h)
    by_key = {(str(s.type), s.level): s for s in seeds}
    assert long_norm_ambient(a, by_key[("A1", 1)].roots) == 2
    assert long_norm_ambient(a, by_key[("A1", 3)].roots) == F(2, 3)


def test_level_transfer():
    assert level_transfer(F(2), 1) == 1
    assert level_transfer(F(2, 3), 1) == 3  # short root inside G2 at level 1
    assert level_transfer(F(1), 3) == 6  # short roots inside C5 at level 3
    with pytest.raises(ValueError):
        level_transfer(F(3), 1)


# -- twisted sector -------------------------------------------------------------


def m1_twisted_data():
    a, h = SCENARIOS["M1"]
    z6, z2 = [0] * 6, [0] * 2
    def pw(*lists):
        return tuple(
            d.weight_from_fundamental([F(c) for c in cs]) for d, cs in zip(a.data, lists)
        )
    bases = [
        pw(z6, z2, z2, z2),
        pw(z6, [0, -1], z2, z2),
        pw(z6, z2, [0, -1], z2),
        pw(z6, [0, -1], [0, -1], z2),
    ]
    return a, h, bases, pw


def test_twisted_sector_roots_match_known_weights():
    a, h, bases, pw = m1_twisted_data()
    tw = twisted_sector_roots(a, h, [ints(a, b) for b in bases])
    z2 = [0, 0]
    assert tw[0] == product_weight(
        a, ints(a, pw([F(3, 2), 0, 0, 0, 0, F(-3, 2)], [0, F(1, 2)], [0, F(1, 2)], z2)))
    assert tw[1] == product_weight(
        a, ints(a, pw([F(3, 2), 0, 0, 0, 0, F(-3, 2)], [0, F(-1, 2)], [0, F(1, 2)], z2)))
    assert all(type(x) is int for w in tw for x in w)


def test_twisted_sector_roots_identity_at_zero_h():
    a, _, bases, _ = m1_twisted_data()
    h0 = HVector.from_fundamental(a, [[0] * 6, [0, 0], [0, 0], [0, 0]])
    assert twisted_sector_roots(a, h0, [ints(a, b) for b in bases]) == list(flat(a, bases))


def test_assemble_twisted_subsystem():
    a, h, bases, pw = m1_twisted_data()
    _, seeds = fixed_subalgebra(a, h)
    tw = twisted_sector_roots(a, h, [ints(a, b) for b in bases])
    tw = tw + [negate(t) for t in tw]
    fixed = [r for s in seeds if (str(s.type), s.level) == ("A1", 1) for r in s.roots]
    psi = assemble_root_subsystem(a, fixed, tw)
    assert str(psi.type) == "A3" and psi.level == 1 and len(psi.roots) == 12
    z6, z2 = [0] * 6, [0, 0]
    expected = [
        pw(z6, [0, 1], z2, z2),
        pw(z6, z2, [0, 1], z2),
        pw([F(3, 2), 0, 0, 0, 0, F(-3, 2)], [0, F(-1, 2)], [0, F(-1, 2)], z2),
    ]
    assert set(psi.simple_roots) == set(flat(a, expected))


def test_assemble_single_pair_is_a1():
    a, h = SCENARIOS["M1"]
    d = a.data[1]
    r = product_weight(a, ints(a, at_factor(a, 1, d.theta)))
    seed = assemble_root_subsystem(a, [r, negate(r)], [])
    assert str(seed.type) == "A1" and seed.level == 1


def test_assemble_rejects_broken_sets():
    a, h, bases, _ = m1_twisted_data()
    _, seeds = fixed_subalgebra(a, h)
    tw = twisted_sector_roots(a, h, [ints(a, b) for b in bases])
    fixed = [r for s in seeds if (str(s.type), s.level) == ("A1", 1) for r in s.roots]
    with pytest.raises(OrbifoldError):
        # twisted roots without their negatives
        assemble_root_subsystem(a, fixed, tw)
    with pytest.raises(OrbifoldError):
        # reflection closure fails when one pair is removed
        full = tw + [negate(t) for t in tw]
        assemble_root_subsystem(a, fixed[2:], full)


# -- embeddings -----------------------------------------------------------------


def test_embeds_examples():
    assert embeds(T("A3"), T("D7"))
    assert embeds(T("D6"), T("E7"))
    assert embeds([T("A3"), T("A3")], T("D6"))
    assert not embeds(T("A4"), T("D4"))
    assert not embeds(T("A2"), T("C2"))
    assert not embeds([T("A1"), T("A1")], T("A2"))
    assert embeds([T("A1"), T("A1")], T("A3"))


def test_embeds_reflexivity():
    for name in ("A1", "A5", "B3", "C5", "D7", "E6", "E7", "F4", "G2"):
        assert embeds(T(name), T(name))


def test_embeds_long_only_restriction():
    # C2 inside C3 needs short roots, which norm matching allows
    assert embeds(T("C2"), T("C3"))
    # a part whose norms all equal the target's long norm lands on long roots:
    # the long roots of C3 are orthogonal, so A2 fits only at the short norm
    assert embeds(T("A1"), T("G2"))
    assert not embeds(T("A2"), T("C3"))
    assert _embedding_query(T("C3"), (T("A2"),), (2,))


def test_embeds_rank_guard():
    assert not embeds(T("A5"), T("A3"))


def test_embeds_classical_facts():
    assert embeds(T("A2"), T("G2"))  # the long roots of G2
    assert embeds(T("D4"), T("F4"))  # the long roots of F4
    assert embeds(T("C2"), T("B3"))
    assert embeds(T("E6"), T("E7"))
    assert embeds(T("A7"), T("E7"))
    assert embeds(T("D6"), T("E7"))
    assert embeds([T("A1")] * 4, T("D4"))
    assert not embeds([T("A1")] * 3, T("A3"))
    assert embeds([T("A2"), T("A1")], T("A4"))
    # subsystems of simply-laced systems are simply laced
    assert not embeds(T("G2"), T("E6"))
    assert not embeds(T("B3"), T("D7"))
    assert not embeds(T("C3"), T("A5"))
    # Borel-de Siebenthal: maximal-rank subsystems of E8
    assert embeds(T("D8"), T("E8"))
    assert embeds(T("A8"), T("E8"))
    assert embeds([T("E6"), T("A2")], T("E8"))
    assert embeds([T("A4"), T("A4")], T("E8"))
    assert embeds([T("D5"), T("A3")], T("E8"))
    assert embeds([T("E7"), T("A1")], T("E8"))
    assert embeds(T("D7"), T("E8"))
    # Borel-de Siebenthal: the maximal-rank subsystems left by deleting a node
    # of the extended Dynkin diagram, repeated within each part
    assert embeds([T("A7"), T("A1")], T("E8"))
    assert embeds([T("A5"), T("A2"), T("A1")], T("E8"))
    assert embeds([T("D4"), T("D4")], T("E8"))
    assert embeds([T("A2")] * 4, T("E8"))
    assert embeds([T("A1")] * 8, T("E8"))
    assert embeds([T("A5"), T("A2")], T("E7"))
    assert embeds([T("A3"), T("A3"), T("A1")], T("E7"))
    assert embeds([T("A1")] * 7, T("E7"))
    assert embeds([T("A5"), T("A1")], T("E6"))
    assert embeds([T("A2")] * 3, T("E6"))
    assert embeds(T("B4"), T("F4"))
    assert embeds([T("C3"), T("A1")], T("F4"))
    # a short-root part, its Gram matrix divided by the squared length ratio
    assert _embedding_query(T("F4"), (T("A2"), T("A2")), (1, 2))
    assert _embedding_query(T("F4"), (T("A3"), T("A1")), (1, 2))
    assert _embedding_query(T("G2"), (T("A1"), T("A1")), (1, 3))
    # and the sums that no node deletion gives, so that E8 excludes them
    assert not embeds([T("A6"), T("A2")], T("E8"))
    assert not embeds([T("D7"), T("A1")], T("E8"))


# -- identification -------------------------------------------------------------


IDENTIFY_CASES = [
    (12, 120, [("D5", 3), ("A3", 1), ("G2", 1)], "D7,3 A3,1 G2,1"),
    (12, 168, [("D6", 3), ("A3", 1), ("A1", 1), ("A1", 3)], "E7,3 A5,1"),
    (12, 96, [("A7", 3), ("A2", 1), ("A2", 1)], "A8,3 A2,1^2"),
    (8, 48, [("A4", 6), ("A1", 2)], "A5,6 C2,3 A1,2"),
    (8, 72, [("A3", 5), ("A3", 5)], "D6,5 A1,1^2"),
]


@pytest.mark.parametrize("rank,dim,seeds,expected", IDENTIFY_CASES)
def test_identify_unique_shapes(rank, dim, seeds, expected):
    found = identify(rank, dim, [(T(t), k) for t, k in seeds])
    assert len(found) == 1
    assert found[0] == SemisimpleShape.parse(expected)


def test_identify_monotone_in_seeds():
    seeds = [(T("D5"), 3), (T("A3"), 1), (T("G2"), 1)]
    full = set(map(str, identify(12, 120, seeds)))
    for k in range(len(seeds)):
        partial = set(map(str, identify(12, 120, seeds[:k])))
        assert full <= partial


def test_identify_reports_failure_as_empty():
    # no ideal can host an E7 seed at level 1 when the ratio is 4
    assert identify(12, 120, [(T("E7"), 1)]) == []


def test_identify_rejects_small_dimension():
    with pytest.raises(OrbifoldError):
        identify(12, 24, [])


@pytest.mark.parametrize("dim", [744, 1128])
def test_identify_rejects_rank_above_the_cap(dim):
    # at rank 24 these admit D16,1 E8,1 and D24,1, whose ideals exceed the cap;
    # capped silently, they gave E8,1^3 alone and no shape at all
    with pytest.raises(OrbifoldError, match=f"cap {MAX_RANK}"):
        identify(24, dim, [])


# -- the Verlinde check ----------------------------------------------------------


@pytest.mark.parametrize("a", [1, -1])
def test_verlinde_simple_current(a):
    N = verlinde_simple_current(a)
    for p in range(4):
        for q in range(4):
            assert all(isinstance(x, int) and x >= 0 for x in N[p][q])
            assert sum(N[p][q]) == 1  # simple current: every fusion is irreducible
        assert N[p][p][0] == 1
        assert all(N[p][p][r] == 0 for r in range(1, 4))
    # the vacuum row fuses as the identity permutation
    for q in range(4):
        assert N[0][q][q] == 1


@pytest.mark.parametrize("a", [1, -1])
def test_verlinde_matches_fraction_oracle(a):
    # the integer sum over T = 2S against the Fraction sum over S, uncached
    assert verlinde_simple_current.__wrapped__(a) == fraction_oracle.verlinde_simple_current(a)


def test_verlinde_rejects_bad_parameter():
    with pytest.raises(OrbifoldError):
        verlinde_simple_current(2)


@pytest.mark.parametrize("a", [1, -1])
def test_verlinde_fusion_is_associative_and_commutative(a):
    N = verlinde_simple_current(a)
    n = 4
    for p in range(n):
        for q in range(n):
            assert N[p][q] == N[q][p]
            for r in range(n):
                for s in range(n):
                    lhs = sum(N[p][q][t] * N[t][r][s] for t in range(n))
                    rhs = sum(N[q][r][t] * N[p][t][s] for t in range(n))
                    assert lhs == rhs


def test_identify_empty_when_no_multiset_fits():
    assert identify(12, 121, []) == []  # no candidate multiset reaches dim 121


def test_invariant_pairing_reads_levels():
    a, h = SCENARIOS["M1"]
    _, seeds = fixed_subalgebra(a, h)
    _, want = oracle_fixed_subalgebra(a, h)
    for s, w in zip(seeds, want, strict=True):
        assert s.roots == flat(a, w.roots)
        assert max(invariant_pairing(a, r, r) for r in w.roots) == F(2, s.level)


def transferred_level(a, w):
    """The level of an oracle seed by the level transfer rule: every fixed
    component lives in one factor, and its long roots' plain norm there
    scales that factor's level."""
    factor = next(i for i, comp in enumerate(w.simple_roots[0]) if any(comp))
    return level_transfer(long_norm_ambient(a, w.roots), a.factors[factor][1])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_level_transfer_matches_component_levels(name):
    # the level transfer rule applied to each component's ambient norm must
    # reproduce the classified level, which check_against_oracle asserts
    check_against_oracle(*SCENARIOS[name])


# -- the Fraction oracle for the integer root-set path ---------------------------
#
# The component split, the simple-system extraction and the classification
# on Fraction product weights (one Vec per factor) under invariant_pairing:
# the oracle for the integer path of fixed_subalgebra and
# assemble_root_subsystem.  Its seeds are compared with the package's
# through product_weight.

OracleSeed = namedtuple("OracleSeed", "type level simple_roots roots")


def flat_seed(a, w):
    return SeedSubalgebra(w.type, w.level, flat(a, w.simple_roots), flat(a, w.roots))


def oracle_negate(x):
    return tuple(tuple(-c for c in comp) for comp in x)


def oracle_classify_simple_system(simple_gram):
    n = len(simple_gram)
    C = [[2 * simple_gram[i][j] / simple_gram[i][i] for j in range(n)] for i in range(n)]
    if any(v.denominator != 1 for row in C for v in row):
        raise OrbifoldError("not a crystallographic simple system")
    C = [[int(v) for v in row] for row in C]
    for letter in "ACBDEFG":
        try:
            t = SimpleType(letter, n)
        except RootSystemError:
            continue
        if _cartan_permutation_match(C, build_root_datum(t).cartan):
            return t
    raise OrbifoldError(f"Cartan matrix {C} matches no simple type")


def oracle_extract_simple_system(roots):
    root_set = set(roots)
    if root_set != {oracle_negate(r) for r in root_set}:
        raise OrbifoldError("root set is not closed under negation")
    flat = {r: tuple(c for comp in r for c in comp) for r in roots}
    positive = [r for r in roots if flat[r] > tuple(-c for c in flat[r])]
    pos_set = set(positive)
    simple = []
    for r in positive:
        decomposable = any(
            tuple(tuple(a - b for a, b in zip(cr, cs)) for cr, cs in zip(r, s)) in pos_set
            for s in positive
            if s != r
        )
        if not decomposable:
            simple.append(r)
    simple.sort(key=lambda r: flat[r])
    return simple


def oracle_classify_component(a, roots):
    form = lambda x, y: invariant_pairing(a, x, y)
    simple = oracle_extract_simple_system(roots)
    t = oracle_classify_simple_system([[form(x, y) for y in simple] for x in simple])
    if len(roots) != t.num_roots:
        raise OrbifoldError(f"component classified as {t} but has {len(roots)} roots")
    level = 2 / max(form(r, r) for r in roots)
    if level.denominator != 1 or level < 1:
        raise OrbifoldError(f"component of type {t} has non-integral level {level}")
    return OracleSeed(t, int(level), tuple(simple), tuple(sorted(roots)))


def oracle_components(a, roots):
    roots = sorted(roots)
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, r in enumerate(roots):
        for j in range(i + 1, len(roots)):
            if invariant_pairing(a, r, roots[j]) != 0:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)
    return [sorted(g) for g in groups.values()]


def oracle_fixed_subalgebra(a, h):
    fixed = []
    for i, ((t, _), d, comp) in enumerate(zip(a.factors, a.data, fraction_oracle.h_components(h))):
        row = fraction_oracle.gram_row(d, comp)
        for alpha in d.roots:
            val = sum((x * y for x, y in zip(row, alpha)), F(0))
            if (2 * val).denominator != 1:
                raise OrbifoldError(f"(h|alpha) = {val} is not half-integral on factor {t}")
            if val.denominator == 1:
                fixed.append(at_factor(a, i, alpha))
    seeds = [oracle_classify_component(a, comp) for comp in oracle_components(a, fixed)]
    seeds.sort(key=lambda s: (_shape_sort_key((s.type, s.level)), s.simple_roots))
    center = a.rank - sum(s.type.rank for s in seeds)
    return SemisimpleShape(tuple((s.type, s.level) for s in seeds), center), seeds


def oracle_assemble(a, fixed_roots, twisted_roots):
    roots = sorted(set(fixed_roots) | set(twisted_roots))
    root_set = set(roots)
    for r in roots:
        if oracle_negate(r) not in root_set:
            raise OrbifoldError(f"root set not closed under negation at {r}")
    for r in roots:
        nr = invariant_pairing(a, r, r)
        for s in roots:
            c = 2 * invariant_pairing(a, r, s) / nr
            if c.denominator != 1:
                raise OrbifoldError(f"non-crystallographic pair {r}, {s}")
            refl = tuple(tuple(sx - c * rx for sx, rx in zip(cs, cr)) for cs, cr in zip(s, r))
            if c and refl not in root_set:
                raise OrbifoldError(f"not a root system: reflection of {s} in {r} escapes the set")
    if len(oracle_components(a, roots)) != 1:
        raise OrbifoldError("assembled set splits")
    return oracle_classify_component(a, roots)


def oracle_twisted_roots(a, h, bases):
    """The weights mu + k h, factor by factor in Fractions, and their negatives."""
    tw = [
        tuple(
            tuple(m + k * x for m, x in zip(mu_i, h_i))
            for (_, k), mu_i, h_i in zip(a.factors, mu, fraction_oracle.h_components(h))
        )
        for mu in bases
    ]
    return tw + [oracle_negate(t) for t in tw]


# -- the integer path against the oracle -------------------------------------------

LOW_RANK_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
HIGH_RANK_TYPES = ["A9", "B10", "C9", "D11"]


@st.composite
def twist(draw, t):
    """A dominant h with (h|alpha_j) in {0, 1/2, 1}, not all 0, and
    (h|theta) <= 1, moved by a random Weyl word."""
    d = build_root_datum(t)
    p = [0] * d.rank  # 2 (h|alpha_j)
    budget = 2  # 2 (h|theta) <= 2
    for j in draw(st.permutations(range(d.rank))):
        p[j] = draw(st.sampled_from([v for v in (0, 1, 2) if d.theta[j] * v <= budget]))
        budget -= d.theta[j] * p[j]
    assume(any(p))
    # Dynkin label of h: (h|alpha_j) / ((alpha_j|alpha_j)/2)
    h = d.weight_from_fundamental([F(x) / d.norms[j] for j, x in enumerate(p)])
    for i in draw(st.lists(st.integers(0, d.rank - 1), max_size=2 * d.rank)):
        h = reflect(d, h, i)
    return h


@st.composite
def twisted_algebras(draw, names, factors):
    """A product of `factors` types drawn from names, at distinct levels if
    there are several, with an h drawn factor by factor."""
    types = [SimpleType.parse(draw(st.sampled_from(names))) for _ in range(factors)]
    levels = draw(st.permutations([1, 2, 3]))[:factors] if factors > 1 else [draw(st.integers(1, 3))]
    a = ProductAlgebra(tuple(zip(types, levels)))
    return a, HVector(a, tuple(d.integral(draw(twist(t))) for d, t in zip(a.data, types)))


def check_against_oracle(a, h):
    shape, seeds = fixed_subalgebra(a, h)
    want_shape, want_seeds = oracle_fixed_subalgebra(a, h)
    assert shape == want_shape
    assert seeds == [flat_seed(a, w) for w in want_seeds]
    assert [s.level for s in seeds] == [transferred_level(a, w) for w in want_seeds]
    return seeds


@pytest.mark.parametrize("name", LOW_RANK_TYPES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_fixed_subalgebra_matches_oracle_up_to_rank_8(name, data):
    check_against_oracle(*data.draw(twisted_algebras([name], 1)))


@settings(max_examples=4, deadline=None)
@given(twisted_algebras(HIGH_RANK_TYPES, 1))
def test_fixed_subalgebra_matches_oracle_at_high_rank(case):
    check_against_oracle(*case)


@settings(max_examples=15, deadline=None)
@given(twisted_algebras([n for n in LOW_RANK_TYPES if int(n[1:]) <= 5], 2))
def test_fixed_subalgebra_matches_oracle_on_products(case):
    a, h = case
    seeds = check_against_oracle(a, h)
    # every seed is a root system on its own, under the block-diagonal form
    # of the whole product, and meets only itself
    for s in seeds:
        assert assemble_root_subsystem(a, s.roots, []) == s
        assert seeds_meeting(a, seeds, s.roots[:1]) == [s]


def test_assemble_matches_oracle_on_m1_twisted_data():
    a, h, bases, _ = m1_twisted_data()
    seeds = check_against_oracle(a, h)
    want_seeds = oracle_fixed_subalgebra(a, h)[1]
    tw = twisted_sector_roots(a, h, [ints(a, b) for b in bases])
    tw = tw + [negate(t) for t in tw]
    want_tw = oracle_twisted_roots(a, h, bases)
    assert tw == list(flat(a, want_tw))
    want_joined = [
        w for w in want_seeds
        if any(invariant_pairing(a, r, t) != 0 for r in w.roots for t in want_tw)
    ]
    assert seeds_meeting(a, seeds, tw) == [flat_seed(a, w) for w in want_joined]
    want_fixed = [r for w in want_joined for r in w.roots]
    fixed = list(flat(a, want_fixed))
    want = flat_seed(a, oracle_assemble(a, want_fixed, want_tw))
    assert assemble_root_subsystem(a, fixed, tw) == want
    for broken, want_broken in (
        ([fixed, tw[:4]], [want_fixed, want_tw[:4]]),
        ([fixed[2:], tw], [want_fixed[2:], want_tw]),
    ):
        with pytest.raises(OrbifoldError):
            oracle_assemble(a, *want_broken)
        with pytest.raises(OrbifoldError):
            assemble_root_subsystem(a, *broken)


def test_fixed_subalgebra_builds_only_root_data_it_can_match(monkeypatch):
    # classification reads each candidate's Cartan matrix from its integer
    # Gram matrix, so it builds no root datum; and a candidate type whose root
    # count differs from the component's cannot match, so its Gram matrix
    # must not be read either
    built, read = [], []
    real_datum, real_gram = orbifold.build_root_datum, orbifold.scaled_gram
    monkeypatch.setattr(orbifold, "build_root_datum", lambda t: built.append(t) or real_datum(t))
    monkeypatch.setattr(orbifold, "scaled_gram", lambda t: read.append(t) or real_gram(t))
    counts = set()
    for name in ("M2", "M4"):
        _, seeds = fixed_subalgebra(*SCENARIOS[name])
        counts |= {len(s.roots) for s in seeds}
    assert built == []
    assert read
    assert [t for t in read if t.num_roots not in counts] == []


def test_classify_simple_system_builds_no_root_datum(monkeypatch):
    # every type up to rank 12, its simple roots listed in reverse, is named
    # from its Gram matrix alone; D3 reads as A3 and B2 as C2
    grams = {}
    for letter in "ABCDEFG":
        for n in range(1, 13):
            try:
                t = SimpleType(letter, n)
            except RootSystemError:
                continue
            grams[t] = build_root_datum(t).gram
    assert len(grams) == 49

    def refuse(t):
        raise AssertionError(f"root datum of {t} built")

    monkeypatch.setattr(orbifold, "build_root_datum", refuse)
    canonical = {T("D3"): T("A3"), T("B2"): T("C2")}
    for t, G in grams.items():
        reverse = [row[::-1] for row in G[::-1]]
        assert classify_simple_system(reverse, t.num_roots) == canonical.get(t, t)


def test_classify_simple_system_rejects_non_crystallographic_gram():
    with pytest.raises(OrbifoldError, match="not a crystallographic"):
        classify_simple_system([[2, -1], [-1, 3]], 6)


@pytest.mark.parametrize("gram,num_roots", [
    ([[2, -2], [-2, 2]], 6),  # affine A1: Cartan entries -2, -2
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 12),  # affine A2: a triangle
    ([[2, -1], [-1, 2]], 8),  # A2's Cartan matrix with a count no rank-2 type has
])
def test_classify_simple_system_rejects_unmatched_cartan(gram, num_roots):
    with pytest.raises(OrbifoldError, match="matches no simple type"):
        classify_simple_system(gram, num_roots)


def test_classify_simple_system_names():
    assert classify_simple_system([[2, -1], [-1, 2]], 6) == T("A2")
    assert classify_simple_system([[2, -3], [-3, 6]], 12) == T("G2")  # G2 at scale 3
    assert classify_simple_system([[4, -2], [-2, 2]], 8) == T("C2")  # B2 reads as C2
