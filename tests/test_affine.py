from fractions import Fraction

import pytest

from orbifold24.affine import (
    AffineLabel,
    HVector,
    ProductAlgebra,
    ProductLabel,
    conformal_weight,
    enumerate_modules,
    integral_spectrum_table,
    module_certificates,
    product_twisted_lowest,
    spectrum_half_integral,
    twisted_lowest,
    twisted_positivity_certificate,
)
import fraction_oracle as oracle
from orbifold24 import affine, rootsys
from orbifold24.cli import _bundled_scenarios, module_table_text, product_table_text
from orbifold24.scenarios import run_scenario
from orbifold24.rootsys import (
    RootDatum,
    RootSystemError,
    SimpleType,
    build_root_datum,
    min_pairing,
    support_contains,
)

F = Fraction

MODULE_COUNTS = [
    ("E6", 3, 20),
    ("D7", 3, 36),
    ("E7", 3, 12),
    ("C5", 3, 56),
    ("A5", 1, 6),
    ("A3", 1, 4),
    ("G2", 1, 2),
    ("G2", 2, 4),
    ("A1", 1, 2),
]


@pytest.mark.parametrize("name,level,count", MODULE_COUNTS)
def test_module_counts(name, level, count):
    assert len(enumerate_modules(SimpleType.parse(name), level)) == count


def test_module_order_is_lexicographic():
    mods = enumerate_modules(SimpleType.parse("G2"), 2)
    assert [m.coeffs for m in mods] == [(0, 0), (0, 1), (1, 0), (2, 0)]


def test_admissibility_enforced():
    with pytest.raises(RootSystemError):
        AffineLabel(SimpleType.parse("G2"), 1, (0, 1))  # (theta|lambda)=2 > 1
    with pytest.raises(RootSystemError):
        AffineLabel(SimpleType.parse("A1"), 1, (2,))
    with pytest.raises(RootSystemError):
        AffineLabel(SimpleType.parse("A1"), 0, (0,))


@pytest.mark.parametrize(
    "table,name,level",
    [
        ("e6_3", "E6", 3),
        ("g2_1", "G2", 1),
        ("g2_2", "G2", 2),
        ("d7_3", "D7", 3),
        ("a3_1", "A3", 1),
        ("e7_3", "E7", 3),
        ("a5_1", "A5", 1),
        ("c5_3", "C5", 3),
        ("a1_1", "A1", 1),
    ],
)
def test_conformal_weight_tables_match_golden(golden, table, name, level):
    assert module_table_text(name, level) == golden(table)


def test_conformal_weight_examples():
    assert conformal_weight(AffineLabel(SimpleType.parse("E6"), 3, (1, 0, 0, 0, 0, 0))) == F(26, 45)
    assert conformal_weight(AffineLabel(SimpleType.parse("D7"), 3, (0, 0, 0, 0, 0, 1, 0))) == F(91, 120)
    assert conformal_weight(AffineLabel(SimpleType.parse("C5"), 3, (0, 0, 0, 0, 0))) == 0


def test_spinor_pair_weights_agree():
    # the two D7 spinor-type labels always share a conformal weight
    d7 = SimpleType.parse("D7")
    pairs = [
        ((0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1)),
        ((1, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0, 1)),
        ((0, 0, 0, 0, 0, 2, 1), (0, 0, 0, 0, 0, 1, 2)),
        ((0, 0, 0, 0, 0, 3, 0), (0, 0, 0, 0, 0, 0, 3)),
    ]
    for a, b in pairs:
        assert conformal_weight(AffineLabel(d7, 3, a)) == conformal_weight(AffineLabel(d7, 3, b))


# -- integral-spectrum tables ---------------------------------------------------


def test_integral_table_e63(golden):
    text = product_table_text((("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1)), 3, None)
    assert text == golden("t_e63_g21_3")


def test_integral_table_d73(golden):
    text = product_table_text((("D7", 3), ("A3", 1), ("G2", 1)), 3, None)
    assert text == golden("t_d73_a31_g21")


def test_integral_table_e73(golden):
    text = product_table_text((("E7", 3), ("A5", 1)), 3, None)
    assert text == golden("t_e73_a51")


def test_integral_table_c53(golden):
    text = product_table_text((("C5", 3), ("G2", 2), ("A1", 1)), 4, (2, 3, 4))
    assert text == golden("t_c53_g22_a11")


def test_table_symmetry_under_slot_permutation():
    # equal-level G2 slots can be permuted: the label multiset is symmetric
    a = ProductAlgebra.of(("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1))
    table = {lbl.coeffs for lbl, _ in integral_spectrum_table(a, 3)}
    for lbl in list(table):
        e6, g1, g2, g3 = lbl
        assert (e6, g2, g3, g1) in table
        assert (e6, g3, g1, g2) in table


M1_ALGEBRA = ProductAlgebra.of(("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1))
M1_H = HVector.from_fundamental(
    M1_ALGEBRA, [[F(1, 2), 0, 0, 0, 0, F(-1, 2)], [0, F(1, 2)], [0, F(1, 2)], [0, 0]]
)


def test_h_rejects_extra_components():
    a = ProductAlgebra.of(("A1", 1), ("A2", 1))
    with pytest.raises(RootSystemError):
        HVector.from_fundamental(a, [[F(1, 2)], [0, F(1, 2)], [7, 7, 7]])


def test_h_norm_invariant():
    assert M1_H.norm_invariant() == 2


def test_product_twisted_lowest_vacuum_is_one():
    table = integral_spectrum_table(M1_ALGEBRA, 3)
    vacuum = table[0][0]
    assert all(c == 0 for cs in vacuum.coeffs for c in cs)
    assert product_twisted_lowest(vacuum, M1_H) == 1


def test_product_twisted_lowest_all_at_least_one():
    for lbl, _ in integral_spectrum_table(M1_ALGEBRA, 3):
        assert product_twisted_lowest(lbl, M1_H) >= 1


def test_twisted_lowest_weight_one_for_second_scenario():
    # the twisted module over the D7,3 A3,1 G2,1 algebra has lowest weight 1:
    # the vacuum reaches it and no integral-table module dips below
    a = ProductAlgebra.of(("D7", 3), ("A3", 1), ("G2", 1))
    h = HVector.from_fundamental(
        a, [[0, 0, 0, 0, 0, F(1, 2), F(-1, 2)], [1, 0, 0], [0, F(1, 2)]]
    )
    values = [product_twisted_lowest(lbl, h) for lbl, _ in integral_spectrum_table(a, 3)]
    assert min(values) == 1
    assert values[0] == 1  # the vacuum label comes first


def test_product_twisted_lowest_zero_h_degenerates():
    zero = HVector.from_fundamental(M1_ALGEBRA, [[0] * 6, [0, 0], [0, 0], [0, 0]])
    for lbl, w in integral_spectrum_table(M1_ALGEBRA, 3):
        assert product_twisted_lowest(lbl, zero) == w


def test_spectrum_half_integral():
    labels = [lbl for lbl, _ in integral_spectrum_table(M1_ALGEBRA, 3)]
    assert spectrum_half_integral(M1_ALGEBRA, M1_H, labels)
    zero = HVector.from_fundamental(M1_ALGEBRA, [[0] * 6, [0, 0], [0, 0], [0, 0]])
    assert spectrum_half_integral(M1_ALGEBRA, zero, labels)
    e7a5 = ProductAlgebra.of(("E7", 3), ("A5", 1))
    h = HVector.from_fundamental(e7a5, [[0, F(1, 2), 0, 0, 0, 0, 0], [0, 0, F(1, 2), 0, 0]])
    labels = [lbl for lbl, _ in integral_spectrum_table(e7a5, 3)]
    assert spectrum_half_integral(e7a5, h, labels)


def test_spectrum_half_integral_detects_failure():
    a1 = ProductAlgebra.of(("A1", 1))
    h = HVector.from_fundamental(a1, [[F(1, 3)]])
    labels = [lbl for lbl, _ in integral_spectrum_table(a1, 0)]
    assert not spectrum_half_integral(a1, h, labels)


ALGEBRA_SCENARIOS = [sc for sc in _bundled_scenarios() if not sc.lattice]


@pytest.mark.parametrize("sc", ALGEBRA_SCENARIOS, ids=lambda sc: sc.name)
def test_product_sums_match_fraction_oracle(sc):
    # the integer numerators on one lcm against Fraction sums over the factors,
    # on each bundled algebra, with a maximum weight and with a set of weights;
    # and the certificates of every factor module, as run_scenario reads them
    a, h, top = sc.algebra, sc.h, sc.table_max_weight
    for max_weight, weights in ((top, None), (top, frozenset({F(2), top})), (F(5, 2), None)):
        table = integral_spectrum_table(a, max_weight, weights)
        assert [(lbl.coeffs, w) for lbl, w in table] == oracle.integral_spectrum_table(
            a, max_weight, weights)
    labels = [lbl for lbl, _ in integral_spectrum_table(a, top, sc.table_weights)]
    # h, and h/2, which leaves the half-integral grading
    halves = tuple(d.integral(tuple(x / 2 for x in c)) for d, c in zip(a.data, oracle.h_components(h)))
    for g in (h, HVector(a, halves)):
        assert g.norm_invariant() == oracle.norm_invariant(a, g)
        assert [product_twisted_lowest(lbl, g) for lbl in labels] == [
            oracle.product_twisted_lowest(a, lbl.coeffs, g) for lbl in labels]
        assert spectrum_half_integral(a, g, labels) == oracle.spectrum_half_integral(
            a, g, [lbl.coeffs for lbl in labels])
        certs = module_certificates(a, g)
        assert certs == [(m, twisted_positivity_certificate(m, comp))
                         for (t, k), comp in zip(a.factors, oracle.h_components(g))
                         for m in enumerate_modules(t, k)]
        assert [(c.kind, c.witness) for _, c in certs] == [
            oracle.certificate(m.datum, m.coeffs, m.level, comp)
            for (t, k), comp in zip(a.factors, oracle.h_components(g))
            for m in enumerate_modules(t, k)]


def test_half_integral_labels_are_checked_past_the_roots():
    # h = Lambda_1/2 of A1 pairs to 1/2 with the root but to 1/4 with Lambda_1
    a = ProductAlgebra.of(("A1", 1), ("A1", 1))
    h = HVector.from_fundamental(a, [[F(1, 2)], [0]])
    for coeffs in ([(0,), (0,)], [(0,), (1,)], [(1,), (0,)]):
        lbl = ProductLabel(a, tuple(AffineLabel(t, k, c) for (t, k), c in zip(a.factors, coeffs)))
        assert spectrum_half_integral(a, h, [lbl]) == oracle.spectrum_half_integral(a, h, [coeffs])
    assert not spectrum_half_integral(a, h, [lbl])


# -- twisted positivity certificates --------------------------------------------


def test_certificate_vacuum():
    t = SimpleType.parse("A3")
    m = AffineLabel(t, 1, (0, 0, 0))
    zero = tuple(F(0) for _ in range(3))
    cert = twisted_positivity_certificate(m, zero)
    assert cert.kind == "zero_with_witness" and cert.witness == "vacuum"


def test_certificate_fundamental_zero():
    t = SimpleType.parse("A3")
    m = AffineLabel(t, 1, (1, 0, 0))
    h = tuple(-x for x in oracle.datum(t)[1][0])
    cert = twisted_positivity_certificate(m, h)
    assert cert.kind == "zero_with_witness" and cert.witness == "j=1"
    assert twisted_lowest(m, h) == 0


def test_certificate_positive():
    t = SimpleType.parse("E6")
    m = AffineLabel(t, 3, (1, 0, 0, 0, 0, 0))
    d = m.datum
    h = d.weight_from_fundamental([F(1, 2), 0, 0, 0, 0, F(-1, 2)])
    cert = twisted_positivity_certificate(m, h)
    assert cert.kind == "positive" and cert.value > 0


def test_certificate_precondition_violation_reported():
    t = SimpleType.parse("A1")
    m = AffineLabel(t, 1, (1,))
    h = tuple(-x for x in oracle.datum(t)[3])  # (h|theta) = -2 < -1
    assert twisted_positivity_certificate(m, h).kind == "precondition_violated"


@pytest.mark.parametrize("h", [(F(-1), F(-1), F(5)), (F(-3),)])
def test_certificate_rejects_h_of_wrong_length(h):
    # (-1, -1) alone pairs to -2 with theta; the extra coordinate must not be dropped
    m = AffineLabel(SimpleType.parse("A2"), 1, (1, 0))
    with pytest.raises(RootSystemError):
        twisted_positivity_certificate(m, h)


def test_certificates_nonnegative_over_all_scenario_pairs():
    cases = [
        ("E6", 3, [F(1, 2), 0, 0, 0, 0, F(-1, 2)]),
        ("G2", 1, [0, F(1, 2)]),
        ("D7", 3, [0, 0, 0, 0, 0, F(1, 2), F(-1, 2)]),
        ("A3", 1, [1, 0, 0]),
        ("E7", 3, [0, F(1, 2), 0, 0, 0, 0, 0]),
        ("A5", 1, [0, 0, F(1, 2), 0, 0]),
        ("C5", 3, [0, 0, 0, 0, F(1, 2)]),
        ("G2", 2, [0, F(1, 2)]),
        ("A1", 1, [F(1, 2)]),
        ("A4", 5, [0, 0, 0, F(1, 2)]),
    ]
    for name, level, hc in cases:
        t = SimpleType.parse(name)
        for m in enumerate_modules(t, level):
            h = m.datum.weight_from_fundamental(hc)
            cert = twisted_positivity_certificate(m, h)
            assert cert.kind in ("positive", "zero_with_witness"), (name, m.coeffs, cert)


def test_production_path_enumerates_no_support(monkeypatch):
    # the closed forms answer every twisted-sector question of M1 and M3, and
    # root data are built, without the weight-support enumeration
    def enumerate_support(*args):
        raise AssertionError("weight-support enumeration reached")

    monkeypatch.setattr(rootsys, "weight_support", enumerate_support)
    for sc in _bundled_scenarios():
        if sc.name not in ("M1", "M3"):
            continue
        for (t, k), h in zip(sc.algebra.factors, oracle.h_components(sc.h)):
            d = RootDatum(t)
            minus_kh = tuple(-k * x for x in h)
            for m in enumerate_modules(t, k):
                twisted_lowest(m, h)
                twisted_positivity_certificate(m, h)
                support_contains(d, oracle.label_weight(m), minus_kh)


def test_production_path_uses_only_the_integer_kernel(monkeypatch):
    # a Vec enters the integer kernel only through RootDatum.integral (every
    # Vec function of rootsys and affine calls it) and leaves it only through
    # weight_from_fundamental: parsing and running all five bundled
    # scenarios, with fresh root data and twist caches, reaches neither
    def boundary(*args):
        raise AssertionError("Vec boundary helper reached")

    for name in ("integral", "weight_from_fundamental"):
        monkeypatch.setattr(RootDatum, name, boundary)
    rootsys.build_root_datum.cache_clear()
    affine._twist.cache_clear()
    rootsys.neg_dominant.cache_clear()
    try:
        for sc in _bundled_scenarios():
            rep = run_scenario(sc)
            assert rep.passed, "\n".join(rep.lines())
    finally:
        # root data built under the patch are dropped with it
        rootsys.build_root_datum.cache_clear()
        affine._twist.cache_clear()
        rootsys.neg_dominant.cache_clear()


# -- loud failures ------------------------------------------------------------------

A2 = SimpleType.parse("A2")


def a2_weight(*labels):
    return build_root_datum(A2).weight_from_fundamental([F(c) for c in labels])


BAD_QUERIES = {
    # wrong arity of h, lambda or mu
    "min_pairing h too short": lambda d: min_pairing(d, (F(1, 2),), a2_weight(1, 0)),
    "min_pairing h too long": lambda d: min_pairing(d, (F(1, 2), F(0), F(0)), a2_weight(1, 0)),
    "min_pairing lambda too short": lambda d: min_pairing(d, a2_weight(F(1, 2), 0), (F(1),)),
    "support_contains lambda too short": lambda d: support_contains(d, (F(1),), a2_weight(1, 0)),
    "support_contains mu too long": lambda d: support_contains(
        d, a2_weight(1, 0), (F(0), F(0), F(1))),
    "twisted_lowest h too short": lambda d: twisted_lowest(AffineLabel(A2, 1, (1, 0)), (F(1, 2),)),
    "twisted_lowest h too long": lambda d: twisted_lowest(
        AffineLabel(A2, 1, (1, 0)), (F(1, 2), F(0), F(0))),
    "AffineLabel too few labels": lambda d: AffineLabel(A2, 1, (1,)),
    # a non-integral lambda
    "min_pairing lambda non-integral": lambda d: min_pairing(
        d, a2_weight(F(1, 2), 0), a2_weight(F(1, 2), 0)),
    "support_contains lambda non-integral": lambda d: support_contains(
        d, a2_weight(F(1, 2), 0), a2_weight(0, 0)),
    # a non-dominant lambda
    "min_pairing lambda non-dominant": lambda d: min_pairing(
        d, a2_weight(F(1, 2), 0), a2_weight(-1, 1)),
    "support_contains lambda non-dominant": lambda d: support_contains(
        d, a2_weight(-1, 1), a2_weight(0, 0)),
    "AffineLabel non-dominant": lambda d: AffineLabel(A2, 1, (-1, 1)),
    # an inadmissible label, which twisted_lowest can then never receive
    "AffineLabel inadmissible": lambda d: AffineLabel(A2, 1, (1, 1)),
    "twisted_lowest of an inadmissible label": lambda d: twisted_lowest(
        AffineLabel(A2, 1, (2, 0)), a2_weight(F(1, 2), 0)),
    "AffineLabel level 0": lambda d: AffineLabel(A2, 0, (0, 0)),
}


@pytest.mark.parametrize("case", sorted(BAD_QUERIES))
def test_bad_queries_raise(case):
    with pytest.raises(RootSystemError):
        BAD_QUERIES[case](build_root_datum(A2))


def test_affine_label_rejects_non_integral_labels():
    with pytest.raises(RootSystemError):
        AffineLabel(A2, 1, (F(1, 2), 0))
