import random
from fractions import Fraction
from functools import cached_property

import pytest

import fraction_oracle as oracle
from fraction_oracle import coroot_pairing, reflect
from orbifold24 import rootsys
from orbifold24.rootsys import (
    MAX_RANK,
    RootDatum,
    RootSystemError,
    SimpleType,
    _bareiss_inverse,
    build_root_datum,
    min_pairing,
    support_contains,
    weight_support,
)

F = Fraction
ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A7", "A12",
    "B2", "B3", "B5", "C2", "C3", "C5", "C7",
    "D4", "D5", "D7", "D12", "E6", "E7", "E8", "F4", "G2",
]


def wt(d, *coeffs):
    return d.weight_from_fundamental([F(c) for c in coeffs])


def fund(d):
    """The fundamental weights of d's type, from the Fraction oracle."""
    return oracle.datum(d.type)[1]


def theta(d):
    """The highest root of d's type, from the Fraction oracle."""
    return oracle.datum(d.type)[3]


# -- construction and datum invariants ----------------------------------------


@pytest.mark.parametrize("bad", ["E5", "E9", "B1", "C1", "D2", "F5", "G3", "A0"])
def test_invalid_types_rejected(bad):
    with pytest.raises(RootSystemError):
        SimpleType.parse(bad)


def test_rank_cap():
    with pytest.raises(RootSystemError):
        SimpleType("A", 13)


def test_simple_types_name_each_isomorphism_class_once():
    listed = [t for n in range(MAX_RANK + 2) for t in rootsys.simple_types(n)]
    # the 49 types up to rank 12 less B2 and D3, which are C2 and A3
    assert len(listed) == len(set(listed)) == 47
    assert SimpleType("B", 2) not in listed and SimpleType("D", 3) not in listed
    assert [str(t) for t in rootsys.simple_types(2)] == ["A2", "C2", "G2"]
    assert [str(t) for t in rootsys.simple_types(4)] == ["A4", "B4", "C4", "D4", "F4"]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_datum_invariants(name):
    d = build_root_datum(SimpleType.parse(name))
    assert len(d.iroots) == d.type.num_roots == d.type.dim - d.rank
    assert oracle.pair(d, theta(d), theta(d)) == 2 and theta(d) in d.iroots
    assert all(oracle.pair(d, r, r) in (F(2), F(1), F(2, 3)) for r in d.iroots)
    # fundamental weight duality: 2(Lambda_j|alpha_i)/(alpha_i|alpha_i) = delta_ij
    for j, w in enumerate(d.fund_coords):
        for i in range(d.rank):
            assert coroot_pairing(d, w, i) == (d.fund_den if i == j else 0)
    root_set = set(d.iroots)
    for r in d.iroots:
        assert tuple(-x for x in r) in root_set
        for i in range(d.rank):
            assert reflect(d, r, i) in root_set


@pytest.mark.parametrize(
    "name,hv",
    [("A1", 2), ("A4", 5), ("B3", 5), ("C5", 6), ("D7", 12),
     ("E6", 12), ("E7", 18), ("E8", 30), ("F4", 9), ("G2", 4)],
)
def test_dual_coxeter_numbers(name, hv):
    assert build_root_datum(SimpleType.parse(name)).dual_coxeter == hv


def test_a1_datum():
    d = build_root_datum(SimpleType.parse("A1"))
    assert len(d.iroots) == 2 and d.dual_coxeter == 2
    # Lambda_1 = alpha_1 / 2
    assert (d.fund_den, d.fund_coords) == (2, [(1,)])


def test_g2_gram_convention():
    # gram = igram / scale: (alpha_1|alpha_1) = 2/3, (alpha_2|alpha_2) = 2, (alpha_1|alpha_2) = -1
    d = build_root_datum(SimpleType.parse("G2"))
    assert d.scale == 3 and d.igram == [[2, -3], [-3, 6]]


def test_e6_gram_convention():
    # chain among nodes 3..6, node 1 tied to 3, node 2 tied to 4
    d = build_root_datum(SimpleType.parse("E6"))
    G = d.igram
    assert d.scale == 1 and all(G[i][i] == 2 for i in range(6))
    edges = {(i + 1, j + 1) for i in range(6) for j in range(6) if i < j and G[i][j] != 0}
    assert edges == {(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)}


def test_e7_gram_convention():
    d = build_root_datum(SimpleType.parse("E7"))
    G = d.igram
    assert d.scale == 1 and all(G[i][i] == 2 for i in range(7))
    edges = {(i + 1, j + 1) for i in range(7) for j in range(7) if i < j and G[i][j] != 0}
    assert edges == {(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7)}


def test_d7_gram_convention():
    d = build_root_datum(SimpleType.parse("D7"))
    G = d.igram
    assert d.scale == 1 and all(G[i][i] == 2 for i in range(7))
    assert G[4][6] == -1 and G[5][6] == 0  # node 7 tied to node 5


def test_c5_gram_convention():
    # norms 1, 1, 1, 1, 2 and (alpha_1|alpha_2) = -1/2, (alpha_4|alpha_5) = -1, on scale 2
    d = build_root_datum(SimpleType.parse("C5"))
    G = d.igram
    assert d.scale == 2 and [G[i][i] for i in range(5)] == [2, 2, 2, 2, 4]
    assert G[0][1] == -1 and G[3][4] == -2


def test_d7_counts():
    d = build_root_datum(SimpleType.parse("D7"))
    assert len(d.iroots) == 84 and d.dual_coxeter == 12


# -- weight supports -----------------------------------------------------------


def string_bfs_support(d, lam):
    """Independent oracle: saturation strings downward from the highest weight."""
    lam = tuple(lam)
    seen = {lam}
    queue = [lam]
    while queue:
        mu = queue.pop()
        for i in range(d.rank):
            m = coroot_pairing(d, mu, i)
            if m > 0:
                for k in range(1, int(m) + 1):
                    nu = mu[:i] + (mu[i] - k,) + mu[i + 1:]
                    if nu not in seen:
                        seen.add(nu)
                        queue.append(nu)
    return seen


@pytest.mark.parametrize(
    "name,coeffs",
    [
        ("A2", (2, 1)),
        ("A3", (1, 0, 0)), ("A3", (0, 1, 0)), ("A3", (1, 0, 1)),
        ("G2", (1, 0)), ("G2", (2, 0)), ("G2", (0, 1)),
        ("C3", (1, 0, 0)), ("C3", (0, 0, 2)),
        ("B3", (0, 0, 1)), ("B3", (1, 1, 0)),
        ("D4", (0, 0, 0, 1)), ("D4", (2, 0, 0, 0)),
        ("E6", (1, 0, 0, 0, 0, 0)),
    ],
)
def test_support_against_string_oracle(name, coeffs):
    d = build_root_datum(SimpleType.parse(name))
    lam = wt(d, *coeffs)
    assert weight_support(d, lam) == string_bfs_support(d, lam)


def test_support_a1():
    d = build_root_datum(SimpleType.parse("A1"))
    lam = fund(d)[0]
    assert weight_support(d, lam) == {lam, tuple(-x for x in lam)}


def test_support_e6_adjoint():
    d = build_root_datum(SimpleType.parse("E6"))
    sup = weight_support(d, theta(d))
    assert len(sup) == 73
    assert sup == set(d.iroots) | {tuple(F(0) for _ in range(6))}


def test_support_g2_seven_dim():
    d = build_root_datum(SimpleType.parse("G2"))
    sup = weight_support(d, fund(d)[0])
    assert len(sup) == 7
    assert tuple(F(0) for _ in range(2)) in sup
    assert sum(1 for mu in sup if oracle.pair(d, mu, mu) == F(2, 3)) == 6


def test_support_weyl_invariance():
    for name, coeffs in [("A3", (1, 0, 1)), ("G2", (0, 1)), ("C3", (0, 1, 0))]:
        d = build_root_datum(SimpleType.parse(name))
        sup = weight_support(d, wt(d, *coeffs))
        for i in range(d.rank):
            assert {reflect(d, mu, i) for mu in sup} == sup


def test_support_rejects_non_dominant():
    d = build_root_datum(SimpleType.parse("A2"))
    with pytest.raises(RootSystemError):
        weight_support(d, wt(d, -1, 0))
    with pytest.raises(RootSystemError):
        weight_support(d, wt(d, F(1, 2), 0))


@pytest.mark.parametrize("query", [
    lambda d, lam: weight_support(d, lam),
    lambda d, lam: min_pairing(d, wt(d, F(1, 2), 0), lam),
    lambda d, lam: support_contains(d, lam, wt(d, 0, 0)),
], ids=["weight_support", "min_pairing", "support_contains"])
@pytest.mark.parametrize("labels,text", [
    ((F(1, 2), 0), "(1/2, 0)"),
    ((-1, 1), "(-1, 1)"),
    ((F(-2, 3), F(4, 3)), "(-2/3, 4/3)"),
])
def test_not_dominant_integral_error_prints_the_labels(query, labels, text):
    d = build_root_datum(SimpleType.parse("A2"))
    with pytest.raises(RootSystemError) as err:
        query(d, wt(d, *labels))
    assert str(err.value) == f"A2: weight {text} is not dominant integral"


def test_support_contains():
    d = build_root_datum(SimpleType.parse("A2"))
    lam = theta(d)
    assert support_contains(d, lam, tuple(F(0) for _ in range(2)))
    assert not support_contains(d, lam, wt(d, 2, 2))


def test_support_contains_rejects_wrong_arity():
    d = build_root_datum(SimpleType.parse("A2"))
    with pytest.raises(RootSystemError):
        support_contains(d, theta(d), (F(0), F(0), F(5)))


def test_min_pairing_rejects_wrong_arity():
    d = build_root_datum(SimpleType.parse("A2"))
    with pytest.raises(RootSystemError):
        min_pairing(d, (F(1, 2),), theta(d))


# -- dimensions ----------------------------------------------------------------


def test_support_size_vs_dimension():
    # all A_n fundamentals are minuscule: support size equals the dimension
    for n in (2, 3, 4, 5):
        d = build_root_datum(SimpleType.parse(f"A{n}"))
        for j in range(n):
            lam = fund(d)[j]
            assert len(weight_support(d, lam)) == oracle.weyl_dimension(d, lam)
    # the G2 adjoint, the module of highest weight theta, has a weight of multiplicity two
    d = build_root_datum(SimpleType.parse("G2"))
    assert len(weight_support(d, theta(d))) < d.type.dim


# the minuscule weights (Bourbaki numbering) of every type up to rank 12
MINUSCULE = (
    [(f"A{n}", j) for n in range(1, MAX_RANK + 1) for j in range(1, n + 1)]
    + [(f"B{n}", n) for n in range(2, MAX_RANK + 1)]
    + [(f"C{n}", 1) for n in range(2, MAX_RANK + 1)]
    + [(f"D{n}", j) for n in range(3, MAX_RANK + 1) for j in (1, n - 1, n)]
    + [("E6", 1), ("E6", 6), ("E7", 7)]
)


def test_support_size_is_dimension_on_every_minuscule_weight():
    # every weight of a minuscule module has multiplicity one
    assert len(MINUSCULE) == 133
    for name, j in MINUSCULE:
        d = build_root_datum(SimpleType.parse(name))
        lam = fund(d)[j - 1]
        assert len(weight_support(d, lam)) == oracle.weyl_dimension(d, lam), (name, j)


def test_support_of_d12_with_a_large_box():
    # Lambda_1 + Lambda_11 of D12: 26 624 weights in a box of 29 million points
    d = build_root_datum(SimpleType.parse("D12"))
    lam = wt(d, 1, *[0] * 9, 1, 0)
    assert oracle.box_size(d, lam) > 29 * 10**6
    sup = weight_support(d, lam)
    assert len(sup) == 26624
    # the dominant weights below lam are lam and Lambda_12 = lam - (e_1 - e_12)
    assert lam in sup and fund(d)[11] in sup


# -- minimum pairings ----------------------------------------------------------


def test_min_pairing_zero_h():
    d = build_root_datum(SimpleType.parse("C3"))
    zero = tuple(F(0) for _ in range(3))
    assert min_pairing(d, zero, theta(d)) == 0


def test_min_pairing_e6_twist_vector():
    d = build_root_datum(SimpleType.parse("E6"))
    h = wt(d, F(1, 2), 0, 0, 0, 0, F(-1, 2))
    assert min_pairing(d, h, theta(d)) == F(-1, 2)


def test_min_pairing_negation_on_adjoint():
    for name in ("A3", "D4", "G2"):
        d = build_root_datum(SimpleType.parse(name))
        h = fund(d)[0]
        neg_h = tuple(-x for x in h)
        sup = weight_support(d, theta(d))
        assert min_pairing(d, neg_h, theta(d)) == -max(oracle.pair(d, h, mu) for mu in sup)


LEMMA_BOUNDS = [
    # type, h (fundamental coeffs), lambda (fundamental coeffs or "theta"), bound
    ("E6", (F(1, 2), 0, 0, 0, 0, F(-1, 2)), "theta", F(-1, 2)),
    ("G2", (0, F(1, 2)), "theta", -1),
    ("G2", (0, F(1, 2)), (1, 0), F(-1, 2)),
    ("G2", (0, F(1, 2)), (2, 0), -1),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), "theta", F(-1, 2)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 0, 1, 0, 0, 0, 0), F(-1, 2)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 0, 0, 0, 1, 0, 0), F(-1, 2)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 0, 0, 0, 0, 1, 1), F(-1, 2)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (1, 0, 1, 0, 0, 0, 0), -1),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (1, 0, 0, 0, 1, 0, 0), -1),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (1, 0, 0, 0, 0, 1, 1), -1),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (3, 0, 0, 0, 0, 0, 0), F(-3, 2)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (1, 0, 0, 0, 0, 1, 0), F(-3, 4)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (1, 0, 0, 0, 0, 0, 1), F(-3, 4)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 0, 0, 1, 0, 1, 0), F(-3, 4)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 0, 0, 1, 0, 0, 1), F(-3, 4)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 0, 0, 0, 0, 3, 0), F(-3, 4)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 0, 0, 0, 0, 0, 3), F(-3, 4)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 1, 0, 0, 0, 1, 0), F(-3, 4)),
    ("D7", (0, 0, 0, 0, 0, F(1, 2), F(-1, 2)), (0, 1, 0, 0, 0, 0, 1), F(-3, 4)),
    ("A3", (1, 0, 0), "theta", -1),
    ("A3", (1, 0, 0), (1, 0, 0), F(-1, 4)),
    ("A3", (1, 0, 0), (0, 1, 0), F(-1, 2)),
    ("A3", (1, 0, 0), (0, 0, 1), F(-3, 4)),
    ("E7", (0, F(1, 2), 0, 0, 0, 0, 0), "theta", -1),
    ("A5", (0, 0, F(1, 2), 0, 0), "theta", F(-1, 2)),
    ("C5", (0, 0, 0, 0, F(1, 2)), "theta", F(-1, 2)),
    ("A1", (F(1, 2),), "theta", F(-1, 2)),
]


@pytest.mark.parametrize("name,hc,lc,bound", LEMMA_BOUNDS)
def test_weight_bound_lemmas(name, hc, lc, bound):
    d = build_root_datum(SimpleType.parse(name))
    h = wt(d, *hc)
    lam = theta(d) if lc == "theta" else wt(d, *lc)
    assert min_pairing(d, h, lam) >= bound


# -- the integer datum against the Fraction oracle ------------------------------

EVERY_TYPE = (
    [f"A{n}" for n in range(1, MAX_RANK + 1)]
    + [f"{x}{n}" for x in "BC" for n in range(2, MAX_RANK + 1)]
    + [f"D{n}" for n in range(3, MAX_RANK + 1)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_integer_datum_matches_fraction_oracle(name):
    # a fresh datum: the label orbits and the Bareiss inverse, not a cached one
    d = RootDatum(SimpleType.parse(name))
    roots, weights, _, top = oracle.datum(d.type)
    assert d.iroots == [tuple(map(int, r)) for r in roots]
    # F / N = (Lambda_i|Lambda_j), with N the least common denominator
    rows = [oracle.gram_row(d, u) for u in weights]
    pairings = [[sum(a * b for a, b in zip(row, v)) for v in weights] for row in rows]
    assert [[F(x, d.fund_gram_den) for x in row] for row in d.fund_gram] == pairings
    assert d.fund_gram_den == max(x.denominator for row in pairings for x in row)
    assert all(F(x) == oracle.pair(d, top, w) for x, w in zip(d.comarks, weights))


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_root_rows_and_coroots_match_their_products(name):
    # the rows are read off the labels of the orbit walk, not multiplied out
    d = RootDatum(SimpleType.parse(name))
    assert d.root_rows == [d.scaled_row(r) for r in d.iroots]
    # and weight_support reads a root's labels <alpha, alpha_j^vee> =
    # 2 (alpha|alpha_j)/(alpha_j|alpha_j) back off its row
    diag = [row[j] for j, row in enumerate(d.igram)]
    assert [tuple(F(2 * x, g) for x, g in zip(row, diag)) for row in d.root_rows] == [
        tuple(coroot_pairing(d, r, j) for j in range(d.rank)) for r in d.iroots
    ]


def leaves(x):
    """Everything in x that is not a list, tuple or set, at any depth."""
    if isinstance(x, (list, tuple, set, frozenset)):
        return [leaf for item in x for leaf in leaves(item)]
    return [x]


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_root_datum_holds_integers_only(name):
    # every member, those built on first read included, is made of ints:
    # the Fraction forms of the root data live in the tests' oracle
    d = RootDatum(SimpleType.parse(name))
    cached = [k for k, v in vars(RootDatum).items() if isinstance(v, cached_property)]
    assert {"fund_den", "fund_coords", "fund_gram_den", "fund_gram"} <= set(cached)
    for k in cached:
        getattr(d, k)
    assert set(cached) <= set(vars(d))
    members = [v for k, v in vars(d).items() if k != "type"]
    assert type(d.type) is SimpleType and {type(x) for x in leaves(members)} == {int}


def test_asymmetric_weight_gram_is_refused_on_its_first_read(monkeypatch):
    def skewed(M):
        p, R = real(M)
        R[0][1] += 1
        return p, R

    real = rootsys._bareiss_inverse
    monkeypatch.setattr(rootsys, "_bareiss_inverse", skewed)
    d = RootDatum(SimpleType.parse("A3"))  # construction builds no weight data
    assert "fund_gram" not in vars(d)
    with pytest.raises(RootSystemError, match="A3: the fundamental weights' Gram matrix"):
        d.fund_gram


def test_bareiss_inverse_against_fractions():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            p, R = _bareiss_inverse(M)
        except RootSystemError:
            # singular: the rows are dependent, so the Fraction elimination fails too
            with pytest.raises(StopIteration):
                oracle.solve(M, [])
            continue
        for i in range(n):
            for j in range(n):
                assert sum(F(M[i][k]) * F(R[k][j], p) for k in range(n)) == (i == j)
