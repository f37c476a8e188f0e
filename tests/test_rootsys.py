import random
from fractions import Fraction

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
    weyl_dimension,
)

F = Fraction
ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A7", "A12",
    "B2", "B3", "B5", "C2", "C3", "C5", "C7",
    "D4", "D5", "D7", "D12", "E6", "E7", "E8", "F4", "G2",
]


def wt(d, *coeffs):
    return d.weight_from_fundamental([F(c) for c in coeffs])


# -- construction and datum invariants ----------------------------------------


@pytest.mark.parametrize("bad", ["E5", "E9", "B1", "C1", "D2", "F5", "G3", "A0"])
def test_invalid_types_rejected(bad):
    with pytest.raises(RootSystemError):
        SimpleType.parse(bad)


def test_rank_cap():
    with pytest.raises(RootSystemError):
        SimpleType("A", 13)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_datum_invariants(name):
    d = build_root_datum(SimpleType.parse(name))
    assert len(d.roots) == d.type.num_roots == d.type.dim - d.rank
    assert oracle.pair(d, d.theta, d.theta) == 2
    assert all(oracle.pair(d, r, r) in (F(2), F(1), F(2, 3)) for r in d.roots)
    # fundamental weight duality: 2(Lambda_j|alpha_i)/(alpha_i|alpha_i) = delta_ij
    for j, w in enumerate(d.fundamental_weights):
        for i in range(d.rank):
            assert coroot_pairing(d, w, i) == (1 if i == j else 0)
    root_set = set(d.roots)
    for r in d.roots:
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
    assert len(d.roots) == 2 and d.dual_coxeter == 2
    alpha = d.simple_roots[0]
    assert d.fundamental_weights[0] == tuple(x / 2 for x in alpha)


def test_g2_gram_convention():
    d = build_root_datum(SimpleType.parse("G2"))
    assert d.gram[0][0] == F(2, 3)
    assert d.gram[1][1] == 2
    assert d.gram[0][1] == -1


def test_e6_gram_convention():
    # chain among nodes 3..6, node 1 tied to 3, node 2 tied to 4
    d = build_root_datum(SimpleType.parse("E6"))
    G = d.gram
    assert all(G[i][i] == 2 for i in range(6))
    edges = {(i + 1, j + 1) for i in range(6) for j in range(6) if i < j and G[i][j] != 0}
    assert edges == {(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)}


def test_e7_gram_convention():
    d = build_root_datum(SimpleType.parse("E7"))
    G = d.gram
    assert all(G[i][i] == 2 for i in range(7))
    edges = {(i + 1, j + 1) for i in range(7) for j in range(7) if i < j and G[i][j] != 0}
    assert edges == {(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7)}


def test_d7_gram_convention():
    d = build_root_datum(SimpleType.parse("D7"))
    G = d.gram
    assert all(G[i][i] == 2 for i in range(7))
    assert G[4][6] == -1 and G[5][6] == 0  # node 7 tied to node 5


def test_c5_gram_convention():
    d = build_root_datum(SimpleType.parse("C5"))
    G = d.gram
    assert [G[i][i] for i in range(5)] == [1, 1, 1, 1, 2]
    assert G[0][1] == F(-1, 2) and G[3][4] == -1


def test_d7_counts():
    d = build_root_datum(SimpleType.parse("D7"))
    assert len(d.roots) == 84 and d.dual_coxeter == 12


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
                alpha = d.simple_roots[i]
                for k in range(1, int(m) + 1):
                    nu = tuple(x - k * a for x, a in zip(mu, alpha))
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
    lam = d.fundamental_weights[0]
    assert weight_support(d, lam) == {lam, tuple(-x for x in lam)}


def test_support_e6_adjoint():
    d = build_root_datum(SimpleType.parse("E6"))
    sup = weight_support(d, d.theta)
    assert len(sup) == 73
    assert sup == set(d.roots) | {tuple(F(0) for _ in range(6))}


def test_support_g2_seven_dim():
    d = build_root_datum(SimpleType.parse("G2"))
    sup = weight_support(d, d.fundamental_weights[0])
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


def test_support_contains():
    d = build_root_datum(SimpleType.parse("A2"))
    lam = d.theta
    assert support_contains(d, lam, tuple(F(0) for _ in range(2)))
    assert not support_contains(d, lam, wt(d, 2, 2))


def test_support_contains_rejects_wrong_arity():
    d = build_root_datum(SimpleType.parse("A2"))
    with pytest.raises(RootSystemError):
        support_contains(d, d.theta, (F(0), F(0), F(5)))


def test_min_pairing_rejects_wrong_arity():
    d = build_root_datum(SimpleType.parse("A2"))
    with pytest.raises(RootSystemError):
        min_pairing(d, (F(1, 2),), d.theta)


# -- dimensions ----------------------------------------------------------------


def test_weyl_dimension_trivial_and_adjoint():
    for name in ("A1", "C5", "E6", "G2"):
        d = build_root_datum(SimpleType.parse(name))
        assert weyl_dimension(d, tuple(F(0) for _ in range(d.rank))) == 1
        assert weyl_dimension(d, d.theta) == d.type.dim


def test_weyl_dimension_values():
    d = build_root_datum(SimpleType.parse("E7"))
    assert weyl_dimension(d, d.theta) == 133
    d = build_root_datum(SimpleType.parse("A4"))
    assert weyl_dimension(d, d.theta) == 24
    d = build_root_datum(SimpleType.parse("E6"))
    assert weyl_dimension(d, d.fundamental_weights[0]) == 27


def test_support_size_vs_dimension():
    # all A_n fundamentals are minuscule: support size equals the dimension
    for n in (2, 3, 4, 5):
        d = build_root_datum(SimpleType.parse(f"A{n}"))
        for j in range(n):
            lam = d.fundamental_weights[j]
            assert len(weight_support(d, lam)) == weyl_dimension(d, lam)
    # the G2 adjoint has a weight of multiplicity two
    d = build_root_datum(SimpleType.parse("G2"))
    assert len(weight_support(d, d.theta)) < weyl_dimension(d, d.theta)


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
        lam = d.fundamental_weights[j - 1]
        assert len(weight_support(d, lam)) == weyl_dimension(d, lam), (name, j)


def test_support_of_d12_with_a_large_box():
    # Lambda_1 + Lambda_11 of D12: 26 624 weights in a box of 29 million points
    d = build_root_datum(SimpleType.parse("D12"))
    lam = wt(d, 1, *[0] * 9, 1, 0)
    assert oracle.box_size(d, lam) > 29 * 10**6
    sup = weight_support(d, lam)
    assert len(sup) == 26624
    # the dominant weights below lam are lam and Lambda_12 = lam - (e_1 - e_12)
    assert lam in sup and d.fundamental_weights[11] in sup


# -- minimum pairings ----------------------------------------------------------


def test_min_pairing_zero_h():
    d = build_root_datum(SimpleType.parse("C3"))
    zero = tuple(F(0) for _ in range(3))
    assert min_pairing(d, zero, d.theta) == 0


def test_min_pairing_e6_twist_vector():
    d = build_root_datum(SimpleType.parse("E6"))
    h = wt(d, F(1, 2), 0, 0, 0, 0, F(-1, 2))
    assert min_pairing(d, h, d.theta) == F(-1, 2)


def test_min_pairing_negation_on_adjoint():
    for name in ("A3", "D4", "G2"):
        d = build_root_datum(SimpleType.parse(name))
        h = d.fundamental_weights[0]
        neg_h = tuple(-x for x in h)
        sup = weight_support(d, d.theta)
        assert min_pairing(d, neg_h, d.theta) == -max(oracle.pair(d, h, mu) for mu in sup)


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
    lam = d.theta if lc == "theta" else wt(d, *lc)
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
    roots, fund, rho, theta = oracle.datum(d.type)
    assert d.roots == roots
    assert d.iroots == [tuple(map(int, r)) for r in roots]
    assert d.positive_roots == [r for r in roots if sum(r) > 0]
    assert d.fundamental_weights == fund
    assert d.rho == rho
    assert d.theta == theta
    # F / N = (Lambda_i|Lambda_j), with N the least common denominator
    rows = [oracle.gram_row(d, u) for u in fund]
    pairings = [[sum(a * b for a, b in zip(row, v)) for v in fund] for row in rows]
    assert [[F(x, d.fund_gram_den) for x in row] for row in d.fund_gram] == pairings
    assert d.fund_gram_den == max(x.denominator for row in pairings for x in row)
    assert all(F(x) == oracle.pair(d, theta, w) for x, w in zip(d.comarks, fund))


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_root_rows_and_coroots_match_their_products(name):
    # both are read off the labels of the orbit walk, not multiplied out
    d = RootDatum(SimpleType.parse(name))
    assert d.root_rows == [d.scaled_row(r) for r in d.iroots]
    # alpha^vee = 2 alpha / (alpha|alpha) in the basis of simple coroots
    coroots = []
    for r in d.positive_roots:
        norm = oracle.pair(d, r, r)
        coroots.append(tuple(a * n / norm for a, n in zip(r, d.norms)))
    assert d.positive_coroots == coroots


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
