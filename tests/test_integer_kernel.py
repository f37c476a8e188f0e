"""The integer pairing kernel of RootDatum against exact Fraction oracles.

Every Gram matrix becomes integral once scaled by the lcm of its
denominators, and every root has integer coordinates, so root pairings and
the embedding search run in integers.  Each of them is checked here against
the rational computation it replaced, as is the oracle's Weyl dimension,
which puts its Fraction rows over one denominator.  The
dimension-formula series, the Verlinde check, the shifted-norm minimum and
the fixed-point and twisted-subsystem path of scenario M1 run in integers
too, which the last tests hold them to.
"""

from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest

import fraction_oracle as oracle
from orbifold24 import affine, orbifold, rootsys
from orbifold24.affine import HVector, ProductAlgebra, enumerate_modules
from orbifold24.cli import _bundled_scenarios
from orbifold24.lattice import (
    H_DEN,
    NiemeierLattice,
    dot as lattice_dot,
    in_projected_lattice,
    inner_h,
    min_norm_shifted,
    twist_anomaly,
    twisted_sector_min_shift,
    twisted_weight_one,
)
from orbifold24.orbifold import (
    OrbifoldError,
    SemisimpleShape,
    _block_gram,
    _embedding_cached,
    _embedding_query,
    _search_table,
    assemble_root_subsystem,
    fixed_subalgebra,
    negate,
    seeds_meeting,
    twisted_sector_roots,
    verlinde_simple_current,
)
from orbifold24.qseries import dimension_identities
from orbifold24.scenarios import fixed_shape_A45, parse_scenario, run_scenario
from orbifold24.rootsys import (
    IntWeight,
    MAX_RANK,
    RootDatum,
    RootSystemError,
    SimpleType,
    build_root_datum,
    scaled_gram,
)

F = Fraction
T = SimpleType.parse
TYPES = (
    [f"A{n}" for n in range(1, MAX_RANK + 1)]
    + [f"{x}{n}" for x in "BC" for n in range(2, MAX_RANK + 1)]
    + [f"D{n}" for n in range(3, MAX_RANK + 1)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
SCALE = {"A": 1, "B": 1, "D": 1, "E": 1, "C": 2, "F": 2, "G": 3}  # C2 = B2 has scale 1
# the Fraction oracle pairs every root pair only up to rank 8 (the full D12
# matrix would cost ~18 s); the rank-12 types are checked on sample rows,
# and in full against the dense integer build
FULL_MATRIX_RANK = 8


def dense_root_pairings(d):
    """The pairing matrix by one integer dot product per entry, as it was
    built before the packed rows."""
    return [[sum(map(mul, r, row)) for row in d.root_rows] for r in d.iroots]


def required_gram_from_root_data(target, parts_scaled):
    """The Gram matrix an embedding query asks of the target's roots, as it
    was built from each part's whole root datum, for its scale and integer
    Gram matrix."""
    scale = build_root_datum(target).scale
    total = sum(t.rank for t, _ in parts_scaled)
    G = [[0] * total for _ in range(total)]
    off = 0
    for t, xi in parts_scaled:
        d = build_root_datum(t)
        div = d.scale * xi
        for i, row in enumerate(d.igram):
            for j, g in enumerate(row):
                q, rem = divmod(g * scale, div)
                if rem:
                    return None
                G[off + i][off + j] = q
        off += t.rank
    return G


def sample_rows(n):
    return sorted({0, n // 3, 2 * n // 3, n - 1})


def dot(row, w):
    return sum(x * y for x, y in zip(row, w) if y)


@pytest.mark.parametrize("name", TYPES)
def test_kernel_is_the_scaled_gram(name):
    d = build_root_datum(T(name))
    assert d.scale == (1 if name == "C2" else SCALE[name[0]])
    assert d.igram == [[d.scale * g for g in row] for row in oracle.gram_matrix(d.type)]
    assert all(isinstance(x, int) for row in d.igram for x in row)
    roots, fund, rho, theta = oracle.datum(d.type)
    assert d.iroots == roots
    assert all(isinstance(x, int) for r in d.iroots for x in r)
    # vectors with mixed denominators, not in the root lattice
    v = tuple(x / 2 + y / 3 for x, y in zip(rho, fund[0]))
    u = tuple(x / 5 - y for x, y in zip(theta, fund[-1]))
    row = oracle.gram_row(d, v)
    q, pairings = d.root_pairings(d.integral(v))
    assert q > 0 and all(isinstance(p, int) for p in pairings)
    got = [F(p, q) for p in pairings]
    assert got == [oracle.pair(d, v, a) for a in roots]
    # (v|u) and (v|v) from the integer row of v against the Fraction row
    x, y = d.integral(v), d.integral(u)
    irow = d.scaled_row(x.coords)
    assert F(sum(map(mul, irow, y.coords)), x.den * y.den * d.scale) == dot(row, u)
    assert F(sum(map(mul, irow, x.coords)), x.den * x.den * d.scale) == dot(row, v)
    assert dot(row, u) == oracle.pair(d, u, v)


@pytest.mark.parametrize("name", TYPES)
def test_scaled_gram_is_the_oracle_gram_over_its_lcm(name):
    G = oracle.gram_matrix(T(name))
    L = lcm(*(g.denominator for row in G for g in row))
    assert scaled_gram(T(name)) == (L, tuple(tuple(int(g * L) for g in row) for row in G))


@pytest.mark.parametrize("name", TYPES)
def test_members_built_on_first_read_match_fraction_oracle(name):
    # a fresh datum, so that every member below is built here, on its first read
    d = RootDatum(T(name))
    fund = oracle.datum(d.type)[1]
    # Lambda_j = fund_coords[j] / fund_den, over the least common denominator
    assert d.fund_den == lcm(*(x.denominator for w in fund for x in w))
    assert [tuple(F(x, d.fund_den) for x in w) for w in d.fund_coords] == fund
    pairings = [[oracle.pair(d, u, v) for v in fund] for u in fund]
    assert d.fund_gram_den == lcm(*(x.denominator for row in pairings for x in row))
    assert [[F(x, d.fund_gram_den) for x in row] for row in d.fund_gram] == pairings
    # once read, each is an attribute of the instance
    assert {"fund_den", "fund_coords", "fund_gram_den", "fund_gram"} <= set(vars(d))


@pytest.mark.parametrize("name", TYPES)
def test_positive_labels_are_the_oracle_positive_roots_labels_built_once(name):
    d = RootDatum(T(name))
    assert "positive_labels" not in vars(d)
    positive = [r for r in oracle.datum(d.type)[0] if sum(r) > 0]
    labels = d.positive_labels
    assert labels == [oracle.to_fundamental(d, r) for r in positive]
    assert all(type(x) is int for a in labels for x in a)
    assert d.positive_labels is labels


@pytest.mark.parametrize("name", ["A1", "C3", "G2"])
def test_kernel_rejects_wrong_arity(name):
    d = build_root_datum(T(name))
    short, long = (F(1),) * (d.rank - 1), (F(1),) * (d.rank + 1)
    for bad in (short, long):
        with pytest.raises(RootSystemError):
            d.root_pairings(IntWeight(1, tuple(map(int, bad)), tuple(map(int, bad))))
        with pytest.raises(RootSystemError):
            d.scaled_row(tuple(map(int, bad)))
        with pytest.raises(RootSystemError):
            d.integral(bad)
        with pytest.raises(RootSystemError):
            d.weight_from_fundamental(bad)
        with pytest.raises(RootSystemError):
            d.from_fundamental(bad)


@pytest.mark.parametrize("name", TYPES)
def test_root_pairings_match_fraction_oracle(name):
    d = build_root_datum(T(name))
    P, norms = _search_table(d.type)[:2]
    roots = oracle.datum(d.type)[0]
    n = len(roots)
    assert len(P) == n and norms == [P[i][i] for i in range(n)]
    int_roots = [tuple(map(int, s)) for s in roots]
    if d.rank <= FULL_MATRIX_RANK:
        # every pair: the upper triangle against the oracle, the rest by symmetry
        assert P == [list(col) for col in zip(*P)]
        for i in range(n):
            row = oracle.gram_row(d, roots[i])
            assert P[i][i:] == [d.scale * dot(row, s) for s in int_roots[i:]]
    else:
        for i in sample_rows(n):
            row = oracle.gram_row(d, roots[i])
            assert P[i] == [d.scale * dot(row, s) for s in int_roots]


@pytest.mark.parametrize("name", TYPES)
def test_root_pairings_match_dense_build(name):
    d = build_root_datum(T(name))
    n = len(d.iroots)
    # the negative of root j sits at n-1-j, which the build relies on
    assert all(d.iroots[n - 1 - j] == tuple(-x for x in d.iroots[j]) for j in range(n))
    P, norms = _search_table(d.type)[:2]
    assert P == dense_root_pairings(d)
    assert norms == [P[i][i] for i in range(n)]
    # the packed build needs every entry in one signed byte: Cauchy-Schwarz
    # bounds it by the largest norm, which the diagonal reaches
    assert max(abs(x) for row in P for x in row) == max(norms) <= 6


def _scaled_datum(t, c):
    """The root datum of t with its form scaled by c, for the bound of the packed rows."""
    d = build_root_datum(t)
    scale = lambda rows: [[c * x for x in row] for row in rows]
    return SimpleNamespace(igram=scale(d.igram), iroots=d.iroots, root_rows=scale(d.root_rows))


def test_packed_root_pairings_hold_126_and_refuse_132(monkeypatch):
    g2 = T("G2")
    P = _search_table(g2).rows
    # G2's largest scaled norm is 6: times 21 its entries reach 126, times 22 they reach 132
    monkeypatch.setattr(orbifold, "build_root_datum", lambda t: _scaled_datum(g2, 21))
    assert _search_table.__wrapped__(g2).rows == [[21 * x for x in row] for row in P]
    monkeypatch.setattr(orbifold, "build_root_datum", lambda t: _scaled_datum(g2, 22))
    with pytest.raises(OrbifoldError, match="G2"):
        _search_table.__wrapped__(g2)


# one target per scale: 1, 2 and 3
GRAM_TARGETS = [T(n) for n in ("D12", "C12", "F4", "G2")]
GRAM_PARTS = [T(n) for n in TYPES if T(n).rank <= 8]


@pytest.mark.parametrize("target", GRAM_TARGETS, ids=str)
def test_required_gram_matches_root_data_form(target):
    G = scaled_gram(target)[0]
    for part in GRAM_PARTS:
        for xi in (1, 2, 3):
            key = ((part, xi),)
            assert _block_gram(key, G) == required_gram_from_root_data(target, key), key
    for key in [
        ((T("A2"), 1), (T("A2"), 2)),
        ((T("D4"), 2), (T("A1"), 1), (T("G2"), 1)),
        ((T("B3"), 1), (T("C3"), 2)),
    ]:
        assert _block_gram(key, G) == required_gram_from_root_data(target, key), key


def test_query_builds_no_root_datum_for_its_parts():
    build_root_datum.cache_clear()
    target = build_root_datum(T("D12")).type
    _search_table(target)
    before = build_root_datum.cache_info().currsize
    # the unwrapped query, so that an answer cached by another test cannot hide a build
    assert _embedding_cached.__wrapped__(target, ((T("A5"), 1), (T("A5"), 1)))
    assert not _embedding_cached.__wrapped__(target, ((T("E7"), 1),))
    assert build_root_datum.cache_info().currsize == before


def test_cold_queries_do_no_fraction_arithmetic_and_build_no_weight_data(
    refuse_fraction_arithmetic,
):
    # from cold caches, a query reads the target's roots, their rows and the
    # integer Gram matrices, built in integers; the weight data is left unbuilt
    for cache in (build_root_datum, scaled_gram, _search_table, _embedding_cached):
        cache.cache_clear()
    refuse_fraction_arithmetic()
    for target, parts, want in [
        ("D12", ("A5", "A5"), True),
        ("D12", ("D8", "D4"), True),
        ("D12", ("E7",), False),
        ("E7", ("A5", "A2"), True),
        ("E7", ("D7",), False),
        ("E7", ("E6", "A1"), False),
    ]:
        parts = tuple(map(T, parts))
        assert orbifold.embeds(parts[0] if len(parts) == 1 else parts, T(target)) is want
    for target in ("D12", "E7"):
        assert not {"fund_coords", "fund_gram"} & set(vars(build_root_datum(T(target))))


@pytest.mark.parametrize(
    "target,part,xi,expected",
    [
        ("C3", "A1", 3, False),
        ("G2", "A1", 3, True),
        ("C3", "A2", 2, True),
        ("B3", "A3", 2, False),
        ("F4", "D4", 2, True),
        ("F4", "A2", 2, True),
        ("B3", "A2", 2, False),
    ],
)
def test_level_transfer_queries_scale_the_required_gram(target, part, xi, expected):
    # the part's Gram is divided by xi before it is scaled to the target's
    # integers; a non-integral scaled entry must answer False.  For A2 with
    # xi = 2 in B3 the off-diagonal -1/2 would round to -1, which the short
    # roots e1 and -e1 of B3 do have.
    assert _embedding_query(T(target), (T(part),), (xi,)) is expected


@pytest.mark.parametrize("name", [t for t in TYPES if T(t).rank <= 8])
def test_weyl_dimension_matches_fraction_product(name):
    # the oracle's Weyl dimension, which the support tests' size filters read
    d = build_root_datum(T(name))
    roots, _, rho, theta = oracle.datum(d.type)
    positive = [tuple(map(int, a)) for a in roots if sum(a) > 0]
    den = F(1)
    for a in positive:
        den *= dot(oracle.gram_row(d, rho), a)
    for m in enumerate_modules(d.type, 2):
        lam = oracle.label_weight(m)
        row = oracle.gram_row(d, [x + y for x, y in zip(lam, rho)])
        num = F(1)
        for a in positive:
            num *= dot(row, a)
        assert oracle.weyl_dimension(d, lam) == num / den
    assert oracle.weyl_dimension(d, (F(0),) * d.rank) == 1
    assert oracle.weyl_dimension(d, theta) == d.type.dim


def test_coroot_pairing_stays_a_fraction():
    d = build_root_datum(T("C3"))
    for v in [(0, 0, 0), (1, 2, 3), (F(1, 2), 0, F(-3, 2))]:
        for i in range(d.rank):
            c = oracle.coroot_pairing(d, v, i)
            assert isinstance(c, Fraction)
            # 2 (v|alpha_i) / (alpha_i|alpha_i) from the integer Gram matrix, whose scale cancels
            assert c == 2 * sum(x * row[i] for x, row in zip(v, d.igram)) / F(d.igram[i][i])


def test_series_verlinde_and_shifted_minimum_do_no_fraction_arithmetic(refuse_fraction_arithmetic):
    # Fractions may be built and compared at the boundary, but never added,
    # multiplied or divided: each of these three kernels runs in integers
    N, h = NiemeierLattice(), inner_h()
    refuse_fraction_arithmetic()
    assert dimension_identities(120, 72, 0) == (120, 98580)
    assert dimension_identities(24, 24, 2) == (24, 98580 + 2**12)
    for a in (1, -1):
        assert verlinde_simple_current.__wrapped__(a)[2][2] == (1, 0, 0, 0)
    assert min_norm_shifted(N, h, 4) == 2
    assert min_norm_shifted(N, h, 1) is None


def test_fixed_points_and_twisted_subsystem_do_no_fraction_arithmetic(refuse_fraction_arithmetic):
    # scenario M1's merge of the twisted roots with the fixed A1,1^2 into an
    # A3,1 runs on integer product weights, from h's root pairings onwards
    a = ProductAlgebra.of(("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1))
    h = HVector.from_fundamental(a, [[F(1, 2), 0, 0, 0, 0, F(-1, 2)], [0, F(1, 2)], [0, F(1, 2)], [0, 0]])
    bases = [
        a.int_weights([[0] * 6, g1, g2, [0, 0]])
        for g1 in ([0, 0], [0, -1]) for g2 in ([0, 0], [0, -1])
    ]
    for t in TYPES:  # classification reads the Gram matrices of candidate types
        scaled_gram(T(t))
    refuse_fraction_arithmetic()
    shape, seeds = fixed_subalgebra(a, h)
    assert shape == SemisimpleShape.parse("D5,3 A1,1^2 A1,3^2 G2,1 U(1)")
    tw = twisted_sector_roots(a, h, bases)
    tw = tw + [negate(t) for t in tw]
    joined = seeds_meeting(a, seeds, tw)
    assert [(str(s.type), s.level) for s in joined] == [("A1", 1), ("A1", 1)]
    psi = assemble_root_subsystem(a, [r for s in joined for r in s.roots], tw)
    assert (str(psi.type), psi.level, len(psi.roots)) == ("A3", 1, 12)
    for s in seeds + [psi]:
        assert all(type(x) is int for r in s.roots for x in r)


def test_lattice_stage_does_no_fraction_arithmetic(refuse_fraction_arithmetic):
    # the lattice stage's integer parts give the unguarded values without a
    # Fraction sum or product: construction (basis, Gram matrix, roots,
    # invariants), membership of 2h, (h|h), the shifted and twisted-sector
    # minima, the fixed shape, the projected-lattice test on -h, the twisted
    # weight-one spaces and the twist anomaly
    def stage():
        N = NiemeierLattice()
        h = inner_h()
        minus_h = tuple(-x for x in h)
        return (N.basis, N.gram, N.roots(), N.contains(h), lattice_dot(h, h),
                min_norm_shifted(N, h, 4),
                [twisted_sector_min_shift(h, eps, r) for eps in (1, -1) for r in (1, 2)],
                fixed_shape_A45(h), in_projected_lattice(minus_h),
                [twisted_weight_one(eps, r) for eps in (1, -1) for r in (1, 2)],
                twist_anomaly(5, [4, 4, 4, 4]))

    want = stage()
    assert want[3:5] == (True, 2 * H_DEN**2)
    assert want[5:7] == (2, [F(2, 5)] * 4) and want[8] is False
    assert [count for count, _ in want[9]] == [5] * 4 and want[10] == F(4, 5)
    refuse_fraction_arithmetic()
    assert stage() == want


def test_algebra_scenarios_do_no_fraction_arithmetic(refuse_fraction_arithmetic, scenario_reports):
    # with only the root data warm, the whole of run_scenario on M1-M4 runs in
    # integers: module tables, twisted lowest weights, certificates, h-norm,
    # fixed points, identification; Fractions are only built for the report
    # text.  M5's lattice stage still adds Fractions (the sector weights), so
    # it stays out; its integer parts are guarded on their own above.
    scenarios = [sc for sc in _bundled_scenarios() if not sc.lattice]
    assert [sc.name for sc in scenarios] == ["M1", "M2", "M3", "M4"]
    for t in TYPES:  # identify reaches candidate types up to the rank cap
        build_root_datum(T(t))
        scaled_gram(T(t))
    for cache in (affine._modules, affine._twist, rootsys.neg_dominant, orbifold._grid,
                  orbifold._search_table, orbifold._embedding_cached,
                  orbifold.verlinde_simple_current):
        cache.cache_clear()
    refuse_fraction_arithmetic()
    for sc in scenarios:
        assert run_scenario(sc).records() == scenario_reports[sc.name].records()


def test_root_pairings_are_computed_once_per_factor(monkeypatch):
    # h's pairings are made with its HVector, and every stage of run_scenario
    # reads them there; M1's base weights are integer weights, not HVectors,
    # so they add no call
    calls = []
    root_pairings = RootDatum.root_pairings

    def counted(self, x):
        calls.append(self.type)
        return root_pairings(self, x)

    monkeypatch.setattr(RootDatum, "root_pairings", counted)
    paths = sorted((Path(__file__).parents[1] / "src" / "orbifold24" / "scenarios").glob("*.scn"))
    assert [p.stem for p in paths] == ["m1", "m2", "m3", "m4", "m5"]
    for path in paths:
        calls.clear()
        sc = parse_scenario(path.read_text(), path.name)
        assert run_scenario(sc).passed
        assert calls == [t for t, _ in sc.algebra.factors], sc.name
        assert (sc.base_weights is not None) == (sc.name == "M1")
