"""Acceptance criteria, one test per criterion, all at zero tolerance.

Every computation here is exact rational arithmetic, so "tolerance" always
means exact equality; each criterion prints its own pass/fail line.
"""

from contextlib import contextmanager
from fractions import Fraction

from fraction_oracle import (
    block_add,
    h_components,
    lattice_blocks,
    project_fixed,
    reflect,
    rescale_exponents,
    vec_dot,
)
from orbifold24.affine import (
    HVector,
    ProductAlgebra,
    enumerate_modules,
    integral_spectrum_table,
    twisted_positivity_certificate,
)
from orbifold24.cli import module_table_text, product_table_text
from orbifold24.lattice import (
    BETA5,
    DELTA5,
    H_DEN,
    NiemeierLattice,
    build_glue_code,
    enumerate_S,
    inner_h,
    min_norm_shifted,
    twist_anomaly,
    twisted_weight_one,
)
from orbifold24.orbifold import (
    SemisimpleShape,
    embeds,
    fixed_subalgebra,
    identify,
    verlinde_simple_current,
)
from orbifold24.qseries import dimension_identities
from orbifold24.rootsys import SimpleType, build_root_datum, weight_support
from orbifold24.scenarios import fixed_shape_A45
from qseries_oracle import hauptmodul, hauptmodul_S_power, series_route

F = Fraction
T = SimpleType.parse


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} {name}: FAIL")
        raise
    print(f"criterion {number:2d} {name}: PASS")


SCENARIO_DATA = [
    # name, factors, h coefficients, <h|h>, fixed shape, fixed dim, new dim, final shape
    ("M1", [("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1)],
     [[F(1, 2), 0, 0, 0, 0, F(-1, 2)], [0, F(1, 2)], [0, F(1, 2)], [0, 0]],
     2, "D5,3 A1,1^2 A1,3^2 G2,1 U(1)", 72, 120, "D7,3 A3,1 G2,1"),
    ("M2", [("D7", 3), ("A3", 1), ("G2", 1)],
     [[0, 0, 0, 0, 0, F(1, 2), F(-1, 2)], [1, 0, 0], [0, F(1, 2)]],
     2, "D6,3 A3,1 A1,1 A1,3 U(1)", 88, 168, "E7,3 A5,1"),
    ("M3", [("E7", 3), ("A5", 1)],
     [[0, F(1, 2), 0, 0, 0, 0, 0], [0, 0, F(1, 2), 0, 0]],
     3, "A7,3 A2,1^2 U(1)", 80, 96, "A8,3 A2,1^2"),
    ("M4", [("C5", 3), ("G2", 2), ("A1", 1)],
     [[0, 0, 0, 0, F(1, 2)], [0, F(1, 2)], [F(1, 2)]],
     3, "A4,6 A1,6 A1,2 U(1)^2", 32, 48, "A5,6 C2,3 A1,2"),
    ("M5", [("A4", 5), ("A4", 5)],
     [[0, 0, 0, F(1, 2)], [0, 0, 0, F(1, 2)]],
     2, "A3,5^2 U(1)^2", 32, 72, "D6,5 A1,1^2"),
]


def scenario_h(factors, hlists):
    a = ProductAlgebra.of(*factors)
    return a, HVector.from_fundamental(a, hlists)


def test_criterion_01_module_counts():
    expected = [("E6", 3, 20), ("D7", 3, 36), ("E7", 3, 12), ("C5", 3, 56),
                ("A5", 1, 6), ("A3", 1, 4), ("G2", 1, 2), ("G2", 2, 4), ("A1", 1, 2)]
    with criterion(1, "module-count-oracle"):
        for name, level, count in expected:
            got = len(enumerate_modules(T(name), level))
            assert got == count, (name, level, got, count)


def test_criterion_02_conformal_weight_tables(golden):
    tables = [("e6_3", "E6", 3), ("g2_1", "G2", 1), ("g2_2", "G2", 2),
              ("d7_3", "D7", 3), ("a3_1", "A3", 1), ("e7_3", "E7", 3),
              ("a5_1", "A5", 1), ("c5_3", "C5", 3), ("a1_1", "A1", 1)]
    with criterion(2, "conformal-weight-tables"):
        for table, name, level in tables:
            assert module_table_text(name, level) == golden(table), table


def test_criterion_03_integral_spectrum_tables(golden):
    with criterion(3, "integral-spectrum-tables"):
        assert product_table_text(
            (("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1)), 3, None
        ) == golden("t_e63_g21_3")
        assert product_table_text(
            (("D7", 3), ("A3", 1), ("G2", 1)), 3, None
        ) == golden("t_d73_a31_g21")
        assert product_table_text((("E7", 3), ("A5", 1)), 3, None) == golden("t_e73_a51")
        assert product_table_text(
            (("C5", 3), ("G2", 2), ("A1", 1)), 4, (2, 3, 4)
        ) == golden("t_c53_g22_a11")


def test_criterion_04_h_norms():
    with criterion(4, "inner-automorphism-norms"):
        for name, factors, hlists, norm, *_ in SCENARIO_DATA:
            _, h = scenario_h(factors, hlists)
            assert h.norm_invariant() == norm, name


def test_criterion_05_fixed_point_shapes():
    with criterion(5, "fixed-point-shapes"):
        for name, factors, hlists, _, fixed, fixed_dim, *_ in SCENARIO_DATA:
            a, h = scenario_h(factors, hlists)
            shape, _ = fixed_subalgebra(a, h)
            assert shape == SemisimpleShape.parse(fixed), name
            assert shape.dim == fixed_dim, name


def test_criterion_06_dimension_formula():
    cases = [(120, 72, 0, 120), (120, 88, 0, 168), (168, 80, 0, 96),
             (72, 32, 0, 48), (48, 32, 0, 72)]
    with criterion(6, "dimension-formula"):
        for v1, g1, half, expected in cases:
            new_dim, g2 = dimension_identities(v1, g1, half)  # the closed form
            assert new_dim == expected, (v1, g1)
            assert g2 == 98580
            # the series route: Z + Z(S tau) + Z(ST tau) at q^0, Z at q^1, Z(S tau) at q^-1/2
            assert series_route(v1, g1, half) == (new_dim, g2, F(half, 2)), (v1, g1)
        import math
        assert 98580 == math.comb(24, 2) + 24 * 2**12


def _euler24(n_terms):
    """prod_{n>=1} (1-q^n)^24 by 24-fold naive polynomial multiplication."""
    poly = [1] + [0] * (n_terms - 1)
    for n in range(1, n_terms):
        base = [1] + [0] * (n_terms - 1)
        base[n] = -1
        for _ in range(24):
            new = [0] * n_terms
            for i, a in enumerate(poly):
                if a:
                    for j, b in enumerate(base[: n_terms - i]):
                        if b:
                            new[i + j] += a * b
            poly = new
    return poly


def _series_div(num, den, n_terms):
    # num/den for integer-indexed coefficient lists with den[0] != 0
    out = []
    rem = list(num) + [0] * n_terms
    for i in range(n_terms):
        c = F(rem[i], den[0])
        out.append(c)
        for j, d in enumerate(den):
            if i + j < len(rem):
                rem[i + j] -= c * d
    return out


def test_criterion_07_q_series():
    with criterion(7, "q-series-expansions"):
        n_terms = 13
        f = hauptmodul(2 * n_terms)
        assert f[-1] == 1 and f[0] == -24 and f[1] == 276
        # independent oracle to 12 terms: eta(t)^24/eta(2t)^24 by long division
        phi24 = _euler24(2 * n_terms)
        num = phi24  # coefficient of q^j in eta(t)^24 / q
        den = [0] * (2 * n_terms)
        for j in range(n_terms):
            den[2 * j + 1] = phi24[j]  # eta(2t)^24 = q^2 prod(1-q^(2n))^24, shifted by q
        div = _series_div(num, den[1:], n_terms)
        for j in range(n_terms - 1):
            assert f[j - 1] == div[j], j
        fs = hauptmodul_S_power(1, n_terms)
        fs1 = hauptmodul_S_power(-1, n_terms)
        fs2 = hauptmodul_S_power(-2, n_terms)
        assert fs[F(1, 2)] == 2**12 and fs[1] == 24 * 2**12
        assert fs1[F(-1, 2)] == F(1, 2**12) and fs1[0] == F(-24, 2**12)
        assert fs1[F(1, 2)] == F(276, 2**12)
        assert fs2[-1] == F(1, 2**24) and fs2[F(-1, 2)] == F(-48, 2**24)
        assert fs2[0] == F(1128, 2**24)
        # the transforms are the exponent substitution q -> q^(1/2) of f^n
        f_sub = rescale_exponents(hauptmodul(4 * n_terms), 1, 2)
        for n in (1, -1, -2):
            assert hauptmodul_S_power(n, n_terms) == F(2**12) ** n * f_sub ** (-n)


def test_criterion_08_identification_uniqueness():
    from orbifold24.cli import _bundled_scenarios
    from orbifold24.scenarios import derive_seeds

    finals = {row[0]: (row[6], row[7]) for row in SCENARIO_DATA}
    with criterion(8, "identification-uniqueness"):
        for sc in _bundled_scenarios():
            new_dim, final = finals[sc.name]
            _, seeds, _ = derive_seeds(sc)
            found = identify(sc.algebra.rank, new_dim, [(s.type, s.level) for s in seeds])
            assert len(found) == 1, (sc.name, list(map(str, found)))
            assert found[0] == SemisimpleShape.parse(final), sc.name


def test_criterion_09_verlinde():
    with criterion(9, "verlinde-simple-current"):
        for a in (1, -1):
            N = verlinde_simple_current(a)  # raises unless integral and simple-current
            for p in range(4):
                assert N[p][p][0] == 1
                assert all(N[p][p][r] == 0 for r in range(1, 4))


def test_criterion_10_lattice_suite():
    with criterion(10, "lattice-suite"):
        assert len(build_glue_code()) == 125
        N = NiemeierLattice()  # constructor checks even, unimodular, 120 roots
        assert len(N.roots()) == 120
        h = inner_h()
        for eps in (1, -1):
            for r in (1, 2):
                S = enumerate_S(eps, r)
                assert len(S) == 5
                count, weights = twisted_weight_one(eps, r)
                assert count == 5 and weights == sorted(S)
                f = lattice_blocks(DELTA5[r] + (0,) * 25)
                assert vec_dot(lattice_blocks(h, H_DEN), f) == 0
        BETA = {i: tuple(F(c, 5) for c in b) for i, b in BETA5.items()}
        assert sorted(enumerate_S(1, 1)) == sorted(BETA.values())
        assert sorted(enumerate_S(1, 2)) == sorted(
            block_add(BETA[i], BETA[(i + 1) % 5]) for i in range(5)
        )
        assert twist_anomaly(5, [4, 4, 4, 4]) == F(4, 5)
        mn = min_norm_shifted(N, h, 4)
        assert mn is not None and mn >= F(6, 5)
        assert fixed_shape_A45(h) == SemisimpleShape.parse("A3,5^2 U(1)^2")


def test_criterion_11_property_suites():
    with criterion(11, "property-suites"):
        # Weyl-invariance of weight supports
        for name, coeffs in [("A3", (1, 0, 1)), ("G2", (0, 1)), ("C3", (0, 1, 0))]:
            d = build_root_datum(T(name))
            sup = weight_support(d, d.weight_from_fundamental([F(c) for c in coeffs]))
            for i in range(d.rank):
                assert {reflect(d, mu, i) for mu in sup} == sup
        # twisted lowest weights nonnegative across all modules of each scenario
        for name, factors, hlists, *_ in SCENARIO_DATA:
            a, h = scenario_h(factors, hlists)
            for (t, k), comp in zip(a.factors, h_components(h)):
                for m in enumerate_modules(t, k):
                    cert = twisted_positivity_certificate(m, comp)
                    assert cert.kind in ("positive", "zero_with_witness"), (name, m)
        # series unit-inverse identities
        f = hauptmodul(16)
        assert f * f.inverse() == hauptmodul_S_power(1, 16) * hauptmodul_S_power(-1, 16)
        # projection idempotence
        N = NiemeierLattice()
        for b in map(lattice_blocks, N.basis):
            assert project_fixed(project_fixed(b)) == project_fixed(b)
        # embedding reflexivity
        for name in ("A1", "B3", "C5", "D7", "E6", "E7", "F4", "G2"):
            assert embeds(T(name), T(name))
