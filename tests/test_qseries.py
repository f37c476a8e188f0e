from fractions import Fraction

import pytest

import fraction_oracle as oracle
from fraction_oracle import rescale_exponents
from orbifold24.qseries import (
    C24_2,
    C48_2,
    DIM_CONSTANT,
    IDENTITIES_TRUNC,
    QSeries,
    QSeriesError,
    character_fit,
    constant,
    dimension_identities,
    eta24,
    fitted_S_series,
    hauptmodul,
    hauptmodul_S_power,
    t_transform,
)

F = Fraction


def monomial(c, exponent, trunc):
    """The series c q^exponent, exponent a multiple of 1/2."""
    e = F(exponent) * 2
    assert e.denominator == 1, exponent
    return QSeries({int(e): F(c)}, trunc)


def naive_eta24_coeffs(n_terms):
    """Oracle: expand prod_{n>=1} (1-q^n)^24 by direct polynomial products."""
    poly = [1] + [0] * (n_terms - 1)
    for n in range(1, n_terms):
        factor = [0] * n_terms
        factor[0] = 1
        if n < n_terms:
            factor[n] = -1
        for _ in range(24):
            new = [0] * n_terms
            for i, a in enumerate(poly):
                if a:
                    for j, b in enumerate(factor[: n_terms - i]):
                        if b:
                            new[i + j] += a * b
            poly = new
    return poly


def test_eta24_against_naive_product():
    n_terms = 9
    oracle = naive_eta24_coeffs(n_terms)
    s = eta24(1, 2 * n_terms)
    for j in range(n_terms - 1):
        assert s[1 + j] == oracle[j]


def test_eta24_leading_terms():
    s = eta24(1, 10)
    assert s[1] == 1 and s[2] == -24 and s[3] == 252 and s[4] == -1472
    s2 = eta24(2, 12)
    assert s2[2] == 1 and s2[4] == -24
    sh = eta24(F(1, 2), 6)
    assert sh[F(1, 2)] == 1 and sh[1] == -24


def test_eta24_substitution_consistency():
    s1 = eta24(1, 16)
    assert eta24(2, 16) == rescale_exponents(s1, 2)
    assert eta24(F(1, 2), 8) == rescale_exponents(s1, 1, 2)


def test_eta24_rejects_bad_scale():
    with pytest.raises(QSeriesError):
        eta24(3, 10)
    with pytest.raises(QSeriesError):
        eta24(1, 0)


def test_eta24_integer_coefficients():
    s = eta24(1, 40)
    assert all(c.denominator == 1 for c in s.coeffs.values())


def test_hauptmodul_first_coefficients():
    f = hauptmodul(20)
    assert f[-1] == 1
    assert f[0] == -24
    assert f[1] == C24_2 == 276


def test_hauptmodul_unit_inverse():
    f = hauptmodul(24)
    one = f * f.inverse()
    assert one[0] == 1
    assert all(c == 0 for n, c in one.coeffs.items() if n != 0)


def test_s_transform_leading_coefficients():
    fs = hauptmodul_S_power(1, 16)
    assert fs[F(1, 2)] == 2**12
    assert fs[1] == 24 * 2**12
    fs1 = hauptmodul_S_power(-1, 16)
    assert fs1[F(-1, 2)] == F(1, 2**12)
    assert fs1[0] == F(-24, 2**12)
    assert fs1[F(1, 2)] == F(276, 2**12)
    fs2 = hauptmodul_S_power(-2, 16)
    assert fs2[-1] == F(1, 2**24)
    assert fs2[F(-1, 2)] == F(-48, 2**24)
    assert fs2[0] == F(C48_2, 2**24) == F(1128, 2**24)


def test_s_transform_identities_to_twelve_terms():
    fs = hauptmodul_S_power(1, 14)
    fs1 = hauptmodul_S_power(-1, 14)
    fs2 = hauptmodul_S_power(-2, 14)
    prod = fs * fs1
    assert prod[0] == 1 and all(c == 0 for n, c in prod.coeffs.items() if n != 0)
    assert fs2 == fs1 * fs1


def test_s_transform_is_exponent_substitution():
    # f(S tau)^n = 2^(12n) (f with q -> q^(1/2))^(-n)
    f_sub = rescale_exponents(hauptmodul(26), 1, 2)
    for n in (1, -1, -2):
        lhs = hauptmodul_S_power(n, 10)
        rhs = F(2**12) ** n * f_sub ** (-n)
        assert lhs == rhs


def test_t_transform():
    s = monomial(1, F(1, 2), 10) + monomial(5, -1, 10)
    t = t_transform(s)
    assert t[F(1, 2)] == -1 and t[-1] == 5
    fs = hauptmodul_S_power(1, 10)
    ts = t_transform(fs)
    assert ts[F(1, 2)] == -(2**12) and ts[1] == 24 * 2**12


def test_character_fit_examples():
    fit = character_fit(88, 0, 22)
    assert fit.c0 == 112 and fit.c_minus1 == 24 * 2**12
    assert fit.series[0] == 88
    assert character_fit(0, 0, 22).series[0] == 0
    assert character_fit(32, 0, 22).series[0] == 32
    with pytest.raises(QSeriesError):
        character_fit(-1, 0, 22)


def test_character_fit_integer_coefficients():
    fit = character_fit(72, 0, 22)
    assert all(c.denominator == 1 for c in fit.series.coeffs.values())


def test_fitted_s_series_half_coefficient():
    # q^(-1/2) coefficient of Z(S tau) is dim_half/2; the reconstructed
    # twisted character 2 Z(S tau) - Z has twice that
    for g1, half in [(72, 0), (88, 0), (10, 4)]:
        fit = character_fit(g1, half, 22)
        s = fitted_S_series(fit, 22)
        assert s[F(-1, 2)] == F(half, 2)
        assert 2 * s[F(-1, 2)] == half
        assert s[-1] == F(1, 2)


DIM_CASES = [
    (120, 72, 0, 120),
    (120, 88, 0, 168),
    (168, 80, 0, 96),
    (72, 32, 0, 48),
    (48, 32, 0, 72),
]


@pytest.mark.parametrize("v1,g1,half,expected", DIM_CASES)
def test_dimension_identities(v1, g1, half, expected):
    new_dim, g2 = dimension_identities(v1, g1, half)
    assert new_dim == expected
    assert g2 == DIM_CONSTANT + 2**11 * half


def test_dimension_constant_identity():
    assert DIM_CONSTANT == 98580 == C24_2 + 24 * 2**12


def test_dimension_identities_nonzero_half():
    new_dim, g2 = dimension_identities(24, 24, 2)
    assert new_dim == 3 * 24 - 24 + 24 * (1 - 2)
    assert g2 == 98580 + 2**12


def test_inverse_requires_nonzero():
    with pytest.raises(QSeriesError):
        constant(0, 4).inverse()


def test_truncation_propagates():
    a = QSeries({0: F(1), 1: F(2)}, 4)
    b = QSeries({0: F(1)}, 2)
    assert (a + b).trunc == 2
    assert (a * b).trunc == 2
    with pytest.raises(QSeriesError):
        (a + b)[1]  # beyond truncation


def test_cached_hauptmodul_series_are_not_shared():
    # the eta products under the hauptmodul are cached; a caller that changes
    # a returned series must not change any later result
    expected = dimension_identities(120, 48, 0)
    builders = [lambda: hauptmodul(22)] + [
        lambda n=n: hauptmodul_S_power(n, 22) for n in (1, -1, -2)
    ]
    for build in builders:
        first = build()
        before = dict(first.coeffs)
        assert before
        first.coeffs.clear()
        first.nums.clear()
        again = build()
        assert again is not first and again.coeffs == before
    assert dimension_identities(120, 48, 0) == expected


def test_identities_truncation_is_the_least_that_works():
    # dimension_identities reads Z at q^-1, q^0, q^1 and Z(S tau) at q^(-1/2), q^0
    def reads(trunc):
        fit = character_fit(72, 0, trunc)
        s = fitted_S_series(fit, trunc)
        return (lambda: [fit.series[-1], fit.series[0], fit.series[1]],
                lambda: [s[F(-1, 2)], s[0]])

    z_deep, s_deep = reads(22)
    z_reads, s_reads = reads(IDENTITIES_TRUNC)
    assert z_reads() == z_deep() == [1, 72, DIM_CONSTANT]
    assert s_reads() == s_deep()
    # one step shallower Z at q^1 is unknown, while the S side still has its reads
    z_short, s_short = reads(IDENTITIES_TRUNC - 1)
    with pytest.raises(QSeriesError, match="coefficient at 1 is beyond truncation"):
        z_short()
    assert s_short() == s_deep()


def test_s_series_window_covers_the_reads():
    # f(S tau)^-2 expands over the same window as the other powers; at the
    # identities' depth it and the fitted S-series still know q^(-1/2) and q^0
    deep = fitted_S_series(character_fit(72, 0, 22), 22)
    s = fitted_S_series(character_fit(72, 0, IDENTITIES_TRUNC), IDENTITIES_TRUNC)
    fs2 = hauptmodul_S_power(-2, IDENTITIES_TRUNC)
    assert fs2.trunc == s.trunc == IDENTITIES_TRUNC
    assert [fs2[F(-1, 2)], fs2[0]] == [F(-48, 2**24), F(1128, 2**24)]
    assert [s[F(-1, 2)], s[0]] == [deep[F(-1, 2)], deep[0]]


def known(s, trunc):
    """The exact coefficients of s below trunc."""
    assert s.trunc >= trunc
    return {n: c for n, c in s.coeffs.items() if n < trunc}


def test_series_match_fraction_oracle():
    depth = 22
    f = hauptmodul(depth)
    assert f.trunc == depth - 2
    assert known(f, f.trunc) == known(oracle.hauptmodul(depth), f.trunc)
    for n in (1, -1, -2):
        fs = hauptmodul_S_power(n, depth)
        assert known(fs, depth) == known(oracle.hauptmodul_S_power(n, depth), depth)
    for g1, half in [(72, 0), (88, 0), (10, 4), (0, 0), (3, 7)]:
        fit = character_fit(g1, half, depth)
        c0, c_minus1, series = oracle.character_fit(g1, half, depth)
        assert (fit.c0, fit.c_minus1) == (c0, c_minus1)
        assert fit.series.trunc == series.trunc
        assert fit.series.coeffs == series.coeffs


def test_series_are_integers_over_one_denominator():
    fs1 = hauptmodul_S_power(-1, 10)
    assert fs1.den == 2**12 and all(isinstance(c, int) for c in fs1.nums.values())
    # the exact view reads through the denominator, so an integrality check can fail
    assert any(c.denominator != 1 for c in fs1.coeffs.values())
    assert fs1.coeffs == {n: F(c, 2**12) for n, c in fs1.nums.items()}
    # lowest terms: the denominator cancels where the numerators allow
    assert (fs1 * 2**12).den == 1 and (constant(F(6, 4), 3) * 2).den == 1


@pytest.mark.parametrize("series", [
    constant(2, 4),  # leading coefficient 2
    QSeries({-1: F(-3), 0: F(1)}, 6),  # leading coefficient -3
    QSeries({0: F(1), 1: F(1, 2)}, 6),  # unit lead, a non-integer coefficient
])
def test_inverse_needs_a_unit_integer_series(series):
    with pytest.raises(QSeriesError, match="cannot invert over Z"):
        series.inverse()


def test_inverse_of_minus_one_lead():
    s = QSeries({1: F(-1), 2: F(5), 4: F(-7)}, 12)
    one = s * s.inverse()
    assert one.coeffs == {0: 1} and one.trunc == s.trunc - 1
