"""The series route of the dimension formula, kept as the tests' oracle.

`orbifold24.qseries.dimension_identities` computes the dimension formula in
closed form.  This module is how the package computed it before: it fits
the fixed-point character as a Laurent polynomial in the hauptmodul,
expands it and its S- and T-transforms as truncated series, and reads the
coefficients the formula needs (`series_route`).

Every series here lives in exponents from (1/2)Z, so a series is indexed
by n for the exponent n/2.  A series knows its truncation bound T:
coefficients are stored only for n < T and arithmetic propagates the
smallest valid bound.  The coefficients are integers over one common
denominator, and every series this module inverts (the eta quotients and
the hauptmodul) has leading coefficient 1, so the whole layer runs in
integers: the S-powers only add the scalar 2^(12n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from orbifold24.qseries import QSeriesError

C24_2 = 276  # binomial(24, 2)
C48_2 = 1128  # binomial(48, 2)
# The truncation of series_route, in q^(1/2) units as hauptmodul takes it.
# The route reads Z at q^-1, q^0 and q^1, and Z(S tau) at q^(-1/2) and q^0.
# hauptmodul(T) is known for q^(n/2) with n < T - 2, and Z = f + ... is
# known exactly as far as f is (f^-1 and f^-2 are known further), so
# reading Z at q^1 (n = 2) needs T - 2 > 2.  Z(S tau) at depth T is known
# for n < T, so its reads at n = -1 and 0 ask for less.
IDENTITIES_TRUNC = 5


class QSeries:
    """A truncated series sum_n (nums[n] / den) q^(n/2).

    The coefficients are integer numerators over one common positive
    denominator den, kept in lowest terms; every operation runs on the
    integers.  Exact Fraction values come out of __getitem__ and `coeffs`.
    """

    __slots__ = ("nums", "den", "trunc")

    def __init__(self, coeffs: dict, trunc: int, den: int = 1):
        """sum_n (coeffs[n] / den) q^(n/2) for n < trunc, from int or
        Fraction coefficients and a positive integer den."""
        scale = lcm(*(c.denominator for c in coeffs.values()))
        nums = {
            n: c.numerator * (scale // c.denominator) for n, c in coeffs.items() if c and n < trunc
        }
        if (g := gcd(den * scale, *nums.values())) > 1:
            nums = {n: c // g for n, c in nums.items()}
        self.nums, self.den, self.trunc = nums, den * scale // g, trunc

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The exact coefficients {n: nums[n]/den}, as a new dict of Fractions."""
        return {n: Fraction(c, self.den) for n, c in self.nums.items()}

    def __getitem__(self, exponent) -> Fraction:
        """Coefficient at rational exponent; raises beyond the truncation."""
        e = Fraction(exponent)
        n, rem = divmod(e.numerator * 2, e.denominator)
        if rem:
            return Fraction(0)
        if n >= self.trunc:
            raise QSeriesError(f"coefficient at {exponent} is beyond truncation")
        return Fraction(self.nums.get(n, 0), self.den)

    def valuation(self) -> int:
        """Lowest stored exponent numerator (trunc bound if identically zero)."""
        return min(self.nums) if self.nums else self.trunc

    def __eq__(self, other):
        """Mathematical equality of the known parts."""
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        left = {n: c * other.den for n, c in self.nums.items() if n < t}
        right = {n: c * self.den for n, c in other.nums.items() if n < t}
        return left == right

    def __hash__(self):
        raise TypeError("QSeries is unhashable")

    def __repr__(self):
        coeffs = self.coeffs
        terms = [f"{coeffs[n]}*q^({n}/2)" for n in sorted(coeffs)[:6]]
        tail = " + ..." if len(coeffs) > 6 else ""
        return f"QSeries({' + '.join(terms) or '0'}{tail}; trunc {self.trunc}/2)"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = constant(other, self.trunc)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {n: c * a for n, c in self.nums.items()}
        for n, c in other.nums.items():
            out[n] = out.get(n, 0) + c * b
        return QSeries(out, min(self.trunc, other.trunc), den)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({n: -c for n, c in self.nums.items()}, self.trunc, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            nums = {n: x * other.numerator for n, x in self.nums.items()}
            return QSeries(nums, self.trunc, self.den * other.denominator)
        t = min(self.trunc + other.valuation(), other.trunc + self.valuation())
        out: dict[int, int] = {}
        for n1, c1 in self.nums.items():
            for n2, c2 in other.nums.items():
                n = n1 + n2
                if n < t:
                    out[n] = out.get(n, 0) + c1 * c2
        return QSeries(out, t, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "QSeries":
        """Multiplicative inverse over Z: needs an integer series whose
        leading coefficient is 1 or -1."""
        if not self.nums:
            raise QSeriesError("cannot invert the zero series")
        v = self.valuation()
        lead = self.nums[v]
        if self.den != 1 or lead not in (1, -1):
            raise QSeriesError(
                f"cannot invert over Z: leading coefficient {self.coeffs[v]}, "
                f"coefficient denominator {self.den}"
            )
        n_terms = self.trunc - v  # known coefficients of self past the leading one
        # self = lead q^v (1 + x); with lead = 1/lead the recursion stays in Z
        a = [self.nums.get(v + k, 0) for k in range(n_terms)]
        inv = [lead]
        for n in range(1, n_terms):
            inv.append(-lead * sum(map(mul, a[1 : n + 1], reversed(inv))))
        return QSeries({k - v: c for k, c in enumerate(inv)}, n_terms - v)

    def __pow__(self, e: int) -> "QSeries":
        if e == 0:
            return constant(1, self.trunc - self.valuation())
        base = self if e > 0 else self.inverse()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out


def constant(c, trunc: int) -> QSeries:
    return QSeries({0: c}, trunc)


# -- eta powers and the hauptmodul ------------------------------------------


@lru_cache(maxsize=None)
def _euler_product_pow24(n_terms: int) -> tuple:
    """Coefficients of prod_{n>=1} (1-q^n)^24 up to q^(n_terms-1), via the
    pentagonal-number expansion of the Euler product."""
    phi = [0] * n_terms
    phi[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= n_terms and e2 >= n_terms:
            break
        s = -1 if k % 2 else 1
        if e1 < n_terms:
            phi[e1] += s
        if e2 < n_terms:
            phi[e2] += s
        k += 1
    out = [1] + [0] * (n_terms - 1)
    for _ in range(24):
        new = [0] * n_terms
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(phi[: n_terms - i]):
                    if b:
                        new[i + j] += a * b
        out = new
    return tuple(out)


def eta24(scale, trunc: int) -> QSeries:
    """eta(scale*tau)^24 as a series in q^(1/2), for scale in {1/2, 1, 2}.

    eta(tau)^24 = q prod (1-q^n)^24; the q^(1/24) prefactors cancel in the
    24th power, so only integer multiples of the scale appear.
    """
    scale = Fraction(scale)
    if scale not in (Fraction(1, 2), Fraction(1), Fraction(2)):
        raise QSeriesError(f"unsupported eta scale {scale}")
    if trunc < 1:
        raise QSeriesError("truncation must be positive")
    # exponents are scale*(1 + j) for j >= 0 in units of q^(1/2): step = 2*scale
    step = 2 * scale.numerator // scale.denominator
    n_terms = trunc // step + 1
    coeffs = {step * (1 + j): c for j, c in enumerate(_euler_product_pow24(n_terms))}
    return QSeries(coeffs, trunc)


def hauptmodul(trunc: int) -> QSeries:
    """The hauptmodul f = eta(tau)^24 / eta(2 tau)^24 = q^-1 - 24 + 276 q + ...

    Known for q^(n/2) with n < trunc - 2.
    """
    window = trunc + 4  # room for the q^-1 shift
    return eta24(1, window) * eta24(2, window).inverse()


def hauptmodul_S_power(n: int, trunc: int) -> QSeries:
    """f(S tau)^n = 2^(12n) (eta(tau)^24 / eta(tau/2)^24)^n, for n in {1, -1, -2}.

    Known for q^(m/2) with m < trunc (further for n = 1 and -1).
    """
    if n not in (1, -1, -2):
        raise QSeriesError("supported powers are 1, -1, -2")
    # the quotient is known below window - 1, its inverse below window - 3 and
    # the inverse's square below window - 4
    window = trunc + 4
    base = eta24(1, window) * eta24(Fraction(1, 2), window).inverse()
    return base**n * Fraction(2**12) ** n


def t_transform(s: QSeries) -> QSeries:
    """Shift tau -> tau+1: the coefficient at q^(n/2) picks up (-1)^n."""
    return QSeries({n: (-c if n % 2 else c) for n, c in s.nums.items()}, s.trunc, s.den)


# -- the character fit and the dimension formula -----------------------------


class CharacterFit(NamedTuple):
    """The fixed-point character as a Laurent polynomial in the hauptmodul."""

    c0: Fraction
    c_minus1: Fraction
    series: QSeries


def _fitted_laurent(c0, c_minus1, power) -> QSeries:
    """x + c0 + c_{-1} x^-1 + 2^23 x^-2, where power(n) is the series x^n."""
    return power(1) + c0 + power(-1) * c_minus1 + power(-2) * 2**23


def character_fit(dim_g1: int, dim_half: int, trunc: int) -> CharacterFit:
    """Fit Z = f + c0 + c_{-1} f^-1 + 2^23 f^-2 from the two dimensions.

    The constant term pins c0 = dim_g1 + 24 and the q^(-1/2) coefficient of
    the S-transform pins c_{-1} = 2^12 (dim_half/2 + 24) = 2^11 (dim_half + 48).
    """
    if dim_g1 < 0 or dim_half < 0:
        raise QSeriesError("dimensions must be nonnegative")
    c0 = Fraction(dim_g1 + 24)
    c_minus1 = Fraction(2**11 * (dim_half + 48))
    f = hauptmodul(trunc)
    f_inv = f.inverse()
    powers = {1: f, -1: f_inv, -2: f_inv * f_inv}
    series = _fitted_laurent(c0, c_minus1, powers.__getitem__)
    if series[Fraction(-1)] != 1 or series[0] != dim_g1:
        raise QSeriesError(f"the fitted character does not begin q^-1 + {dim_g1}")
    return CharacterFit(c0, c_minus1, series)


def fitted_S_series(fit: CharacterFit, trunc: int) -> QSeries:
    """The fitted character with f replaced by its S-transform expansions."""
    return _fitted_laurent(fit.c0, fit.c_minus1, lambda n: hauptmodul_S_power(n, trunc))


def series_route(dim_V1: int, dim_g1: int, dim_half: int) -> tuple:
    """The three coefficients the series route reads, at IDENTITIES_TRUNC:
    the constant term of Z(tau) + Z(S tau) + Z(ST tau) - dim_V1 (the new
    weight-one dimension), the q^1 coefficient of Z (the fixed-point
    weight-two dimension) and the q^(-1/2) coefficient of Z(S tau)
    (dim_half / 2), each an exact Fraction."""
    fit = character_fit(dim_g1, dim_half, IDENTITIES_TRUNC)
    s_series = fitted_S_series(fit, IDENTITIES_TRUNC)
    total = fit.series + s_series + t_transform(s_series) - dim_V1
    return total[0], fit.series[1], s_series[Fraction(-1, 2)]
