"""Irreducible modules of simple affine vertex algebras at positive integral level.

A module label is a dominant integral weight lambda, given by its Dynkin
labels, with (theta|lambda) <= k.  The lowest conformal weight is
(lambda+2rho|lambda) / (2(k+h_vee)); under the inner twist by a Cartan
element h it shifts to

    conformal_weight + min{(h|mu) : mu in the weight support of lambda} + k(h|h)/2.

Everything runs in integers.  Each (type, level) has one conformal-weight
denominator, 2 fund_gram_den (k + h_vee); each label carries its numerator,
and each module list is built once.  An HVector is h's only form: one
IntWeight per factor, made from its Dynkin labels, and the factor's root
pairings (h|alpha), made with it.  Per (factor, h) the twist cache holds
dom(-h) and one denominator for every module's twisted lowest weight; the
minimum is -(lambda|dom(-h)), a dot product with the labels.  The factors'
numerators add on the lcm of their denominators, so a product label's
weight is integral when one residue vanishes.  A Fraction is made only for
a return value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import mul
from typing import NamedTuple

from .rootsys import (
    IntWeight,
    Record,
    RootDatum,
    RootSystemError,
    SimpleType,
    Vec,
    build_root_datum,
    label_pairing,
    neg_dominant,
)


class AffineLabel(Record):
    """An irreducible module of X_{n,k}: dominant weight given by fundamental coefficients.

    _KEY leaves out the derived datum and weight_num (the conformal weight
    over _weight_den)."""

    __slots__ = ("type", "level", "coeffs", "datum", "weight_num")
    _KEY = ("type", "level", "coeffs")

    def __init__(self, type: SimpleType, level: int, coeffs: tuple[int, ...]):
        if level < 1:
            raise RootSystemError("level must be a positive integer")
        d, c = build_root_datum(type), coeffs
        if len(c) != d.rank or any(not isinstance(x, int) or x < 0 for x in c):
            raise RootSystemError(f"bad weight coefficients {c} for {type}")
        if sum(map(mul, d.comarks, c)) > level:
            raise RootSystemError(f"{type} weight {c} not admissible at level {level}")
        # rho has every label 1: N (lambda+2rho|lambda) = sum_ij (c_i + 2) F_ij c_j
        num = sum((ci + 2) * sum(map(mul, row, c)) for ci, row in zip(c, d.fund_gram))
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "datum", d)
        object.__setattr__(self, "weight_num", num)

    def __str__(self):
        return f"{self.type},{self.level}:({','.join(map(str, self.coeffs))})"


def _weight_den(d: RootDatum, k: int) -> int:
    """The conformal-weight denominator of X_{n,k}, 2 N (k + h_vee)."""
    return 2 * d.fund_gram_den * (k + d.dual_coxeter)


def _sum_on_lcm(parts) -> tuple[int, int]:
    """(n, D) with n / D the sum of the fractions n_i / q_i given as pairs, D the lcm of the q_i."""
    D = lcm(*(q for _, q in parts))
    return sum(n * (D // q) for n, q in parts), D


@lru_cache(maxsize=None)
def _modules(t: SimpleType, k: int) -> tuple[AffineLabel, ...]:
    if k < 1:
        raise RootSystemError("level must be a positive integer")
    d = build_root_datum(t)
    # (theta | lambda) = sum_i c_i (theta | Lambda_i), the integer comarks; the
    # coefficient prefixes carry the level they leave, extended one coordinate at a time
    prefixes = [((), k)]
    for mark in d.comarks:
        prefixes = [(p + (c,), budget - c * mark) for p, budget in prefixes
                    for c in range(budget // mark + 1)]
    return tuple(AffineLabel(t, k, p) for p, _ in prefixes)


def enumerate_modules(t: SimpleType, k: int) -> list[AffineLabel]:
    """All module labels of X_{n,k}, ordered lexicographically by coefficients."""
    return list(_modules(t, k))


def conformal_weight(m: AffineLabel) -> Fraction:
    """Lowest L(0)-weight of the module: (lambda+2rho|lambda)/(2(k+h_vee))."""
    return Fraction(m.weight_num, _weight_den(m.datum, m.level))


@lru_cache(maxsize=1024)
def _twist(d: RootDatum, k: int, x: IntWeight) -> tuple[int, int, int, int, IntWeight]:
    """(D, a, b, k hh, dom(-h)) for X_{n,k} under h = x.  As hh = scale den^2 (h|h), k(h|h)/2 and
    (lambda|dom(-h)) lie on Dh = 2 scale den^2; with D = lcm(Dc, Dh), a = D / Dc and b = D / Dh a
    twisted lowest weight is (a weight_num + b (k hh - den label_pairing(lambda, dom(-h)))) / D."""
    Dc, Dh = _weight_den(d, k), 2 * d.scale * x.den**2
    D = lcm(Dc, Dh)
    hh = sum(map(mul, d.scaled_row(x.coords), x.coords))
    return D, D // Dc, D // Dh, k * hh, neg_dominant(d, x)


def _lowest(m: AffineLabel, x: IntWeight) -> tuple[int, int]:
    """(n, D): the twisted lowest weight of m under h = x is n / D, D fixed by (type, level, h)."""
    d = m.datum
    D, a, b, khh, neg_dom = _twist(d, m.level, x)
    return a * m.weight_num + b * (khh - x.den * label_pairing(d, m.coeffs, neg_dom)), D


def twisted_lowest(m: AffineLabel, h: Vec) -> Fraction:
    """Lowest L(0)-weight of the module twisted by the inner automorphism of h.

    The minimum of (h|mu) over the support is -(lambda|dom(-h)).
    """
    return Fraction(*_lowest(m, m.datum.integral(h)))


class TwistClassification(NamedTuple):
    kind: str  # "positive" | "zero_with_witness" | "negative_violation" | "precondition_violated"
    value: Fraction | None = None
    witness: str | None = None


def twisted_positivity_certificate(m: AffineLabel, h: Vec) -> TwistClassification:
    """Classify the twisted lowest weight of a single-factor module.

    Under the assumption (h|alpha) >= -1 for all roots the weight is
    nonnegative.  Zero forces lambda = k Lambda_j with -k h an extreme
    weight of the module (the dominant instance being h = -Lambda_j), or
    the untwisted vacuum.  A violated assumption is reported as its own
    outcome rather than silently classified.
    """
    return _certificate(m, m.datum.integral(h))


def module_certificates(a: ProductAlgebra, h: HVector) -> list:
    """(module, certificate) for every module of every factor of a, under its part of h."""
    return [(m, _certificate(m, x)) for (t, k), x in zip(a.factors, h.ints) for m in _modules(t, k)]


def _certificate(m: AffineLabel, x: IntWeight) -> TwistClassification:
    d = m.datum
    neg_dom = _twist(d, m.level, x)[4]
    # the largest (-h|alpha) over the roots is (dom(-h)|theta), as theta - alpha is in Q+
    if sum(map(mul, d.comarks, neg_dom.labels)) > neg_dom.den:
        return TwistClassification("precondition_violated")
    n, D = _lowest(m, x)
    val = Fraction(n, D)
    if n:
        return TwistClassification("positive" if n > 0 else "negative_violation", val)
    if not any(m.coeffs) and not any(x.coords):
        return TwistClassification("zero_with_witness", val, "vacuum")
    # lambda = k Lambda_j with dom(-k h) = k dom(-h) equal to lambda
    k, c = m.level, m.coeffs
    if k in c and sum(c) == k and all(k * y == neg_dom.den * v for y, v in zip(neg_dom.labels, c)):
        return TwistClassification("zero_with_witness", val, f"j={c.index(k) + 1}")
    return TwistClassification("negative_violation", val, "zero without witness")


class ProductAlgebra(Record):
    """An ordered tensor product of simple affine factors at positive levels."""

    __slots__ = ("factors",)
    _KEY = ("factors",)

    def __init__(self, factors: tuple[tuple[SimpleType, int], ...]):
        if not factors:
            raise RootSystemError("product algebra needs at least one factor")
        if any(k < 1 for _, k in factors):
            raise RootSystemError("levels must be positive")
        object.__setattr__(self, "factors", factors)

    @staticmethod
    def of(*factors) -> "ProductAlgebra":
        return ProductAlgebra(tuple((SimpleType.parse(t) if isinstance(t, str) else t, k) for t, k in factors))

    @property
    def data(self) -> list[RootDatum]:
        return [build_root_datum(t) for t, _ in self.factors]

    def int_weights(self, coeff_lists) -> tuple[IntWeight, ...]:
        """One IntWeight per factor, from one list of (rational) Dynkin labels per factor."""
        if len(coeff_lists) != len(self.factors):
            raise RootSystemError(
                f"{self} needs one coefficient list per factor, got {len(coeff_lists)}"
            )
        return tuple(d.from_fundamental(c) for d, c in zip(self.data, coeff_lists))

    @property
    def rank(self) -> int:
        return sum(t.rank for t, _ in self.factors)

    @property
    def dim(self) -> int:
        return sum(t.dim for t, _ in self.factors)

    def __str__(self):
        return " ".join(f"{t},{k}" for t, k in self.factors)


class ProductLabel(NamedTuple):
    algebra: ProductAlgebra
    labels: tuple[AffineLabel, ...]

    @property
    def coeffs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(m.coeffs for m in self.labels)

    def __str__(self):
        return "(" + "; ".join(",".join(map(str, m.coeffs)) for m in self.labels) + ")"


class HVector(Record):
    """h in integers: one IntWeight per factor, in the factor's simple-root basis,
    and each factor's root pairings (q, [p_j]), (h|alpha_j) = p_j / q, computed
    once when the HVector is made.  _KEY leaves out the pairings."""

    __slots__ = ("algebra", "ints", "pairings")
    _KEY = ("algebra", "ints")

    def __init__(self, algebra: ProductAlgebra, ints: tuple[IntWeight, ...]):
        pairings = tuple(d.root_pairings(x) for d, x in zip(algebra.data, ints))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "pairings", pairings)

    @staticmethod
    def from_fundamental(algebra: ProductAlgebra, coeff_lists) -> "HVector":
        return HVector(algebra, algebra.int_weights(coeff_lists))

    def norm_invariant(self) -> Fraction:
        """<h|h> = sum_i k_i (h_i|h_i), where scale den^2 (h_i|h_i) is an integer."""
        a = self.algebra
        return Fraction(*_sum_on_lcm([(k * sum(map(mul, d.scaled_row(x.coords), x.coords)),
                                       d.scale * x.den**2)
                                      for (_, k), d, x in zip(a.factors, a.data, self.ints)]))


def integral_spectrum_table(
    a: ProductAlgebra, max_weight, weight_set=None
) -> list[tuple[ProductLabel, int]]:
    """All product labels with integral total conformal weight.

    By default every nonnegative integer weight <= max_weight is kept; a
    table that is keyed differently (weights in a given set) can pass
    weight_set explicitly.  Output is ordered by (weight, coefficients).
    """
    if max_weight < 0:
        raise RootSystemError("max_weight must be nonnegative")
    # the weights add as numerators on D, the lcm of the conformal denominators
    dens = [_weight_den(d, k) for d, (_, k) in zip(a.data, a.factors)]
    D = lcm(*dens)
    per_factor = [[(m, m.weight_num * (D // q)) for m in enumerate_modules(t, k)]
                  for (t, k), q in zip(a.factors, dens)]
    table = []
    for combo in product(*per_factor):
        w, rem = divmod(sum(n for _, n in combo), D)
        if rem or w > max_weight or weight_set is not None and w not in weight_set:
            continue
        table.append((ProductLabel(a, tuple(m for m, _ in combo)), w))
    table.sort(key=lambda rec: (rec[1], rec[0].coeffs))
    return table


def product_twisted_lowest(m: ProductLabel, h: HVector) -> Fraction:
    """Lowest twisted L(0)-weight of a product label: factorwise sum."""
    return Fraction(*_sum_on_lcm([_lowest(label, x) for label, x in zip(m.labels, h.ints)]))


def spectrum_half_integral(a: ProductAlgebra, h: HVector, labels) -> bool:
    """(h|lambda) in Z/2 for all listed highest weights and (h|alpha) in Z/2 for all roots."""
    if any(2 * p % q for q, pairings in h.pairings for p in pairings):
        return False
    # 2(h|lambda) = sum over the factors of label_pairing / (scale den)
    data = a.data
    for m in labels:
        n, D = _sum_on_lcm([(label_pairing(d, label.coeffs, x), d.scale * x.den)
                            for d, label, x in zip(data, m.labels, h.ints)])
        if n % D:
            return False
    return True
