"""Irreducible modules of simple affine vertex algebras at positive integral level.

A module label is a dominant integral weight lambda, given by its Dynkin
labels, with (theta|lambda) <= k.  The lowest conformal weight is
(lambda+2rho|lambda) / (2(k+h_vee)); under the inner twist by a Cartan
element h it shifts to

    conformal_weight + min{(h|mu) : mu in the weight support of lambda} + k(h|h)/2.

Everything per module runs on its labels in integers: the conformal weight
through the fundamental-weight pairings of the root datum, the minimum as
-(lambda|dom(-h)), with dom(-h) computed once per (root datum, h).

Product algebras (tensor products of simple affine factors) carry one label
and one h-component per factor; all quantities add over the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from .rootsys import (
    IntWeight,
    RootDatum,
    RootSystemError,
    SimpleType,
    Vec,
    build_root_datum,
    label_pairing,
)


@dataclass(frozen=True)
class AffineLabel:
    """An irreducible module of X_{n,k}: dominant weight given by fundamental coefficients."""

    type: SimpleType
    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.level < 1:
            raise RootSystemError("level must be a positive integer")
        d = self.datum
        if len(self.coeffs) != d.rank or any(not isinstance(c, int) or c < 0 for c in self.coeffs):
            raise RootSystemError(f"bad weight coefficients {self.coeffs} for {self.type}")
        if sum(map(mul, d.comarks, self.coeffs)) > self.level:
            raise RootSystemError(
                f"{self.type} weight {self.coeffs} not admissible at level {self.level}"
            )

    @property
    def datum(self) -> RootDatum:
        return build_root_datum(self.type)

    @property
    def weight(self) -> Vec:
        return self.datum.weight_from_fundamental(self.coeffs)

    def __str__(self):
        return f"{self.type},{self.level}:({','.join(map(str, self.coeffs))})"


def enumerate_modules(t: SimpleType, k: int) -> list[AffineLabel]:
    """All module labels of X_{n,k}, ordered lexicographically by coefficients."""
    if k < 1:
        raise RootSystemError("level must be a positive integer")
    d = build_root_datum(t)
    # (theta | lambda) = sum_i c_i (theta | Lambda_i), the integer comarks
    marks = d.comarks
    labels = []

    def rec(idx, budget, acc):
        if idx == d.rank:
            labels.append(AffineLabel(t, k, tuple(acc)))
            return
        for c in range(budget // marks[idx] + 1):
            rec(idx + 1, budget - c * marks[idx], acc + [c])

    rec(0, k, [])
    labels.sort(key=lambda m: m.coeffs)
    return labels


def conformal_weight(m: AffineLabel) -> Fraction:
    """Lowest L(0)-weight of the module: (lambda+2rho|lambda)/(2(k+h_vee)).

    rho has every label 1, so on labels c this is
    sum_ij (c_i + 2) F_ij c_j / (N 2(k+h_vee)) with F / N the pairings of
    the fundamental weights.
    """
    d = m.datum
    c = m.coeffs
    num = sum((ci + 2) * sum(map(mul, row, c)) for ci, row in zip(c, d.fund_gram))
    return Fraction(num, d.fund_gram_den * 2 * (m.level + d.dual_coxeter))


@lru_cache(maxsize=1024)
def _twist(d: RootDatum, h: Vec) -> tuple[IntWeight, Fraction, bool]:
    """What every module of one factor shares under the twist by h:
    dom(-h), (h|h), and whether (h|alpha) >= -1 on every root."""
    q, pairings = d.root_pairings(h)
    above = all(p >= -q for p in pairings)
    return d.dominant_int(tuple(-v for v in h)), d.pair(h, h), above


def twisted_lowest(m: AffineLabel, h: Vec) -> Fraction:
    """Lowest L(0)-weight of the module twisted by the inner automorphism of h.

    The minimum of (h|mu) over the support is -(lambda|dom(-h)).
    """
    d = m.datum
    neg_dom, hh, _ = _twist(d, tuple(h))
    return conformal_weight(m) - label_pairing(d, m.coeffs, neg_dom) + m.level * hh / 2


@dataclass(frozen=True)
class TwistClassification:
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
    d = m.datum
    neg_dom, _, above = _twist(d, tuple(h))
    if not above:
        return TwistClassification("precondition_violated")
    val = twisted_lowest(m, h)
    if val > 0:
        return TwistClassification("positive", val)
    if val < 0:
        return TwistClassification("negative_violation", val)
    if all(c == 0 for c in m.coeffs) and all(x == 0 for x in h):
        return TwistClassification("zero_with_witness", val, "vacuum")
    # dom(-k h) = k dom(-h); compare its labels with lambda
    k = m.level
    for j in range(d.rank):
        lam_j = tuple(k if i == j else 0 for i in range(d.rank))
        if m.coeffs == lam_j and all(
            k * x == neg_dom.den * c for x, c in zip(neg_dom.labels, m.coeffs)
        ):
            return TwistClassification("zero_with_witness", val, f"j={j + 1}")
    return TwistClassification("negative_violation", val, "zero without witness")


@dataclass(frozen=True)
class ProductAlgebra:
    """An ordered tensor product of simple affine factors at positive levels."""

    factors: tuple[tuple[SimpleType, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise RootSystemError("product algebra needs at least one factor")
        if any(k < 1 for _, k in self.factors):
            raise RootSystemError("levels must be positive")

    @staticmethod
    def of(*factors) -> "ProductAlgebra":
        return ProductAlgebra(tuple((SimpleType.parse(t) if isinstance(t, str) else t, k) for t, k in factors))

    @property
    def data(self) -> list[RootDatum]:
        return [build_root_datum(t) for t, _ in self.factors]

    @property
    def rank(self) -> int:
        return sum(t.rank for t, _ in self.factors)

    @property
    def dim(self) -> int:
        return sum(t.dim for t, _ in self.factors)

    def __str__(self):
        return " ".join(f"{t},{k}" for t, k in self.factors)


@dataclass(frozen=True)
class ProductLabel:
    algebra: ProductAlgebra
    labels: tuple[AffineLabel, ...]

    @property
    def coeffs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(m.coeffs for m in self.labels)

    def __str__(self):
        return "(" + "; ".join(",".join(map(str, m.coeffs)) for m in self.labels) + ")"


@dataclass(frozen=True)
class HVector:
    """One Cartan component per factor, in each factor's simple-root basis."""

    algebra: ProductAlgebra
    components: tuple[Vec, ...]

    @staticmethod
    def from_fundamental(algebra: ProductAlgebra, coeff_lists) -> "HVector":
        if len(coeff_lists) != len(algebra.factors):
            raise RootSystemError(
                f"{algebra} needs one coefficient list per factor, got {len(coeff_lists)}"
            )
        comps = []
        for (t, _), coeffs in zip(algebra.factors, coeff_lists):
            d = build_root_datum(t)
            if len(coeffs) != d.rank:
                raise RootSystemError(f"{t} needs {d.rank} coefficients, got {len(coeffs)}")
            comps.append(d.weight_from_fundamental([Fraction(c) for c in coeffs]))
        return HVector(algebra, tuple(comps))

    def norm_invariant(self) -> Fraction:
        """<h|h> = sum_i k_i (h_i|h_i)."""
        total = Fraction(0)
        for (t, k), h in zip(self.algebra.factors, self.components):
            total += k * build_root_datum(t).pair(h, h)
        return total


def integral_spectrum_table(
    a: ProductAlgebra, max_weight, weight_set=None
) -> list[tuple[ProductLabel, Fraction]]:
    """All product labels with integral total conformal weight.

    By default every nonnegative integer weight <= max_weight is kept; a
    table that is keyed differently (weights in a given set) can pass
    weight_set explicitly.  Output is ordered by (weight, coefficients).
    """
    max_weight = Fraction(max_weight)
    if max_weight < 0:
        raise RootSystemError("max_weight must be nonnegative")
    per_factor = []
    for t, k in a.factors:
        mods = enumerate_modules(t, k)
        per_factor.append([(m, conformal_weight(m)) for m in mods])
    table = []
    for combo in product(*per_factor):
        total = sum((w for _, w in combo), Fraction(0))
        if total.denominator != 1 or total > max_weight:
            continue
        if weight_set is not None and total not in weight_set:
            continue
        table.append((ProductLabel(a, tuple(m for m, _ in combo)), total))
    table.sort(key=lambda rec: (rec[1], rec[0].coeffs))
    return table


def product_twisted_lowest(m: ProductLabel, h: HVector) -> Fraction:
    """Lowest twisted L(0)-weight of a product label: factorwise sum."""
    total = Fraction(0)
    for label, comp in zip(m.labels, h.components):
        total += twisted_lowest(label, comp)
    return total


def spectrum_half_integral(a: ProductAlgebra, h: HVector, labels) -> bool:
    """(h|lambda) in Z/2 for all listed highest weights and (h|alpha) in Z/2 for all roots."""
    for d, comp in zip(a.data, h.components):
        q, pairings = d.root_pairings(comp)
        if any(2 * p % q for p in pairings):
            return False
    hs = [d.integral(comp) for d, comp in zip(a.data, h.components)]
    for m in labels:
        val = Fraction(0)
        for label, x in zip(m.labels, hs):
            val += label_pairing(label.datum, label.coeffs, x)
        if (2 * val).denominator != 1:
            return False
    return True
