"""Irreducible modules of simple affine vertex algebras at positive integral level.

A module label is a dominant integral weight lambda with (theta|lambda) <= k.
The lowest conformal weight is (lambda+2rho|lambda) / (2(k+h_vee)); under the
inner twist by a Cartan element h it shifts to

    conformal_weight + min{(h|mu) : mu in the weight support of lambda} + k(h|h)/2.

Product algebras (tensor products of simple affine factors) carry one label
and one h-component per factor; all quantities add over the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .rootsys import (
    RootDatum,
    RootSystemError,
    SimpleType,
    Vec,
    build_root_datum,
    min_pairing,
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
        if len(self.coeffs) != d.rank or any(c < 0 for c in self.coeffs):
            raise RootSystemError(f"bad weight coefficients {self.coeffs} for {self.type}")
        lam = d.weight_from_fundamental(self.coeffs)
        if d.pair(d.theta, lam) > self.level:
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
    # (theta | lambda) = sum_i c_i (theta | Lambda_i); the marks are integers here
    marks = [d.pair(d.theta, w) for w in d.fundamental_weights]
    assert all(m.denominator == 1 for m in marks)
    marks = [int(m) for m in marks]
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
    """Lowest L(0)-weight of the module: (lambda+2rho|lambda)/(2(k+h_vee))."""
    d = m.datum
    lam = m.weight
    lam2rho = tuple(a + 2 * b for a, b in zip(lam, d.rho))
    return d.pair(lam2rho, lam) / (2 * (m.level + d.dual_coxeter))


def twisted_lowest(m: AffineLabel, h: Vec) -> Fraction:
    """Lowest L(0)-weight of the module twisted by the inner automorphism of h."""
    d = m.datum
    return (
        conformal_weight(m)
        + min_pairing(d, h, m.weight)
        + Fraction(m.level) * d.pair(h, h) / 2
    )


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
    if any(v < -1 for v in d.pair_with_roots(h)):
        return TwistClassification("precondition_violated")
    val = twisted_lowest(m, h)
    if val > 0:
        return TwistClassification("positive", val)
    if val < 0:
        return TwistClassification("negative_violation", val)
    if all(c == 0 for c in m.coeffs) and all(x == 0 for x in h):
        return TwistClassification("zero_with_witness", val, "vacuum")
    minus_kh = tuple(-m.level * x for x in h)
    for j in range(d.rank):
        lam_j = tuple(m.level if i == j else 0 for i in range(d.rank))
        if m.coeffs == lam_j and d.dominant_conjugate(minus_kh) == m.weight:
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

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in c) for c in self.components)


def product_conformal_weight(m: ProductLabel) -> Fraction:
    return sum((conformal_weight(f) for f in m.labels), Fraction(0))


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
    for (t, _), comp in zip(a.factors, h.components):
        if any((2 * v).denominator != 1 for v in build_root_datum(t).pair_with_roots(comp)):
            return False
    for m in labels:
        val = Fraction(0)
        for label, comp in zip(m.labels, h.components):
            val += label.datum.pair(comp, label.weight)
        if (2 * val).denominator != 1:
            return False
    return True
