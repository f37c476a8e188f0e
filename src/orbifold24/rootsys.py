"""Exact models of the finite simple root systems (ranks up to 12).

Everything is computed exactly, and in integers.  The native weight is
its vector of Dynkin labels <x, alpha_i^vee>; a weight that is not
integral carries one denominator, so a weight is an `IntWeight`: den,
den * (root coordinates) and den * (Dynkin labels).  The invariant form is
normalized so that long roots have squared length 2 (hence short roots
have squared length 1, or 2/3 for G2).

Each RootDatum holds only integer data: the Cartan matrix, scale * gram
(scale is the lcm of the Gram denominators: 1 for A/B/D/E and C2, 2 for
C_n with n >= 3 and F4, 3 for G2), the roots `iroots` in root coordinates
with their rows alpha.(scale gram), the fundamental weights in root
coordinates over one denominator, the matrix of their pairings
(Lambda_i|Lambda_j) over one denominator (both from a fraction-free
inverse of the Cartan matrix), and the comarks (theta|Lambda_j).

On labels the kernels are short integer products:

* `dominant_int` walks the labels to the dominant Weyl conjugate: while a
  label m_i is negative, reflect in alpha_i (the root coordinate i rises
  by -m_i and the labels move by -m_i times column i of the Cartan
  matrix);
* (lambda|x) = sum_j lambda_j x_j (alpha_j|alpha_j)/2 for lambda given by
  its labels and x by its root coordinates (`label_pairing`), which gives
  min_pairing = -(lambda|dom(-h)); `neg_dominant` keeps dom(-h) per
  (datum, h) in one fixed-size cache, which min_pairing and affine's twist
  cache both read, so a repeated h is walked once;
* lambda - x in Q+ is read off the root coordinates of lambda, the
  integer combination of the fundamental weights (`dominates`), which
  gives support_contains;
* the roots are the Weyl orbits of the dominant roots, walked on labels
  by Snow's rule (D. Snow, "Weyl group orbits", ACM TOMS 16, 1990): from
  an element with m_i > 0, step to s_i of it only when no label before i
  goes negative, so each orbit element is reached exactly once;
* the whole weight support of lambda (`weight_support`, the tests' oracle
  for the closed forms) is a descent and an orbit walk: the dominant
  weights below lambda are reached from lambda by subtracting positive
  roots through dominant weights (J. Stembridge, "The partial order of
  dominant weights", Adv. Math. 136, 1998), and each is expanded to its
  Weyl orbit by Snow's walk.  The orbits are kept in one fixed-size
  cache keyed by (datum, dominant labels), each as a frozenset of Vecs,
  and a support is a new set, the union of its orbit sets, which copies
  their stored hashes: an orbit that is still cached is neither walked
  nor hashed again, and the supports that contain it share its tuples.

`Vec`, a tuple of `Fraction` root coordinates, is the boundary type: the
public functions (`weight_from_fundamental`, `min_pairing`,
`support_contains`, `weight_support`, `weyl_dimension`)
take and give Vecs and convert once, through `integral`, to the
`IntWeight` that `dominant_int` and `label_pairing` act on.  `from_fundamental`
makes an IntWeight from Dynkin labels; `root_pairings` takes one and gives
(x|alpha) on every root as integers over one denominator, which is how
(h|alpha) is tested for integrality or a bound: `affine.HVector` calls it
once per factor when it is made.  No Fraction form pairs two Vecs: weights
are paired in integers (`label_pairing`, `scaled_row`), and the tests keep
the Fraction form as their oracle.  The
`Fraction` accessors `roots`, `positive_roots`, `simple_roots`,
`fundamental_weights`, `rho` and `theta` are derived on each access.

Simple-root numbering follows the Bourbaki tables, which is also the
numbering used by the explicit Gram matrices this package has to match
(E6: chain 1-3-4-5-6 with node 2 on node 4, D_n: fork at the far end,
C_n: the long root last, G2: the short root first).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple

Vec = tuple[Fraction, ...]

MAX_RANK = 12

_ADJOINT_DIM = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}

_DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}


class RootSystemError(ValueError):
    pass


def _to_integral(v) -> tuple[int, tuple[int, ...]]:
    """(D, D*v) for a rational vector v, with D the lcm of its denominators."""
    D = lcm(*(x.denominator for x in v))
    return D, tuple(x.numerator * (D // x.denominator) for x in v)


class IntWeight(NamedTuple):
    """A weight x in integers: den > 0, den * (root coordinates of x) and
    den * (Dynkin labels of x).  It is hashable, so it can key a cache."""

    den: int
    coords: tuple[int, ...]
    labels: tuple[int, ...]

    def times(self, c: int) -> "IntWeight":
        return IntWeight(self.den, tuple(c * v for v in self.coords),
                         tuple(c * v for v in self.labels))


def _bareiss_inverse(M: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(p, R) with M^-1 = R / p, for an invertible integer matrix M.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [M | I]: every
    division is exact, as after step k each entry is a minor of the
    augmented matrix, and at the end the left block is p times the identity.
    """
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k]), None)
        if piv is None:
            raise RootSystemError("singular matrix")
        A[k], A[piv] = A[piv], A[k]
        top, pk = A[k], A[k][k]
        for i in range(n):
            if i != k:
                f = A[i][k]
                A[i] = [(pk * a - f * b) // prev for a, b in zip(A[i], top)]
        prev = pk
    return prev, [row[n:] for row in A]


class SimpleType:
    """A simple Lie type X_n, e.g. SimpleType('D', 7): immutable, hashable
    and ordered by (letter, rank)."""

    __slots__ = ("letter", "rank")

    def __init__(self, letter: str, rank: int):
        ok = (
            letter == "A" and rank >= 1
            or letter in ("B", "C") and rank >= 2
            or letter == "D" and rank >= 3
            or letter == "E" and rank in (6, 7, 8)
            or letter == "F" and rank == 4
            or letter == "G" and rank == 2
        )
        if not ok:
            raise RootSystemError(f"invalid simple type {letter}{rank}")
        if rank > MAX_RANK:
            raise RootSystemError(f"rank {rank} exceeds supported cap {MAX_RANK}")
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SimpleType, (self.letter, self.rank)

    def __repr__(self):
        return f"SimpleType(letter={self.letter!r}, rank={self.rank!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letter, self.rank) == (other.letter, other.rank)

    def __hash__(self):
        return hash((self.letter, self.rank))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letter, self.rank) < (other.letter, other.rank)

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letter, self.rank) <= (other.letter, other.rank)

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letter, self.rank) > (other.letter, other.rank)

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letter, self.rank) >= (other.letter, other.rank)

    @staticmethod
    def parse(s: str) -> "SimpleType":
        s = s.strip()
        if len(s) < 2 or not s[0].isalpha():
            raise RootSystemError(f"cannot parse simple type {s!r}")
        return SimpleType(s[0].upper(), int(s[1:]))

    @property
    def dim(self) -> int:
        """Dimension of the adjoint representation."""
        return _ADJOINT_DIM[self.letter](self.rank)

    @property
    def dual_coxeter(self) -> int:
        return _DUAL_COXETER[self.letter](self.rank)

    @property
    def num_roots(self) -> int:
        return self.dim - self.rank

    def __str__(self):
        return f"{self.letter}{self.rank}"


def _gram_matrix(t: SimpleType) -> list[list[Fraction]]:
    """Gram matrix (alpha_i | alpha_j) of the simple roots, long norm 2."""
    n = t.rank
    one, half = Fraction(1), Fraction(1, 2)
    G = [[Fraction(0)] * n for _ in range(n)]

    def set_edge(i, j, val):
        G[i][j] = G[j][i] = val

    if t.letter == "A":
        for i in range(n):
            G[i][i] = 2 * one
        for i in range(n - 1):
            set_edge(i, i + 1, -one)
    elif t.letter == "B":
        # alpha_n short (norm 1)
        for i in range(n):
            G[i][i] = 2 * one if i < n - 1 else one
        for i in range(n - 1):
            set_edge(i, i + 1, -one)
    elif t.letter == "C":
        # alpha_1..alpha_{n-1} short (norm 1), alpha_n long
        for i in range(n):
            G[i][i] = one if i < n - 1 else 2 * one
        for i in range(n - 2):
            set_edge(i, i + 1, -half)
        set_edge(n - 2, n - 1, -one)
    elif t.letter == "D":
        for i in range(n):
            G[i][i] = 2 * one
        for i in range(n - 2):
            set_edge(i, i + 1, -one)
        set_edge(n - 3, n - 1, -one)
    elif t.letter == "E":
        for i in range(n):
            G[i][i] = 2 * one
        chain = [0] + list(range(2, n))
        for a, b in zip(chain, chain[1:]):
            set_edge(a, b, -one)
        set_edge(1, 3, -one)
    elif t.letter == "F":
        for i, d in enumerate([2, 2, 1, 1]):
            G[i][i] = d * one
        set_edge(0, 1, -one)
        set_edge(1, 2, -one)
        set_edge(2, 3, -half)
    elif t.letter == "G":
        G[0][0] = Fraction(2, 3)
        G[1][1] = 2 * one
        set_edge(0, 1, -one)
    return G


@lru_cache(maxsize=None)
def scaled_gram(t: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, scale * gram) of a type, cached: scale is the lcm of the Gram
    denominators, so the second is the integer Gram matrix igram."""
    gram = _gram_matrix(t)
    scale = lcm(*(g.denominator for row in gram for g in row))
    return scale, tuple(tuple(int(g * scale) for g in row) for row in gram)


class RootDatum:
    """A simple root system with exact pairings, roots and weight data.

    Attributes (all integer except gram and norms):
        type: the SimpleType.
        gram: Gram matrix of the simple roots, igram / scale; norms: its diagonal.
        cartan: the Cartan matrix a[i][j] = 2(alpha_i|alpha_j)/(alpha_i|alpha_i),
            so the labels of x are cartan times its root coordinates.
        dual_coxeter: the dual Coxeter number.
        scale: lcm of the Gram denominators (1 for A/B/D/E and C2, 2 for
            C_n with n >= 3 and F4, 3 for G2).
        igram: the integer matrix scale * gram.
        iroots: the roots in root coordinates, sorted.
        root_rows: alpha.igram for every root alpha, in the order of iroots.
        positive_coroots: alpha^vee of every positive root in the basis of
            simple coroots, in the order of the positive roots in iroots.
        fund_den, fund_coords: Lambda_j = fund_coords[j] / fund_den in root
            coordinates.
        fund_gram_den, fund_gram: (Lambda_i|Lambda_j) = fund_gram[i][j] / fund_gram_den.
        comarks: (theta|Lambda_j), so (theta|lambda) = comarks . labels.
    """

    def __init__(self, t: SimpleType):
        self.type = t
        n = t.rank
        self.rank = n
        self.scale, igram = scaled_gram(t)
        self.igram = [list(row) for row in igram]
        self.gram = [[Fraction(g, self.scale) for g in row] for row in igram]
        self.norms = [self.gram[i][i] for i in range(n)]
        if any(2 * g % row[i] for i, row in enumerate(self.igram) for g in row):
            raise RootSystemError(f"{t}: the Cartan matrix is not integral")
        self.cartan = [[2 * g // row[i] for g in row] for i, row in enumerate(self.igram)]
        # column i of the Cartan matrix (the labels of alpha_i), its non-zero entries
        self._columns = [
            tuple((j, row[i]) for j, row in enumerate(self.cartan) if row[i]) for i in range(n)
        ]

        # Lambda_j is column j of cartan^-1; (Lambda_i|Lambda_j) = (cartan^-1)_ij (alpha_i|alpha_i)/2
        p, adj = _bareiss_inverse(self.cartan)
        if p < 0:
            p, adj = -p, [[-x for x in row] for row in adj]
        g = gcd(p, *(x for row in adj for x in row))
        self.fund_den = p // g
        self.fund_coords = [tuple(row[j] // g for row in adj) for j in range(n)]
        F = [[x * self.igram[i][i] for x in row] for i, row in enumerate(adj)]
        N = 2 * self.scale * p
        g = gcd(N, *(x for row in F for x in row))
        self.fund_gram_den = N // g
        self.fund_gram = [[x // g for x in row] for row in F]
        if any(F[i][j] != F[j][i] for i in range(n) for j in range(i)):
            raise RootSystemError(f"{t}: the fundamental weights' Gram matrix is not symmetric")

        # every root is W-conjugate to the dominant root of its length
        by_length = {self.igram[i][i]: i for i in range(n)}
        roots = []
        for norm in sorted(by_length):
            i = by_length[norm]
            unit = tuple(int(j == i) for j in range(n))
            top = self.dominant_int(IntWeight(1, unit, tuple(r[i] for r in self.cartan)))
            roots.extend(self._orbit(top))
        if len(roots) != t.num_roots:
            raise RootSystemError(f"{t}: generated {len(roots)} roots, expected {t.num_roots}")
        self.iroots = sorted(roots)
        theta = top.coords  # the dominant root of the largest norm, the highest root
        self.comarks = tuple(
            x * self.igram[j][j] // (2 * self.scale) for j, x in enumerate(theta)
        )
        # h_vee = 1 + (rho|theta), and (rho|theta) is the sum of the comarks
        if 1 + sum(self.comarks) != t.dual_coxeter:
            raise RootSystemError(f"{t}: 1 + (rho|theta) is not the dual Coxeter number")
        self.dual_coxeter = t.dual_coxeter

        self.root_rows = [self.scaled_row(r) for r in self.iroots]
        # alpha^vee = sum_i a_i (alpha_i|alpha_i)/(alpha|alpha) alpha_i^vee
        self.positive_coroots = []
        for r, row in zip(self.iroots, self.root_rows):
            if sum(r) > 0:
                norm = sum(map(mul, r, row))
                self.positive_coroots.append(
                    tuple(a * self.igram[i][i] // norm for i, a in enumerate(r))
                )

    # -- the Fraction accessors, derived from the integer data --------------

    @property
    def roots(self) -> list[Vec]:
        """All roots in the simple-root basis, sorted."""
        return [tuple(map(Fraction, r)) for r in self.iroots]

    @property
    def positive_roots(self) -> list[Vec]:
        return [tuple(map(Fraction, r)) for r in self.iroots if sum(r) > 0]

    @property
    def simple_roots(self) -> list[Vec]:
        return [tuple(Fraction(int(j == i)) for j in range(self.rank)) for i in range(self.rank)]

    @property
    def fundamental_weights(self) -> list[Vec]:
        return [tuple(Fraction(x, self.fund_den) for x in w) for w in self.fund_coords]

    @property
    def rho(self) -> Vec:
        """Half the sum of the positive roots, the sum of the fundamental weights."""
        return tuple(Fraction(sum(col), self.fund_den) for col in zip(*self.fund_coords))

    @property
    def theta(self) -> Vec:
        """The highest root."""
        return tuple(map(Fraction, max(self.iroots, key=sum)))

    # -- pairings of Vecs ---------------------------------------------------

    def _require_rank(self, v) -> None:
        if len(v) != self.rank:
            raise RootSystemError(f"{self.type}: {len(v)} coordinates given, rank is {self.rank}")

    def scaled_row(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """w.igram for an integer vector w."""
        self._require_rank(w)
        return tuple(sum(map(mul, w, col)) for col in self.igram)

    def root_pairings(self, x: IntWeight) -> tuple[int, list[int]]:
        """(q, [p_j]) with (x|alpha_j) = p_j / q for every root alpha_j, in the
        order of iroots; q = x.den * scale."""
        self._require_rank(x.coords)
        return x.den * self.scale, [sum(map(mul, x.coords, row)) for row in self.root_rows]

    # -- weights -----------------------------------------------------------

    def integral(self, v: Vec) -> IntWeight:
        """v with its denominators cleared, in root coordinates and labels."""
        self._require_rank(v)
        den, w = _to_integral(v)
        return IntWeight(den, w, tuple(sum(map(mul, row, w)) for row in self.cartan))

    def _label_coords(self, labels) -> list:
        """fund_den times the root coordinates of the weight with the given
        integer Dynkin labels."""
        out = [0] * self.rank
        for c, w in zip(labels, self.fund_coords):
            if c:
                for i, x in enumerate(w):
                    out[i] += c * x
        return out

    def from_fundamental(self, coeffs) -> IntWeight:
        """The IntWeight of the weight with the given (rational) Dynkin labels."""
        self._require_rank(coeffs)
        den, c = _to_integral(coeffs)
        w = self._label_coords(c)
        g = gcd(den * self.fund_den, *w)
        return IntWeight(den * self.fund_den // g, tuple(x // g for x in w),
                         tuple(x * self.fund_den // g for x in c))

    def weight_from_fundamental(self, coeffs) -> Vec:
        """The Vec of the weight with the given (rational) Dynkin labels."""
        x = self.from_fundamental(coeffs)
        return tuple(Fraction(c, x.den) for c in x.coords)

    def dominant_int(self, x: IntWeight) -> IntWeight:
        """The dominant weight in the Weyl orbit of x.

        Reflects in any simple root with a negative label until none is
        left; each step raises x by a positive multiple of a simple root,
        so the walk ends at the unique dominant point of the orbit.
        """
        w, m = list(x.coords), list(x.labels)
        while (i := next((i for i, c in enumerate(m) if c < 0), None)) is not None:
            c = m[i]
            w[i] -= c
            for j, a in self._columns[i]:
                m[j] -= c * a
        return IntWeight(x.den, tuple(w), tuple(m))

    def _orbit(self, top: IntWeight) -> list[tuple[int, ...]]:
        """Root coordinates (times den) of the Weyl orbit of a dominant weight.

        Snow's rule: every element but top has one parent, s_i of it for the
        first i with a negative label, so a child s_i(mu) of mu (m_i > 0) is
        taken only when its labels before i are all >= 0.
        """
        out = [top.coords]
        stack = [(top.coords, top.labels)]
        while stack:
            w, m = stack.pop()
            for i, c in enumerate(m):
                if c > 0:
                    m2 = list(m)
                    for j, a in self._columns[i]:
                        m2[j] -= c * a
                    if all(x >= 0 for x in m2[:i]):
                        w2 = list(w)
                        w2[i] -= c
                        w2 = tuple(w2)
                        out.append(w2)
                        stack.append((w2, m2))
        return out


@lru_cache(maxsize=None)
def build_root_datum(t: SimpleType) -> RootDatum:
    """Build (and cache) the root datum for a valid simple type."""
    return RootDatum(t)


# -- weight supports -------------------------------------------------------


def _require_dominant_integral(d: RootDatum, lam: Vec) -> tuple[int, ...]:
    x = d.integral(lam)
    if any(m < 0 or m % x.den for m in x.labels):
        fund = tuple(Fraction(m, x.den) for m in x.labels)
        raise RootSystemError(f"{d.type}: weight {fund} is not dominant integral")
    return tuple(m // x.den for m in x.labels)


# how many Weyl orbits weight_support keeps, the latest asked
ORBIT_CACHE = 64


@lru_cache(maxsize=ORBIT_CACHE)
def _orbit_vecs(d: RootDatum, labels: tuple[int, ...]) -> frozenset[Vec]:
    """The Weyl orbit of the dominant weight with the given integer labels,
    as Vecs, walked once by Snow's rule (`_orbit`) and kept while it is
    among the ORBIT_CACHE latest asked.  Every coordinate is an integer
    over fund_den, and each value gets one Fraction object."""
    N = d.fund_den
    # the orbit walk reads coordinates and labels on one scale, here N
    points = d._orbit(IntWeight(N, tuple(d._label_coords(labels)), tuple(N * x for x in labels)))
    frac = {x: Fraction(x, N) for x in {x for w in points for x in w}}
    return frozenset(tuple(map(frac.__getitem__, w)) for w in points)


def weight_support(d: RootDatum, lam: Vec) -> set[Vec]:
    """The set of all weights of the irreducible module with highest weight lam.

    This is the enumerator, two integer walks on Dynkin labels that never
    compute multiplicities.  The dominant weights: every dominant mu <= lam
    is reached from lam by subtracting one positive root at a time through
    dominant weights (J. Stembridge, "The partial order of dominant
    weights", Adv. Math. 136, 1998), so subtracting the labels of each
    positive root and keeping the dominant results finds them all.  Then
    the Weyl orbit of each (`_orbit_vecs`), which Snow's walk builds and
    hashes once while it stays in the orbit cache.  The result is a new
    set, the union of the shared orbit sets, which copies their stored
    hashes; changing it changes no later result.  min_pairing and
    support_contains answer their questions in closed form without it, and
    the tests use it as their oracle.
    """
    labels = _require_dominant_integral(d, lam)
    diag = [row[i] for i, row in enumerate(d.igram)]
    # the labels of alpha are 2(alpha|alpha_j)/(alpha_j|alpha_j)
    steps = [
        tuple(2 * x // g for x, g in zip(row, diag))
        for r, row in zip(d.iroots, d.root_rows)
        if sum(r) > 0
    ]
    dominant, stack = {labels}, [labels]
    while stack:
        m = stack.pop()
        for a in steps:
            m2 = tuple(map(sub, m, a))
            if min(m2) >= 0 and m2 not in dominant:
                dominant.add(m2)
                stack.append(m2)
    return set().union(*(_orbit_vecs(d, m) for m in dominant))


def label_pairing(d: RootDatum, labels, x: IntWeight) -> int:
    """2 scale x.den (lambda|x), for lambda given by its labels: (lambda|alpha_j)
    is lambda_j (alpha_j|alpha_j)/2, so this is one integer dot product with
    the root coordinates of x."""
    return sum(c * w * d.igram[j][j] for j, (c, w) in enumerate(zip(labels, x.coords)) if c)


def dominates(d: RootDatum, labels, x: IntWeight) -> bool:
    """Whether lambda - x lies in Q+, for lambda given by its labels.

    The root coordinates of lambda are sum_j lambda_j fund_coords[j] / fund_den;
    every coordinate of the difference must be a non-negative integer.
    """
    N, D = d.fund_den, x.den
    diffs = (D * l - N * y for l, y in zip(d._label_coords(labels), x.coords))
    return all(z >= 0 and z % (N * D) == 0 for z in diffs)


def support_contains(d: RootDatum, lam: Vec, mu: Vec) -> bool:
    """Whether mu lies in the weight support of the module with highest weight lam.

    Closed form: mu is a weight exactly when lam - mu lies in the root
    lattice Q and lam - dom(mu) in Q+, where dom is the dominant Weyl
    conjugate (the support is Weyl invariant and its dominant part is the
    dominant weights below lam).  The second condition implies the first:
    W moves an integral weight only by roots and keeps a non-integral one
    non-integral, so one test of lam - dom(mu) answers both.
    """
    return dominates(d, _require_dominant_integral(d, lam), d.dominant_int(d.integral(mu)))


def weyl_dimension(d: RootDatum, lam: Vec) -> int:
    """Dimension of the irreducible module by the Weyl dimension formula.

    prod <lam+rho, a^vee> / prod <rho, a^vee> over the positive roots, in
    integers: <lam+rho, a^vee> is the dot product of the Dynkin labels of
    lam, each plus one, with the simple-coroot coordinates of a^vee.
    """
    labels = [c + 1 for c in _require_dominant_integral(d, lam)]
    num = den = 1
    for c in d.positive_coroots:
        num *= sum(map(mul, c, labels))
        den *= sum(c)
    if num % den:
        raise RootSystemError(f"{d.type}: the Weyl dimension of {lam} is not an integer")
    return num // den


@lru_cache(maxsize=1024)
def neg_dominant(d: RootDatum, x: IntWeight) -> IntWeight:
    """dom(-x), the one walk per (datum, h) that min_pairing and the twisted
    lowest weights of every module read."""
    return d.dominant_int(x.times(-1))


def min_pairing(d: RootDatum, h: Vec, lam: Vec) -> Fraction:
    """min of (h|mu) over the weight support of lam.

    Closed form: -(lam | dom(-h)).  The support lies in the convex hull of
    the Weyl orbit of lam, and (x|lam) over the orbit of x is largest at
    the dominant conjugate of x.
    """
    labels = _require_dominant_integral(d, lam)
    x = neg_dominant(d, d.integral(h))
    return Fraction(-label_pairing(d, labels, x), 2 * d.scale * x.den)
