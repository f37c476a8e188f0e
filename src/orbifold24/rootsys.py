"""Exact models of the finite simple root systems (ranks up to 12).

Everything is computed exactly, and in integers.  The native weight is
its vector of Dynkin labels <x, alpha_i^vee>; a weight that is not
integral carries one denominator, so a weight is an `IntWeight`: den,
den * (root coordinates) and den * (Dynkin labels).  The invariant form is
normalized so that long roots have squared length 2 (hence short roots
have squared length 1, or 2/3 for G2).

`scaled_gram` builds each type's Gram matrix in integers from its Dynkin
diagram, as scale * gram (scale is the lcm of the Gram denominators: 1 for
A/B/D/E and C2, 2 for C_n with n >= 3 and F4, 3 for G2).  A RootDatum holds
integers only.  It builds at construction what every caller reads: the
Cartan matrix, scale * gram, the roots `iroots` in root coordinates with
their rows alpha.(scale gram), and the comarks (theta|Lambda_j).  The weight
data alone is built on its first read and kept (`functools.cached_property`):
the fundamental weights in root coordinates over one denominator and the
matrix of their pairings (Lambda_i|Lambda_j) over one denominator, both from
one fraction-free inverse of the Cartan matrix.  An embedding query reads
none of it, so it builds none of it.

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
* lambda - x in Q+ is read off the root coordinates of lambda over one
  denominator (`_covers`): `dominates` takes them from lambda's labels,
  the integer combination of the fundamental weights, and
  support_contains from lambda's own IntWeight;
* the roots are the Weyl orbits of the dominant roots, walked on labels
  by Snow's rule (D. Snow, "Weyl group orbits", ACM TOMS 16, 1990): from
  an element with m_i > 0, step to s_i of it only when no label before i
  goes negative, so each orbit element is reached exactly once, with its
  labels m, from which a root's row alpha.(scale gram) is m_j times half
  the diagonal entry j;
* the whole weight support of lambda (`weight_support`, the tests' oracle
  for the closed forms) is a descent and an orbit walk: the dominant
  weights below lambda are reached from lambda by subtracting the labels
  of positive roots (`positive_labels`, built once per datum) through
  dominant weights (J. Stembridge, "The partial order of dominant
  weights", Adv. Math. 136, 1998), and each is expanded to its Weyl orbit
  by Snow's walk.  The orbits are kept in one fixed-size cache keyed by
  (datum, dominant labels), each as a frozenset of Vecs in canonical
  form, and a support is a new set, the union of its orbit sets, which
  copies their stored hashes: an orbit that is still cached is neither
  walked nor hashed again, and the supports that contain it share its
  tuples.

`Vec`, a tuple of exact rational root coordinates, is the boundary type:
the public functions (`weight_from_fundamental`, `min_pairing`,
`support_contains`, `weight_support`) take and give Vecs and convert once,
through `integral`, to the `IntWeight` that `dominant_int` and
`label_pairing` act on.  A Vec they give is in canonical form
(`_rational`): a coordinate is an `int` when it is integral and a
`Fraction` only otherwise.  As Fraction(4, 2) == 2 and the two hash alike,
values, equality and set membership are those of an all-Fraction Vec, but
an int hashes and compares in C, where Fraction.__hash__ is Python code
that takes a modular inverse.  min_pairing gives a `Fraction`, integral or
not.  `from_fundamental` makes an IntWeight from Dynkin labels;
`root_pairings` takes one and gives (x|alpha) on every root as integers
over one denominator, which is how (h|alpha) is tested for integrality or
a bound: `affine.HVector` calls it once per factor when it is made.  No
Fraction form pairs two Vecs or holds the Gram matrix, the roots or the
Weyl dimensions: the tests keep those as their oracle.

`Fields` and `Record` are the base classes of the package's value types:
`Fields` gives `__repr__` and `__eq__` over the attribute names in a class's
`_KEY`, which are also its constructor's positional arguments, and
`Record` makes a slotted type immutable, picklable and hashable on the
same names.  `SimpleType` is the first `Record`.

Simple-root numbering follows the Bourbaki tables, which is also the
numbering used by the explicit Gram matrices this package has to match
(E6: chain 1-3-4-5-6 with node 2 on node 4, D_n: fork at the far end,
C_n: the long root last, G2: the short root first).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import attrgetter, floordiv, mul, sub
from typing import Iterator, NamedTuple, Sequence

# exact rational root coordinates; a Vec this module gives holds each one in
# canonical form (`_rational`): an int when integral, else a Fraction
Vec = tuple[int | Fraction, ...]

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
    """(D, D*v) for a rational vector v, with D the lcm of its denominators,
    each of which is read once (a Fraction's is a Python property)."""
    dens = [x.denominator for x in v]
    D = lcm(*dens)
    return D, tuple([x.numerator * (D // q) for x, q in zip(v, dens)])


def _rational(num: int, den: int) -> int | Fraction:
    """num / den in canonical form: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


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


class Fields:
    """__repr__ and __eq__ over the fields named in a subclass's _KEY, which
    are also the constructor's positional arguments.  A class that defines
    __eq__ gets __hash__ = None, so a subclass is unhashable unless it is a
    Record."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_KEY" in vars(cls):
            # x._key(x) is the tuple of x's _KEY fields (the field itself when
            # there is one), read in C: as fast as a written-out tuple
            cls._key = attrgetter(*cls._KEY)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._KEY)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)


class Record(Fields):
    """An immutable Fields: it refuses assignment and deletion, pickles and
    copies by its constructor, and hashes its _KEY fields.  Its __init__ sets
    each slot once with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self._KEY)

    def __hash__(self):
        return hash(self._key(self))


class SimpleType(Record):
    """A simple Lie type X_n, e.g. SimpleType('D', 7).  Types have no order of
    their own: the package sorts them by orbifold._shape_sort_key."""

    __slots__ = ("letter", "rank")
    _KEY = ("letter", "rank")

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


def simple_types(rank: int) -> list[SimpleType]:
    """The simple types of a rank, one per isomorphism class, in letter
    order: B2 = C2 is named C2 and D3 = A3 is named A3."""
    return [SimpleType(letter, rank) for letter, ok in (
        ("A", rank >= 1), ("B", rank >= 3), ("C", rank >= 2), ("D", rank >= 4),
        ("E", rank in (6, 7, 8)), ("F", rank == 4), ("G", rank == 2),
    ) if ok and rank <= MAX_RANK]


@lru_cache(maxsize=None)
def scaled_gram(t: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(scale, scale * gram) of a type, cached: scale is the lcm of the Gram
    denominators, so the second is the integer Gram matrix igram.

    Built in integers from the Dynkin diagram as 6 gram, which is integral
    (every norm is 2, 1 or 2/3), and divided by its gcd g with 6, so that
    scale = 6 / g is the least integer that clears the denominators.  Two
    joined simple roots pair to minus half the larger of their norms.
    """
    n, letter = t.rank, t.letter
    # 6 (alpha_i|alpha_i): 12 for a long root, 6 for a short one, 4 for G2's
    norms = [12] * n
    edges = [(i, i + 1) for i in range(n - 1)]
    if letter == "B":
        norms[-1] = 6  # alpha_n short
    elif letter == "C":
        norms[:-1] = [6] * (n - 1)  # the long root last
    elif letter == "D":
        edges[-1] = (n - 3, n - 1)  # fork at the far end
    elif letter == "E":
        edges = [(0, 2)] + edges[2:] + [(1, 3)]  # chain 1-3-4-...-n, node 2 on node 4
    elif letter == "F":
        norms = [12, 12, 6, 6]
    elif letter == "G":
        norms = [4, 12]  # the short root first
    G = [[0] * n for _ in range(n)]
    for i, x in enumerate(norms):
        G[i][i] = x
    for i, j in edges:
        G[i][j] = G[j][i] = -max(norms[i], norms[j]) // 2
    g = gcd(6, *(x for row in G for x in row))
    return 6 // g, tuple(tuple(x // g for x in row) for row in G)


class RootDatum:
    """A simple root system with exact pairings, roots and weight data.

    Every member is an integer, or built of integers.  Construction builds
    what every caller reads; the four fund_* members, which come from one
    fraction-free inverse of the Cartan matrix, and positive_labels are
    built on their first read, once (`functools.cached_property`), and are
    then plain attributes of the instance.  The embedding search reads none
    of them.

    Attributes, at construction:
        type: the SimpleType.
        cartan: the Cartan matrix a[i][j] = 2(alpha_i|alpha_j)/(alpha_i|alpha_i),
            so the labels of x are cartan times its root coordinates.
        dual_coxeter: the dual Coxeter number.
        scale: lcm of the Gram denominators (1 for A/B/D/E and C2, 2 for
            C_n with n >= 3 and F4, 3 for G2).
        igram: the integer matrix scale * gram, gram the Gram matrix of the
            simple roots.
        iroots: the roots in root coordinates, sorted.
        root_rows: alpha.igram for every root alpha, in the order of iroots.
        comarks: (theta|Lambda_j), so (theta|lambda) = comarks . labels.
    on first read:
        fund_den, fund_coords: Lambda_j = fund_coords[j] / fund_den in root
            coordinates.
        fund_gram_den, fund_gram: (Lambda_i|Lambda_j) = fund_gram[i][j] / fund_gram_den.
        positive_labels: the Dynkin labels of the positive roots, in the
            order of iroots.
    """

    def __init__(self, t: SimpleType):
        self.type = t
        n = t.rank
        self.rank = n
        self.scale, igram = scaled_gram(t)
        self.igram = [list(row) for row in igram]
        if any(2 * g % row[i] for i, row in enumerate(igram) for g in row):
            raise RootSystemError(f"{t}: the Cartan matrix is not integral")
        self.cartan = [[2 * g // row[i] for g in row] for i, row in enumerate(igram)]
        # column i of the Cartan matrix (the labels of alpha_i), its non-zero entries
        self._columns = [
            tuple((j, row[i]) for j, row in enumerate(self.cartan) if row[i]) for i in range(n)
        ]

        # every root is W-conjugate to the dominant root of its length, and
        # the walk gives each root's labels m, so its row alpha.igram, which is
        # scale (alpha|alpha_j) = m_j (scale alpha_j|alpha_j)/2, is one product
        # per entry, by half the diagonal; where a diagonal entry is odd (the
        # short simple roots of B_n and C2) the product is halved instead
        diag = [row[i] for i, row in enumerate(igram)]
        if any(g % 2 for g in diag):
            twos = (2,) * n
            row_of = lambda m: tuple(map(floordiv, map(mul, m, diag), twos))
        else:
            half = [g // 2 for g in diag]
            row_of = lambda m: tuple(map(mul, m, half))
        by_length = {norm: i for i, norm in enumerate(diag)}
        roots = []
        for norm in sorted(by_length):
            i = by_length[norm]
            unit = tuple(int(j == i) for j in range(n))
            top = self.dominant_int(IntWeight(1, unit, tuple(r[i] for r in self.cartan)))
            roots.extend((w, row_of(m)) for w, m in self._orbit(top))
        if len(roots) != t.num_roots:
            raise RootSystemError(f"{t}: generated {len(roots)} roots, expected {t.num_roots}")
        roots.sort()
        self.iroots = [w for w, _ in roots]
        self.root_rows = [row for _, row in roots]
        theta = top.coords  # the dominant root of the largest norm, the highest root
        self.comarks = tuple(x * diag[j] // (2 * self.scale) for j, x in enumerate(theta))
        # h_vee = 1 + (rho|theta), and (rho|theta) is the sum of the comarks
        if 1 + sum(self.comarks) != t.dual_coxeter:
            raise RootSystemError(f"{t}: 1 + (rho|theta) is not the dual Coxeter number")
        self.dual_coxeter = t.dual_coxeter

    # -- built on first read -------------------------------------------------

    @cached_property
    def _weights(self) -> tuple[int, list[tuple[int, ...]], int, list[list[int]]]:
        """(fund_den, fund_coords, fund_gram_den, fund_gram).  Lambda_j is
        column j of cartan^-1, and (Lambda_i|Lambda_j) is
        (cartan^-1)_ij (alpha_i|alpha_i)/2, which must be symmetric."""
        n = self.rank
        p, adj = _bareiss_inverse(self.cartan)
        if p < 0:
            p, adj = -p, [[-x for x in row] for row in adj]
        g = gcd(p, *(x for row in adj for x in row))
        fund_coords = [tuple(row[j] // g for row in adj) for j in range(n)]
        F = [[x * self.igram[i][i] for x in row] for i, row in enumerate(adj)]
        if any(F[i][j] != F[j][i] for i in range(n) for j in range(i)):
            raise RootSystemError(
                f"{self.type}: the fundamental weights' Gram matrix is not symmetric"
            )
        N = 2 * self.scale * p
        h = gcd(N, *(x for row in F for x in row))
        return p // g, fund_coords, N // h, [[x // h for x in row] for row in F]

    @cached_property
    def positive_labels(self) -> list[tuple[int, ...]]:
        """The labels 2(alpha|alpha_j)/(alpha_j|alpha_j) of every positive root
        alpha: its row alpha.igram over the diagonal, doubled."""
        diag = [row[i] for i, row in enumerate(self.igram)]
        return [
            tuple(2 * x // g for x, g in zip(row, diag))
            for r, row in zip(self.iroots, self.root_rows)
            if sum(r) > 0
        ]

    @cached_property
    def fund_den(self) -> int:
        return self._weights[0]

    @cached_property
    def fund_coords(self) -> list[tuple[int, ...]]:
        return self._weights[1]

    @cached_property
    def fund_gram_den(self) -> int:
        return self._weights[2]

    @cached_property
    def fund_gram(self) -> list[list[int]]:
        return self._weights[3]

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
        return tuple(_rational(c, x.den) for c in x.coords)

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

    def _orbit(self, top: IntWeight) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
        """(root coordinates, labels), both times den, of every element of
        the Weyl orbit of a dominant weight, each yielded once.

        Snow's rule: every element but top has one parent, s_i of it for the
        first i with a negative label, so a child s_i(mu) of mu (m_i > 0) is
        taken only when its labels before i are all >= 0.  The step raises
        every other label (the off-diagonal Cartan entries are <= 0) and makes
        label i negative, so i is the child's first negative label p.  Of the
        children of an element with first negative label p (p = rank at top),
        one with i < p is taken untested, and one with i > p is refused
        untested when alpha_i is orthogonal to alpha_p, as its label p stays
        negative.
        """
        cartan, columns = self.cartan, self._columns
        first = (top.coords, top.labels)
        yield first
        stack = [(*first, self.rank)]
        while stack:
            w, m, p = stack.pop()
            for i, c in enumerate(m):
                if c > 0 and (i < p or cartan[p][i]):
                    m2 = list(m)
                    for j, a in columns[i]:
                        m2[j] -= c * a
                    if i < p or min(m2[:i]) >= 0:
                        w2 = list(w)
                        w2[i] -= c
                        w2 = tuple(w2)
                        yield w2, m2
                        stack.append((w2, m2, i))


@lru_cache(maxsize=None)
def build_root_datum(t: SimpleType) -> RootDatum:
    """Build (and cache) the root datum for a valid simple type."""
    return RootDatum(t)


# -- weight supports -------------------------------------------------------


def _require_dominant_integral(d: RootDatum, lam: Vec) -> tuple[IntWeight, tuple[int, ...]]:
    """lam as an IntWeight, and its Dynkin labels, which must be non-negative
    integers."""
    x = d.integral(lam)
    if any(m < 0 or m % x.den for m in x.labels):
        fund = ", ".join(str(_rational(m, x.den)) for m in x.labels)
        raise RootSystemError(f"{d.type}: weight ({fund}) is not dominant integral")
    return x, tuple(m // x.den for m in x.labels)


# how many Weyl orbits weight_support keeps, the latest asked
ORBIT_CACHE = 64


@lru_cache(maxsize=ORBIT_CACHE)
def _orbit_vecs(d: RootDatum, labels: tuple[int, ...]) -> frozenset[Vec]:
    """The Weyl orbit of the dominant weight with the given integer labels,
    as Vecs, walked once by Snow's rule (`_orbit`) and kept while it is
    among the ORBIT_CACHE latest asked.  Every coordinate is an integer
    over fund_den, and each distinct value is made canonical once."""
    N = d.fund_den
    # the orbit walk reads coordinates and labels on one scale, here N
    top = IntWeight(N, tuple(d._label_coords(labels)), tuple(N * x for x in labels))
    points = [w for w, _ in d._orbit(top)]
    value = {x: _rational(x, N) for x in {x for w in points for x in w}}
    return frozenset(tuple(map(value.__getitem__, w)) for w in points)


def weight_support(d: RootDatum, lam: Vec) -> set[Vec]:
    """The set of all weights of the irreducible module with highest weight lam.

    This is the enumerator, two integer walks on Dynkin labels that never
    compute multiplicities.  The dominant weights: every dominant mu <= lam
    is reached from lam by subtracting one positive root at a time through
    dominant weights (J. Stembridge, "The partial order of dominant
    weights", Adv. Math. 136, 1998), so subtracting the labels of each
    positive root (`positive_labels`) and keeping the dominant results
    finds them all.  Then the Weyl orbit of each (`_orbit_vecs`), which
    Snow's walk builds and hashes once while it stays in the orbit cache.
    The result is a new set, the union of the shared orbit sets, which
    copies their stored hashes; changing it changes no later result.  min_pairing and
    support_contains answer their questions in closed form without it, and
    the tests use it as their oracle.
    """
    labels = _require_dominant_integral(d, lam)[1]
    steps = d.positive_labels
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


def _covers(N: int, coords, x: IntWeight) -> bool:
    """Whether lambda - x lies in Q+, for lambda with root coordinates
    coords / N: every coordinate of the difference,
    (x.den coords - N x.coords) / (N x.den), must be a non-negative integer."""
    D = x.den
    ND = N * D
    return all(z >= 0 and z % ND == 0 for z in (D * l - N * y for l, y in zip(coords, x.coords)))


def dominates(d: RootDatum, labels, x: IntWeight) -> bool:
    """Whether lambda - x lies in Q+, for lambda given by its labels, whose
    root coordinates are sum_j lambda_j fund_coords[j] / fund_den."""
    return _covers(d.fund_den, d._label_coords(labels), x)


def support_contains(d: RootDatum, lam: Vec, mu: Vec) -> bool:
    """Whether mu lies in the weight support of the module with highest weight lam.

    Closed form: mu is a weight exactly when lam - mu lies in the root
    lattice Q and lam - dom(mu) in Q+, where dom is the dominant Weyl
    conjugate (the support is Weyl invariant and its dominant part is the
    dominant weights below lam).  The second condition implies the first:
    W moves an integral weight only by roots and keeps a non-integral one
    non-integral, so one test of lam - dom(mu) answers both, on the root
    coordinates of lam's own IntWeight.
    """
    x = _require_dominant_integral(d, lam)[0]
    return _covers(x.den, x.coords, d.dominant_int(d.integral(mu)))


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
    labels = _require_dominant_integral(d, lam)[1]
    x = neg_dominant(d, d.integral(h))
    return Fraction(-label_pairing(d, labels, x), 2 * d.scale * x.den)
