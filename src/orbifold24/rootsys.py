"""Exact models of the finite simple root systems (ranks up to 12).

Everything is computed exactly.  Vectors live in the basis of simple
roots, so roots have integer coordinates and all pairings are computed
through the Gram matrix of the simple roots.  The invariant form is
normalized so that long roots have squared length 2 (hence short roots have
squared length 1, or 2/3 for G2).

Pairings run in one integer kernel: each RootDatum scales its Gram matrix
by the lcm of its denominators (1 for A/B/D/E and C2, 2 for C_n with n >= 3
and F4, 3 for G2).  `pair` clears the denominators of both vectors, takes
one integer product against scale * gram and divides once, so its result is
the exact rational (u|v).  The integer row alpha.(scale gram) of every root
is kept, so (v|alpha) for all roots is one integer dot product per root.
The Weyl dimension formula runs in integers on the coroot coordinates of
the positive roots.

Simple-root numbering follows the Bourbaki tables, which is also the
numbering used by the explicit Gram matrices this package has to match
(E6: chain 1-3-4-5-6 with node 2 on node 4, D_n: fork at the far end,
C_n: the long root last, G2: the short root first).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

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


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Lie type X_n, e.g. SimpleType('D', 7)."""

    letter: str
    rank: int

    def __post_init__(self):
        ok = (
            self.letter == "A" and self.rank >= 1
            or self.letter in ("B", "C") and self.rank >= 2
            or self.letter == "D" and self.rank >= 3
            or self.letter == "E" and self.rank in (6, 7, 8)
            or self.letter == "F" and self.rank == 4
            or self.letter == "G" and self.rank == 2
        )
        if not ok:
            raise RootSystemError(f"invalid simple type {self.letter}{self.rank}")
        if self.rank > MAX_RANK:
            raise RootSystemError(f"rank {self.rank} exceeds supported cap {MAX_RANK}")

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


class RootDatum:
    """A simple root system with exact pairings, roots and weight data.

    Attributes:
        type: the SimpleType.
        gram: Gram matrix of the simple roots.
        cartan: integer Cartan matrix a[i][j] = 2(alpha_i|alpha_j)/(alpha_i|alpha_i).
        roots: all roots, integer coordinates in the simple-root basis.
        fundamental_weights: Lambda_1..Lambda_n in the simple-root basis.
        rho: half-sum of positive roots (= sum of fundamental weights).
        theta: the highest root.
        dual_coxeter: the dual Coxeter number.
        scale: lcm of the Gram denominators (1 for A/B/D/E and C2, 2 for
            C_n with n >= 3 and F4, 3 for G2).
        igram: the integer matrix scale * gram.
        iroots: the roots as integer tuples, in the order of roots.
        root_rows: alpha.igram for every root alpha, in the order of roots.
        positive_coroots: alpha^vee of every positive root in the basis of
            simple coroots, in the order of positive_roots.
    """

    def __init__(self, t: SimpleType):
        self.type = t
        n = t.rank
        self.rank = n
        self.gram = _gram_matrix(t)
        self.norms = [self.gram[i][i] for i in range(n)]
        self.scale = lcm(*(g.denominator for row in self.gram for g in row))
        self.igram = [[int(g * self.scale) for g in row] for row in self.gram]
        cartan = [[2 * self.gram[i][j] / self.gram[i][i] for j in range(n)] for i in range(n)]
        assert all(v.denominator == 1 for row in cartan for v in row)
        self.cartan = [[int(v) for v in row] for row in cartan]

        self.simple_roots: list[Vec] = [
            tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)
        ]
        # every root is W-conjugate to a simple root of the same length
        by_length = {norm: a for norm, a in zip(self.norms, self.simple_roots)}
        self.roots: list[Vec] = sorted(set().union(*map(self.weyl_orbit, by_length.values())))
        if len(self.roots) != t.num_roots:
            raise RootSystemError(
                f"{t}: generated {len(self.roots)} roots, expected {t.num_roots}"
            )
        self.fundamental_weights: list[Vec] = [
            self._solve_gram([self.gram[i][i] / 2 if i == j else Fraction(0) for i in range(n)])
            for j in range(n)
        ]
        self.rho: Vec = tuple(sum(w[i] for w in self.fundamental_weights) for i in range(n))
        self.theta: Vec = self.dominant_conjugate(by_length[max(by_length)])
        hv = 1 + self.pair(self.rho, self.theta)
        assert hv.denominator == 1 and int(hv) == t.dual_coxeter
        self.dual_coxeter = int(hv)
        self.positive_roots = [r for r in self.roots if sum(r) > 0]

        self.iroots = [tuple(map(int, r)) for r in self.roots]
        self.root_rows = [self.scaled_row(r) for r in self.iroots]
        # alpha^vee = sum_i a_i (alpha_i|alpha_i)/(alpha|alpha) alpha_i^vee
        self.positive_coroots = []
        for r, row in zip(self.iroots, self.root_rows):
            if sum(r) > 0:
                norm = sum(map(mul, r, row))
                self.positive_coroots.append(
                    tuple(a * self.igram[i][i] // norm for i, a in enumerate(r))
                )

    # -- linear algebra over the simple-root basis ------------------------

    def _require_rank(self, v) -> None:
        if len(v) != self.rank:
            raise RootSystemError(f"{self.type}: {len(v)} coordinates given, rank is {self.rank}")

    def pair(self, u: Vec, v: Vec) -> Fraction:
        """(u|v) under the normalized invariant form, computed in integers."""
        self._require_rank(v)
        du, wu = _to_integral(u)
        dv, wv = _to_integral(v)
        return Fraction(sum(map(mul, self.scaled_row(wu), wv)), du * dv * self.scale)

    def norm(self, v: Vec) -> Fraction:
        return self.pair(v, v)

    def coroot_pairing(self, v: Vec, i: int) -> Fraction:
        """<v, alpha_i^vee> = 2(v|alpha_i)/(alpha_i|alpha_i)."""
        return sum((a * x for a, x in zip(self.cartan[i], v) if a and x), Fraction(0))

    def reflect(self, v: Vec, i: int) -> Vec:
        c = self.coroot_pairing(v, i)
        if not c:
            return v
        out = list(v)
        out[i] -= c
        return tuple(out)

    def _solve_gram(self, rhs: list[Fraction]) -> Vec:
        n = self.rank
        M = [row[:] + [rhs[i]] for i, row in enumerate(self.gram)]
        for col in range(n):
            piv = next(r for r in range(col, n) if M[r][col])
            M[col], M[piv] = M[piv], M[col]
            inv = 1 / M[col][col]
            M[col] = [x * inv for x in M[col]]
            for r in range(n):
                if r != col and M[r][col]:
                    f = M[r][col]
                    M[r] = [a - f * b for a, b in zip(M[r], M[col])]
        return tuple(M[i][n] for i in range(n))

    # -- the integer kernel ------------------------------------------------

    def scaled_row(self, w: tuple[int, ...]) -> tuple[int, ...]:
        """w.igram for an integer vector w."""
        self._require_rank(w)
        return tuple(sum(map(mul, w, col)) for col in self.igram)

    def pair_with_roots(self, v: Vec) -> list[Fraction]:
        """(v|alpha) for every root alpha, in the order of roots."""
        self._require_rank(v)
        den, w = _to_integral(v)
        den *= self.scale
        return [Fraction(sum(map(mul, w, row)), den) for row in self.root_rows]

    # -- weights -----------------------------------------------------------

    def weight_from_fundamental(self, coeffs) -> Vec:
        n = self.rank
        out = [Fraction(0)] * n
        for j, c in enumerate(coeffs):
            if c:
                c = Fraction(c)
                w = self.fundamental_weights[j]
                for i in range(n):
                    out[i] += c * w[i]
        return tuple(out)

    def weight_to_fundamental(self, v: Vec) -> Vec:
        self._require_rank(v)
        return tuple(self.coroot_pairing(v, i) for i in range(self.rank))

    def weyl_orbit(self, v: Vec) -> set[Vec]:
        seen = {v}
        queue = [v]
        while queue:
            u = queue.pop()
            for i in range(self.rank):
                w = self.reflect(u, i)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def dominant_conjugate(self, v: Vec) -> Vec:
        """The dominant weight in the Weyl orbit of v.

        Reflects in any simple root with a negative coroot pairing until
        none is left; each step raises v by a positive multiple of a simple
        root, so the walk ends at the unique dominant point of the orbit.
        """
        v = list(v)
        m = list(self.weight_to_fundamental(v))
        while (i := next((i for i, x in enumerate(m) if x < 0), None)) is not None:
            c = m[i]
            v[i] -= c
            for j, row in enumerate(self.cartan):
                if row[i]:
                    m[j] -= c * row[i]
        return tuple(v)


@lru_cache(maxsize=None)
def build_root_datum(t: SimpleType) -> RootDatum:
    """Build (and cache) the root datum for a valid simple type."""
    return RootDatum(t)


# -- weight supports -------------------------------------------------------


def _dominant_coefficient_states(d: RootDatum, lam_fund: tuple[int, ...]):
    """All c >= 0 (integer, simple-root basis) with lam - c.alpha dominant.

    The coefficients of lam in the simple-root basis bound c componentwise
    because the inverse Cartan matrix has nonnegative entries.
    """
    n = d.rank
    lam = d.weight_from_fundamental(lam_fund)
    bounds = [int(x) for x in lam]  # lam is dominant: root-basis coords are >= 0
    A = d.cartan
    states = []

    def rec(idx, c, m):
        if idx == n:
            if all(x >= 0 for x in m):
                states.append(tuple(c))
            return
        for v in range(bounds[idx] + 1):
            c[idx] = v
            rec(idx + 1, c, [m[j] - v * A[j][idx] for j in range(n)])
        c[idx] = 0

    rec(0, [0] * n, list(lam_fund))
    return states


def _require_dominant_integral(d: RootDatum, lam: Vec) -> tuple[int, ...]:
    fund = d.weight_to_fundamental(lam)
    if not all(c.denominator == 1 and c >= 0 for c in fund):
        raise RootSystemError(f"{d.type}: weight {fund} is not dominant integral")
    return tuple(int(c) for c in fund)


def weight_support(d: RootDatum, lam: Vec) -> set[Vec]:
    """The set of all weights of the irreducible module with highest weight lam.

    This is the enumerator: the dominant weights lam - c.alpha (c >= 0)
    closed under the simple reflections; multiplicities are never computed.
    min_pairing and support_contains answer their questions in closed form
    without it, and the tests use it as their oracle.
    """
    lam_fund = _require_dominant_integral(d, lam)
    lam = d.weight_from_fundamental(lam_fund)
    n = d.rank
    A = d.cartan
    seen = set(_dominant_coefficient_states(d, lam_fund))
    queue = [
        (c, tuple(lam_fund[j] - sum(A[j][i] * c[i] for i in range(n)) for j in range(n)))
        for c in seen
    ]
    while queue:
        c, m = queue.pop()
        for i in range(n):
            if m[i]:
                # sigma_i: mu -> mu - m_i alpha_i, i.e. c_i += m_i
                c2 = list(c)
                c2[i] += m[i]
                c2 = tuple(c2)
                if c2 not in seen:
                    seen.add(c2)
                    m2 = tuple(m[j] - m[i] * A[j][i] for j in range(n))
                    queue.append((c2, m2))
    return {tuple(lam[j] - c[j] for j in range(n)) for c in seen}


def support_contains(d: RootDatum, lam: Vec, mu: Vec) -> bool:
    """Whether mu lies in the weight support of the module with highest weight lam.

    Closed form: mu is a weight exactly when lam - mu lies in the root
    lattice Q and lam - dom(mu) in Q+, where dom is the dominant Weyl
    conjugate (the support is Weyl invariant and its dominant part is the
    dominant weights below lam).  The second condition implies the first:
    W moves an integral weight only by roots and keeps a non-integral one
    non-integral, so one test of lam - dom(mu) answers both.
    """
    lam_fund = _require_dominant_integral(d, lam)
    lam = d.weight_from_fundamental(lam_fund)
    diff = (l - m for l, m in zip(lam, d.dominant_conjugate(mu)))
    return all(x.denominator == 1 and x >= 0 for x in diff)


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
    assert num % den == 0
    return num // den


def min_pairing(d: RootDatum, h: Vec, lam: Vec) -> Fraction:
    """min of (h|mu) over the weight support of lam.

    Closed form: -(lam | dom(-h)).  The support lies in the convex hull of
    the Weyl orbit of lam, and (x|lam) over the orbit of x is largest at
    the dominant conjugate of x.
    """
    lam_fund = _require_dominant_integral(d, lam)
    lam = d.weight_from_fundamental(lam_fund)
    return -d.pair(lam, d.dominant_conjugate(tuple(-x for x in h)))
