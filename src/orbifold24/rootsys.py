"""Exact models of the finite simple root systems (ranks up to 12).

Everything is computed over exact rationals.  Vectors live in the basis of
simple roots, so roots have integer coordinates and all pairings are
computed through the Gram matrix of the simple roots.  The invariant form
is normalized so that long roots have squared length 2 (hence short roots
have squared length 1, or 2/3 for G2).

Simple-root numbering follows the Bourbaki tables, which is also the
numbering used by the explicit Gram matrices this package has to match
(E6: chain 1-3-4-5-6 with node 2 on node 4, D_n: fork at the far end,
C_n: the long root last, G2: the short root first).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    """

    def __init__(self, t: SimpleType):
        self.type = t
        n = t.rank
        self.rank = n
        self.gram = _gram_matrix(t)
        self.norms = [self.gram[i][i] for i in range(n)]
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

    # -- linear algebra over the simple-root basis ------------------------

    def pair(self, u: Vec, v: Vec) -> Fraction:
        """(u|v) under the normalized invariant form."""
        total = Fraction(0)
        for i, ui in enumerate(u):
            if ui:
                row = self.gram[i]
                total += ui * sum(row[j] * vj for j, vj in enumerate(v) if vj)
        return total

    def norm(self, v: Vec) -> Fraction:
        return self.pair(v, v)

    def coroot_pairing(self, v: Vec, i: int) -> Fraction:
        """<v, alpha_i^vee> = 2(v|alpha_i)/(alpha_i|alpha_i)."""
        return sum(Fraction(self.cartan[i][j]) * v[j] for j in range(self.rank) if v[j])

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
        if len(v) != self.rank:
            raise RootSystemError(f"{self.type}: {len(v)} coordinates given, rank is {self.rank}")
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
    """Dimension of the irreducible module by the Weyl dimension formula."""
    _require_dominant_integral(d, lam)
    num = den = Fraction(1)
    lam_rho = tuple(a + b for a, b in zip(lam, d.rho))
    for a in d.positive_roots:
        num *= d.pair(lam_rho, a)
        den *= d.pair(d.rho, a)
    dim = num / den
    assert dim.denominator == 1
    return int(dim)


def min_pairing(d: RootDatum, h: Vec, lam: Vec) -> Fraction:
    """min of (h|mu) over the weight support of lam.

    Closed form: -(lam | dom(-h)).  The support lies in the convex hull of
    the Weyl orbit of lam, and (x|lam) over the orbit of x is largest at
    the dominant conjugate of x.
    """
    lam_fund = _require_dominant_integral(d, lam)
    lam = d.weight_from_fundamental(lam_fund)
    return -d.pair(lam, d.dominant_conjugate(tuple(-x for x in h)))
