"""Independent root-system arithmetic used to check the program's answers.

Nothing here imports orbifold24.  Each simple type is rebuilt from its own
Dynkin data (Bourbaki numbering, the same numbering the program uses) as an
integer Cartan matrix plus integer squared lengths; weights are integer
Dynkin-label tuples (Cartan elements h are stored doubled, as 2h, so their
labels stay integral).  Fractions appear only in returned pairings.

Closed forms (Humphreys, Introduction to Lie Algebras, 13.2, 13.4, 21.3):

* a dominant weight mu lies in the weight support of L(lambda) iff
  lambda - mu is a nonnegative integer combination of simple roots;
* the support is Weyl invariant, so a weight mu lies in it iff its dominant
  conjugate does;
* min over the support of (h|mu) is -(lambda | dom(-h)), where dom is the
  dominant conjugate, because the Weyl orbit of lambda spans the hull of
  the support.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _scaled_gram(letter: str, n: int):
    """Gram matrix of the simple roots times a scale s, as integers, and s.

    Long roots have squared length 2 before scaling.
    """
    B = [[0] * n for _ in range(n)]

    def edge(i, j, v):
        B[i][j] = B[j][i] = v

    if letter in "ADE":
        s = 1
        for i in range(n):
            B[i][i] = 2
        if letter == "A":
            chain = list(range(n))
        elif letter == "D":
            chain = list(range(n - 1))
            edge(n - 3, n - 1, -1)
        else:  # E: chain 1-3-4-...-n, node 2 on node 4
            chain = [0] + list(range(2, n))
            edge(1, 3, -1)
        for a, b in zip(chain, chain[1:]):
            edge(a, b, -1)
    elif letter == "B":  # alpha_n short
        s = 1
        for i in range(n):
            B[i][i] = 2 if i < n - 1 else 1
            if i < n - 1:
                edge(i, i + 1, -1)
    elif letter == "C":  # alpha_1..alpha_{n-1} short, alpha_n long
        s = 2
        for i in range(n):
            B[i][i] = 2 if i < n - 1 else 4
        for i in range(n - 2):
            edge(i, i + 1, -1)
        edge(n - 2, n - 1, -2)
    elif letter == "F":  # alpha_1, alpha_2 long
        s = 2
        for i, v in enumerate((4, 4, 2, 2)):
            B[i][i] = v
        edge(0, 1, -2)
        edge(1, 2, -2)
        edge(2, 3, -1)
    elif letter == "G":  # alpha_1 short
        s = 3
        B[0][0], B[1][1] = 2, 6
        edge(0, 1, -3)
    else:
        raise ValueError(f"unknown type letter {letter!r}")
    return B, s


def _inverse_times_det(A):
    """(det A, det A * A^{-1}) for an integer matrix, by exact elimination."""
    n = len(A)
    M = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col])
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    d = int(det)
    adj = [[d * M[i][n + j] for j in range(n)] for i in range(n)]
    assert det.denominator == 1 and all(v.denominator == 1 for row in adj for v in row)
    return d, [[int(v) for v in row] for row in adj]


class Roots:
    """A simple root system in integer Dynkin-label arithmetic."""

    def __init__(self, letter: str, n: int):
        self.name = f"{letter}{n}"
        self.rank = n
        self.B, self.s = _scaled_gram(letter, n)
        self.A = [[2 * self.B[i][j] // self.B[i][i] for j in range(n)] for i in range(n)]
        assert all(2 * self.B[i][j] % self.B[i][i] == 0 for i in range(n) for j in range(n))
        self.det, self.adj = _inverse_times_det(self.A)
        # Dynkin labels of alpha_j: column j of A
        self.alpha = [tuple(self.A[i][j] for i in range(n)) for j in range(n)]
        self.roots = self._roots()  # root-basis coordinates
        self.theta = max(self.roots, key=sum)
        # comarks (theta | Lambda_i) = c_i (alpha_i|alpha_i) / 2
        comarks = [Fraction(c * self.B[i][i], 2 * self.s) for i, c in enumerate(self.theta)]
        assert all(c.denominator == 1 for c in comarks)
        self.comarks = [int(c) for c in comarks]
        self.dual_coxeter = 1 + sum(self.comarks)
        self.dim = n + len(self.roots)

    def _roots(self):
        n = self.rank
        seen = set()
        queue = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        seen.update(queue)
        while queue:
            c = queue.pop()
            m = self.dynkin_of_root_coords(c)
            for i in range(n):
                if m[i]:
                    c2 = c[:i] + (c[i] - m[i],) + c[i + 1:]
                    if c2 not in seen:
                        seen.add(c2)
                        queue.append(c2)
        return sorted(seen)

    # -- coordinates ------------------------------------------------------

    def dynkin_of_root_coords(self, c):
        return tuple(sum(a * x for a, x in zip(row, c)) for row in self.A)

    def root_coords_times_det(self, m):
        """det * (root-basis coordinates) of a weight with Dynkin labels m."""
        return tuple(sum(a * x for a, x in zip(row, m)) for row in self.adj)

    # -- Weyl group -------------------------------------------------------

    def reflect(self, m, i):
        mi = m[i]
        if not mi:
            return m
        return tuple(x - mi * a for x, a in zip(m, self.alpha[i]))

    def dominant(self, m):
        """Dominant Weyl conjugate, reached by simple reflections."""
        m = tuple(m)
        while True:
            i = next((i for i, x in enumerate(m) if x < 0), None)
            if i is None:
                return m
            m = self.reflect(m, i)

    # -- the invariant form -----------------------------------------------

    def pair(self, mu, nu) -> Fraction:
        """(mu|nu) for weights given by Dynkin labels (long roots of norm 2)."""
        c = self.root_coords_times_det(mu)
        num = sum(ck * self.B[k][k] * nk for k, (ck, nk) in enumerate(zip(c, nu)))
        return Fraction(num, 2 * self.s * self.det)

    def h_root_pairing(self, h2, c) -> Fraction:
        """(h|alpha) for h stored doubled and alpha in root coordinates."""
        num = sum(ck * self.B[k][k] * hk for k, (ck, hk) in enumerate(zip(c, h2)))
        return Fraction(num, 4 * self.s)

    # -- closed forms -----------------------------------------------------

    def in_root_lattice(self, m) -> bool:
        return all(x % self.det == 0 for x in self.root_coords_times_det(m))

    def in_positive_cone(self, m) -> bool:
        """Whether the weight with labels m lies in Q+ (nonnegative integer
        combinations of simple roots)."""
        return all(x % self.det == 0 and x >= 0 for x in self.root_coords_times_det(m))

    def support_contains(self, lam, mu) -> bool:
        diff = tuple(a - b for a, b in zip(lam, mu))
        if not self.in_root_lattice(diff):
            return False
        dom = self.dominant(mu)
        return self.in_positive_cone(tuple(a - b for a, b in zip(lam, dom)))

    def min_pairing(self, lam, h2) -> Fraction:
        """min over the support of L(lam) of (h|mu), h given doubled."""
        dom = self.dominant(tuple(-x for x in h2))
        return -self.pair(lam, dom) / 2

    def dominant_support(self, lam):
        """All dominant weights of L(lam), as Dynkin labels, by a box search
        over lam - mu in Q+ (root coordinates of a dominant weight are >= 0)."""
        n = self.rank
        bound = [x // self.det for x in self.root_coords_times_det(lam)]
        out = []

        def rec(i, m):
            if i == n:
                if all(x >= 0 for x in m):
                    out.append(m)
                return
            for v in range(bound[i] + 1):
                rec(i + 1, tuple(x - v * a for x, a in zip(m, self.alpha[i])))

        rec(0, tuple(lam))
        return out

    def modules(self, level: int):
        """Dynkin labels lam >= 0 with (theta|lam) <= level, lexicographic."""
        out = []

        def rec(i, budget, acc):
            if i == self.rank:
                out.append(tuple(acc))
                return
            for c in range(budget // self.comarks[i] + 1):
                rec(i + 1, budget - c * self.comarks[i], acc + [c])

        rec(0, level, [])
        return out


@lru_cache(maxsize=None)
def roots(name: str) -> Roots:
    """The root system of a type written like 'E7' or 'D12'."""
    return Roots(name[0].upper(), int(name[1:]))
