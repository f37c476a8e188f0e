"""The rank-24 even unimodular lattice glued from six A4 blocks mod 5.

A vector is six blocks in the standard sum-zero model of A4, and a block v
of A4* is the integer vector m = 5v.  A lattice vector is the flat tuple of
its 30 integers: the tables, the basis, the Gram matrix, membership,
`tau0` and every bounded enumeration work on these, and `dot` of two of
them is 25 times their product.  The glue code lives in (Z/5)^6; digit g
glues by the coset of g*(1,1,1,1,-4)/5, so every coordinate of m is the
digit mod 5.  The order-5 isometry cycles the last five blocks.  Membership,
`tau0`, `in_projected_lattice` and the two shifted-norm bounds refuse, with
a LatticeError naming the length, anything but 30 integers.

The inner twist's h is the integer vector 10h (`H_DEN`), integral for every
order-2 h on A4; it is also 2h as a lattice vector.  The shifts of the
order-5 twist are `DELTA5`.  The norm bounds for h take coset minima around
its rational centers in closed form, as integer squared distances in one
unit, and a Fraction is made once, for the value returned.

Fraction blocks are made, by `_block`, only for the vectors that leave as
sets: the vectors of bounded norm and the roots, the shifted minimal sets
and the twisted weight-one weights.  The twisted weight-one search and the
twist anomaly run in integers too.

The norm <= 4 vectors are 193 801 acyclic tuples, each a three-block
prefix joined to one of a glue word's lists of three-block suffixes, which
`_enumerate` builds per word and budget.  The cyclic collector is
paused while they are built, and then, unless the caller had the collector
disabled or has frozen objects of its own, `_enumerate` hands them to the
oldest generation with `gc.freeze()` and `gc.unfreeze()`, so the collector
walks them once, at a full collection, instead of at each generation.

The module is block arithmetic only: it imports no other module of the
package, so loading it builds no root system.  The fixed-point shape of the
inner twist, which names Lie types, is `scenarios.fixed_shape_A45`.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import mul

Block = tuple[Fraction, ...]
LVec = tuple[Block, ...]


class LatticeError(ValueError):
    pass


GLUE_GENERATORS = (
    (1, 0, 1, 4, 4, 1),
    (1, 1, 0, 1, 4, 4),
    (1, 4, 1, 0, 1, 4),
    (1, 4, 4, 1, 0, 1),
)

A4_SIMPLE = (
    (1, -1, 0, 0, 0),
    (0, 1, -1, 0, 0),
    (0, 0, 1, -1, 0),
    (0, 0, 0, 1, -1),
)

# the fixed blocks below are given as their integer vectors 5v
ZERO5 = (0,) * 5
# the glue representative [1]; digit g glues by g*GLUE5/5 mod A4
GLUE5 = (1, 1, 1, 1, -4)
# Lambda', the first block of 2h
LAMBDA5 = (5, -5, 0, -5, 5)
# shift vectors of the order-5 twist, both of norm 2/5
DELTA5 = {1: (2, 1, 0, -1, -2), 2: (-1, 2, 0, -2, 1)}
# h is given as the integer vector H_DEN * h, which is also 5(2h)
H_DEN = 10

BETA5 = {
    0: (-2, 2, 1, 0, -1),
    1: (0, -1, -2, 2, 1),
    2: (2, 1, 0, -1, -2),
    3: (-1, -2, 2, 1, 0),
    4: (1, 0, -1, -2, 2),
}


def dot(x, y) -> int:
    """The integer product of two integer vectors: 25 (x|y) for two lattice
    vectors given as 5x and 5y, H_DEN^2 (h|h) for h given as H_DEN h."""
    return sum(map(mul, x, y))


def _block(m) -> Block:
    """The block m/5 of an integer vector m."""
    return tuple(Fraction(x, 5) for x in m)


def _blocks(v):
    """The six blocks of a flat integer vector."""
    return (v[i : i + 5] for i in range(0, 30, 5))


def _require_flat(v) -> None:
    """Refuse anything but a flat vector: 30 integers, five per block."""
    if len(v) != 30:
        raise LatticeError(f"{len(v)} coordinates given, a flat vector has 30")
    if not all(isinstance(x, int) for x in v):
        raise LatticeError(f"{tuple(v)} is not a vector of integers")


def _limit(bound) -> int:
    """floor(25 * bound), the largest n = 25|v|^2 within a rational bound."""
    bound = Fraction(bound)
    return 25 * bound.numerator // bound.denominator


def a4_class_of(m) -> int:
    """Glue digit of the A4* block m/5: m has sum 0, and every m_i is the
    digit mod 5."""
    if sum(m) != 0 or len({x % 5 for x in m}) != 1:
        raise LatticeError(f"{m}/5 is not in the dual of the A4 block")
    return m[0] % 5


def _coset_ball(digit: int, center5, max_norm) -> list:
    """The A4* coset ball of the digit around a center c with 5c integral.

    The center is given as the integer vector 5c.  The ball lists the pairs
    (m, n), sorted by m, where m = 5v runs over the integer vectors with
    m_i = digit mod 5 and sum(m) = 0, and n = |m - 5c|^2 = 25|v - c|^2 is at
    most 25*max_norm.
    """
    # n is an integer, so n <= 25*max_norm iff n <= limit
    limit = _limit(max_norm)
    if limit < 0:
        return []
    r = isqrt(limit)
    # |m - c| <= r, with m = digit mod 5
    ranges = [range(c - r + (digit - c + r) % 5, c + r + 1, 5) for c in center5[:4]]
    # the prefixes (m_1..m_i, their n) within the limit, extended one coordinate at a time
    prefixes = [((), 0)]
    for c, values in zip(center5, ranges):
        prefixes = [(p + (m,), n) for p, used in prefixes for m in values
                    if (n := used + (m - c) ** 2) <= limit]
    ball = []
    for p, used in prefixes:
        m = -sum(p)  # = digit mod 5, as each of the four others is
        n = used + (m - center5[4]) ** 2
        if n <= limit:
            ball.append((p + (m,), n))
    ball.sort()
    return ball


def _coset_min(digit: int, cs, den: int) -> int:
    """Min of 25 den^2 |v - c|^2 = sum (den*m_i - cs_i)^2 over the A4* coset
    of the digit, with m = 5v and 5c = cs/den for an integer vector cs.

    Each m_i = digit mod 5 is first taken nearest to cs_i/den on its own; then
    sum(m) = 0 is restored one step of 5 at a time on the coordinate whose cost
    rises least.  Each coordinate's cost is convex, so this greedy fix is exact
    (Conway-Sloane, SPLAG, ch. 20, section 2, decoding A_n).
    """
    step = 5 * den
    half = step // 2
    e = [(den * digit - c + half) % step - half for c in cs]
    # sum(m) = (sum(e) + sum(cs)) / den; the gap is a multiple of step
    gap = (-sum(cs) - sum(e)) // step
    for _ in range(gap):
        i = e.index(min(e))
        e[i] += step
    for _ in range(-gap):
        i = e.index(max(e))
        e[i] -= step
    return sum(x * x for x in e)


def build_glue_code() -> frozenset:
    """The glue words: the additive closure of the generator rows over Z/5,
    which must have order 125."""
    words = {(0,) * 6}
    frontier = [(0,) * 6]
    while frontier:
        w = frontier.pop()
        for g in GLUE_GENERATORS:
            nw = tuple((a + b) % 5 for a, b in zip(w, g))
            if nw not in words:
                words.add(nw)
                frontier.append(nw)
    if len(words) != 125:
        raise LatticeError(f"glue code closure has order {len(words)}, expected 125")
    return frozenset(words)


def tau0(v):
    """The order-5 isometry: cycle the last five blocks of a flat vector."""
    _require_flat(v)
    return v[:5] + v[25:] + v[5:25]


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form (nonzero rows) of an integer matrix."""
    rows = [r[:] for r in rows]
    m = len(rows[0])
    out = []
    pivot_col = 0
    while pivot_col < m and rows:
        nz = [r for r in rows if r[pivot_col] != 0]
        rest = [r for r in rows if r[pivot_col] == 0]
        if not nz:
            pivot_col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[pivot_col]))
            base = nz[0]
            reduced = []
            for r in nz[1:]:
                q = r[pivot_col] // base[pivot_col]
                rr = [a - q * b for a, b in zip(r, base)]
                (reduced if rr[pivot_col] != 0 else rest).append(rr)
            nz = [base] + reduced
        piv = nz[0]
        if piv[pivot_col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        rows = rest
        pivot_col += 1
    return out


class NiemeierLattice:
    """The even unimodular lattice glued from A4^6, with its order-5 isometry."""

    def __init__(self):
        self.glue = build_glue_code()
        if not all(tuple(w[0:1] + w[2:6] + w[1:2]) in self.glue for w in self.glue):
            raise LatticeError("glue code is not invariant under the block cycle")
        self.basis = self._build_basis()
        products = [[dot(x, y) for y in self.basis] for x in self.basis]
        # each product of 5v vectors is 25 times an entry of the Gram matrix
        if any(p % 25 for row in products for p in row):
            raise LatticeError("Gram matrix is not integral")
        self.gram = [[p // 25 for p in row] for row in products]
        # an even lattice has no norm-1 vectors: the roots are the nonzero vectors of norm <= 2
        self._roots = tuple(v for v in self._enumerate(2) if any(map(any, v)))
        self._check_invariants()

    # -- construction ------------------------------------------------------

    def _build_basis(self) -> list[tuple[int, ...]]:
        """A basis as flat integer vectors 5v, from the Hermite normal form of
        the generators in simple-root coordinates (per block, the partial sums
        of the first four coordinates of 5v)."""
        gens = [
            tuple(tuple(5 * c for c in s) if j == i else ZERO5 for j in range(6))
            for i in range(6)
            for s in A4_SIMPLE
        ]
        gens += [tuple(tuple(g * c for c in GLUE5) for g in w) for w in GLUE_GENERATORS]
        hnf = _hnf_rows([[c for m in v for c in accumulate(m[:4])] for v in gens])
        if len(hnf) != 24:
            raise LatticeError(f"lattice generators span rank {len(hnf)}, expected 24")
        # partial sums (c0, c1, c2, c3) give back the block (c0, c1-c0, c2-c1, c3-c2, -c3)
        blocks = [[row[4 * i : 4 * i + 4] for i in range(6)] for row in hnf]
        return [tuple(b - a for c in cs for a, b in zip([0] + c, c + [0])) for cs in blocks]

    def _check_invariants(self):
        if any(self.gram[i][i] % 2 for i in range(24)):
            raise LatticeError("lattice is not even")
        det = _det_bareiss(self.gram)
        if det != 1:
            raise LatticeError(f"Gram determinant is {det}, expected 1")
        if len(self._roots) != 120:
            raise LatticeError("root count differs from 120")
        for b in self.basis:
            if not self.contains(tau0(b)):
                raise LatticeError("the block cycle does not preserve the lattice")

    # -- membership and enumeration ----------------------------------------

    def contains(self, v) -> bool:
        """Whether the flat integer vector v = 5x gives a lattice vector x."""
        _require_flat(v)
        try:
            word = tuple(map(a4_class_of, _blocks(v)))
        except LatticeError:
            return False
        return word in self.glue

    def vectors_of_norm_at_most(self, bound) -> list[LVec]:
        """All lattice vectors of norm <= bound, glue word by glue word."""
        return self._enumerate(bound)

    def _enumerate(self, bound) -> list[LVec]:
        """The lattice vectors of norm <= bound.

        Each glue digit's coset ball is enumerated once, at the full bound,
        with every block's norm in units of 1/25.  The blocks under a budget
        are a slice of that sorted ball, so the three nested loops over blocks
        0-2 only add integers, and vectors share their block objects.  Blocks
        3-5 come from a list of (b3, b4, b5) triples within the remaining
        budget, built on first use in a dict that lives for one glue word (no
        two words share their last three digits), so each vector is one tuple
        concatenation.  No closure here refers to itself, so the call's caches
        are freed when it returns.

        The output is acyclic, so no collection can free any of it, and each
        pass of the cyclic collector over it is wasted.  The collector is
        paused while it is built.  If the caller had it enabled, the
        output is then handed to the oldest generation: `gc.freeze()` and
        `gc.unfreeze()` move every tracked object there in O(1), walking
        none, so the list is not walked by a young collection or again at
        the middle generation.  The only other objects this promotes are
        the caller's young ones, which would reach the oldest generation
        anyway if they live.  A caller that has frozen objects itself
        (`gc.get_freeze_count()` is not 0) is left as it is, since
        `unfreeze` would thaw them; then, as with the collector disabled,
        the caller's own collections walk the list.
        """
        limit = _limit(bound)
        # around the zero center n = |m|^2, the block's norm in units of 1/25
        balls = {
            g: [(_block(m), n) for m, n in _coset_ball(g, ZERO5, bound)] for g in range(5)
        }
        min_norm = {g: min(n for _, n in ball) for g, ball in balls.items() if ball}

        @lru_cache(maxsize=None)
        def fitting(g, budget):
            return [(b, n) for b, n in balls[g] if n <= budget]

        out = []
        # the output holds no reference cycles: a collection can only rescan it
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for word in sorted(self.glue):
                if any(g not in min_norm for g in word):
                    continue
                # tail[i]: the least norm blocks i..5 can take
                tail = [*accumulate(min_norm[g] for g in word[::-1])][::-1] + [0]
                if tail[0] > limit:
                    continue
                g3, g4, g5 = word[3], word[4], word[5]
                # the (b3, b4, b5) lists of this word's last three digits, by budget
                suffixes = {}
                for b0, n0 in fitting(word[0], limit - tail[1]):
                    for b1, n1 in fitting(word[1], limit - n0 - tail[2]):
                        u1 = n0 + n1
                        for b2, n2 in fitting(word[2], limit - u1 - tail[3]):
                            budget = limit - u1 - n2
                            triples = suffixes.get(budget)
                            if triples is None:
                                triples = suffixes[budget] = [
                                    (b3, b4, b5)
                                    for b3, n3 in fitting(g3, budget - tail[4])
                                    for b4, n4 in fitting(g4, budget - n3 - tail[5])
                                    for b5, _ in fitting(g5, budget - n3 - n4)
                                ]
                            out.extend(map((b0, b1, b2).__add__, triples))
        finally:
            if gc_was_enabled:
                # hand all to the oldest generation; unfreeze would thaw a caller's frozen objects
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()
        return out

    def roots(self) -> tuple[LVec, ...]:
        return self._roots

    def dump(self) -> str:
        lines = ["basis"]
        for row in self.basis:
            # each coordinate is m/5 in lowest terms: 5 is prime
            lines.append("\t".join(f"{m // 5}/1" if m % 5 == 0 else f"{m}/5" for m in row))
        lines.append("gram")
        for row in self.gram:
            lines.append("\t".join(map(str, row)))
        return "\n".join(lines)


def _det_bareiss(M: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination (Bareiss).

    Every division is exact: after step k each entry is a k+1 by k+1 minor.
    """
    M = [list(row) for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            piv = next((r for r in range(k + 1, n) if M[r][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        pivot = M[k][k]
        for i in range(k + 1, n):
            row, f = M[i], M[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * M[k][j]) // prev
        prev = pivot
    return sign * M[-1][-1]


# -- the fixed-space projection ----------------------------------------------


def in_projected_lattice(x) -> bool:
    """Whether x = (a, b/5, ..., b/5) with a in A4* and b in A4, the form of
    the projected lattice that the twisted sectors range over.

    x is given as h is, by the integer vector H_DEN x = (2(5a), 2b, ..., 2b):
    it must be even, 5a an A4* block and b of sum 0.
    """
    if tau0(x) != x or any(c % 2 for c in x):
        return False
    try:
        a4_class_of([c // 2 for c in x[:5]])
    except LatticeError:
        return False
    return sum(x[5:10]) == 0


# -- twist shifts and twisted weight-one data --------------------------------


def _shift5(epsilon: int, r: int) -> tuple[int, ...]:
    """5*eps*delta^r, the first block of the shift eps*f^r as an integer vector."""
    if epsilon not in (1, -1) or r not in (1, 2):
        raise LatticeError("epsilon must be +-1 and r in {1, 2}")
    return tuple(epsilon * c for c in DELTA5[r])


def enumerate_S(epsilon: int, r: int) -> list[Block]:
    """The five shifted minimal vectors {a + eps*delta^r : |a + eps*delta^r|^2 = 2/5}.

    Brute force over the coset representatives of A4*/A4 with the proof's
    norm bound |a|^2 <= 8/5; exactly one solution per coset.
    """
    d5 = _shift5(epsilon, r)
    found = []
    per_coset = {}
    for g in range(5):
        ball = _coset_ball(g, ZERO5, Fraction(8, 5))
        shifted = [tuple(x + d for x, d in zip(m, d5)) for m, _ in ball]
        sols = [_block(s) for s in shifted if sum(x * x for x in s) == 10]  # 25 * 2/5
        per_coset[g] = sols
        found.extend(sols)
    if len(found) != 5 or any(len(s) != 1 for s in per_coset.values()):
        raise LatticeError(f"|S| = {len(found)}, expected one solution in each of 5 cosets")
    return sorted(found)


def twist_anomaly(order: int, multiplicities) -> Fraction:
    """Conformal weight of the twisted ground state: (1/4) sum m_j (j/n)(1-j/n),
    summed in integers as sum m_j j(n - j) over 4n^2."""
    n = order
    total = sum(m * j * (n - j) for j, m in enumerate(multiplicities, start=1))
    return Fraction(total, 4 * n * n)


def twisted_weight_one(epsilon: int, r: int):
    """Solutions of l + |x + eps f^r|^2/2 + 4/5 = 1 over the projected lattice.

    x runs over (a, b/5, ..., b/5) with a in A4*, b in A4, and l over the
    oscillator grid l = j/15 of the twisted free-boson factor (the union of
    the 1/3 and 1/5 grids, which can only enlarge the search), where 4/5 is
    the weight of the twisted ground state, so l <= 1/5 and j = 0..3.  With
    a' = 5(a + delta) and b' = 5b the equation is 3(5|a'|^2 + |b'|^2) =
    150 - 50j, in integers.  Only j = 0, b = 0 survive and the five weights
    are the shifted minimal vectors.
    """
    d5 = _shift5(epsilon, r)
    # j = 0 bounds both: |a'|^2 <= 10 (|a + delta|^2 <= 2/5) and |b'|^2 <= 50
    # (|b|^2 <= 2); around the zero center the b ball's n is |b'|^2
    b_norms = [n for _, n in _coset_ball(0, ZERO5, 2)]
    solutions = []
    for g in range(5):
        # around -delta the a ball's n is |a'|^2
        for m, n in _coset_ball(g, tuple(-d for d in d5), Fraction(2, 5)):
            an = tuple(x + d for x, d in zip(m, d5))
            for j in range(4):
                solutions.extend((j, an, nb) for nb in b_norms if 3 * (5 * n + nb) == 150 - 50 * j)
    weights = sorted(_block(an) for j, an, nb in solutions)
    if any(j != 0 or nb != 0 for j, an, nb in solutions):
        raise LatticeError("unexpected oscillator or diagonal contribution at weight one")
    return len(solutions), weights


# -- the inner automorphism of the extended algebra ---------------------------


def inner_h() -> tuple[int, ...]:
    """h = (Lambda', Lambda, ..., Lambda)/2, as the integer vector H_DEN h;
    2h lies in the lattice."""
    return LAMBDA5 + GLUE5 * 5


# 5h = (H_DEN h) / DEN5, so the coset minima around h's centers are integers
# on the one unit 1 / (25 DEN5^2)
DEN5 = H_DEN // 5


def min_norm_shifted(lattice: NiemeierLattice, h, bound) -> Fraction | None:
    """Exact min of |alpha + h|^2 over lattice vectors, or None when it is
    above the given bound; h is given as H_DEN h.

    The blocks of alpha range independently over the cosets of its glue word,
    so the minimum for one word is the sum of the six per-block coset minima.
    Around the center c = -h_i, 5c = cs/DEN5 with cs = -H_DEN h_i, so every
    coset minimum, and each word's sum, is an integer in units of
    1 / (25 DEN5^2).
    """
    _require_flat(h)
    mins = [[_coset_min(g, [-x for x in w], DEN5) for g in range(5)] for w in _blocks(h)]
    totals = (sum(mins[i][g] for i, g in enumerate(word)) for word in lattice.glue)
    best = Fraction(min(totals), 25 * DEN5 * DEN5)
    return best if best <= Fraction(bound) else None


def twisted_sector_min_shift(h, epsilon: int, r: int) -> Fraction:
    """Exact min of |h + eps f^r + x|^2 over x = (a, b/5, ..., b/5) in the
    projected lattice: the least coset minimum of a around -(h_0 + eps delta^r)
    plus the min of |b + 5 h_1|^2 / 5 over b in A4.  h is given as H_DEN h,
    and its tail must be one block repeated, so h must be fixed by the block
    cycle.
    """
    if tau0(h) != h:
        raise LatticeError("h is not fixed by the block cycle")
    d5 = _shift5(epsilon, r)
    # 5 * -(h_0 + eps delta^r) = cs/DEN5: the minimum in units of 1 / (25 DEN5^2)
    cs = [-x - DEN5 * d for x, d in zip(h[:5], d5)]
    head = min(_coset_min(g, cs, DEN5) for g in range(5))
    # with m = 5b, 25 DEN5^2 |b + 5 h_1|^2 = |DEN5 m + 5 H_DEN h_1|^2, and the /5
    # puts it in units of 1 / (125 DEN5^2)
    diagonal = _coset_min(0, [-5 * x for x in h[5:10]], DEN5)
    return Fraction(5 * head + diagonal, 125 * DEN5 * DEN5)
