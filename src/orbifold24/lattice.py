"""The rank-24 even unimodular lattice glued from six A4 blocks mod 5.

Vectors are 6-tuples of blocks, each block a 5-tuple of exact rationals in
the standard sum-zero model of A4.  The glue code lives in (Z/5)^6; digit g
glues by the coset of g*(1,1,1,1,-4)/5.  The order-5 isometry cycles the
last five blocks, and the twist analysis (shift vectors, twisted weight-one
spaces, the norm bound for the inner automorphism) reduces to bounded
enumerations over the A4* cosets.  Those run on the integer vectors 5v and
on squared distances scaled to integers; blocks become Fractions only on
the way out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import floor, isqrt

from .orbifold import SemisimpleShape
from .rootsys import SimpleType, _to_integral

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

# the glue representative [1]; digit g glues by g*GLUE_REP mod A4
GLUE_REP = tuple(Fraction(c, 5) for c in (1, 1, 1, 1, -4))

# shift vectors of the order-5 twist, both of norm 2/5
DELTA1 = tuple(Fraction(c, 5) for c in (2, 1, 0, -1, -2))
DELTA2 = tuple(Fraction(c, 5) for c in (-1, 2, 0, -2, 1))

BETA = {
    0: tuple(Fraction(c, 5) for c in (-2, 2, 1, 0, -1)),
    1: tuple(Fraction(c, 5) for c in (0, -1, -2, 2, 1)),
    2: tuple(Fraction(c, 5) for c in (2, 1, 0, -1, -2)),
    3: tuple(Fraction(c, 5) for c in (-1, -2, 2, 1, 0)),
    4: tuple(Fraction(c, 5) for c in (1, 0, -1, -2, 2)),
}

TWIST_GROUND_WEIGHT = Fraction(4, 5)  # conformal weight of the order-5 twisted ground state
# weight grid of the twisted free-boson factor; the union of the 1/3 and 1/5
# grids is used, which can only enlarge the solution search
OSCILLATOR_GRID_STEP = Fraction(1, 15)


def block_add(x: Block, y: Block) -> Block:
    return tuple(a + b for a, b in zip(x, y))


def block_scale(c, x: Block) -> Block:
    c = Fraction(c)
    return tuple(c * a for a in x)


def block_dot(x: Block, y: Block) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def vec_add(x: LVec, y: LVec) -> LVec:
    return tuple(block_add(a, b) for a, b in zip(x, y))


def vec_scale(c, x: LVec) -> LVec:
    return tuple(block_scale(c, b) for b in x)


def vec_dot(x: LVec, y: LVec) -> Fraction:
    return sum((block_dot(a, b) for a, b in zip(x, y)), Fraction(0))


def vec_norm(x: LVec) -> Fraction:
    return vec_dot(x, x)


def zero_block() -> Block:
    return (Fraction(0),) * 5


def embed_block(i: int, b: Block) -> LVec:
    return tuple(tuple(Fraction(c) for c in b) if j == i else zero_block() for j in range(6))


def a4_roots() -> list[Block]:
    out = set()
    for pos, neg in permutations(range(5), 2):
        v = [0] * 5
        v[pos], v[neg] = 1, -1
        out.add(tuple(Fraction(c) for c in v))
    return sorted(out)


def a4_class_of(b: Block) -> int:
    """Glue digit of an A4* vector (all coordinates share 5*b_i mod 5)."""
    fives = [5 * c for c in b]
    if any(c.denominator != 1 for c in fives) or sum(fives) != 0:
        raise LatticeError(f"{b} is not in the dual of the A4 block")
    digits = {int(c) % 5 for c in fives}
    if len(digits) != 1:
        raise LatticeError(f"{b} is not in the dual of the A4 block")
    return digits.pop()


def _coset_ball(digit: int, center: Block, max_norm) -> tuple[int, list]:
    """The A4* coset ball of the digit around the center, in integers.

    Returns (s, ball), with s = 25*D^2 for D the lcm of the center's
    denominators.  The ball lists the pairs (m, n), sorted by m, where m = 5v
    runs over the integer vectors with m_i = digit mod 5 and sum(m) = 0, and
    n = s*|v - center|^2 = sum (D*m_i - 5*D*center_i)^2 is at most s*max_norm.
    """
    den, dc = _to_integral(center)
    cs = [5 * c for c in dc]
    scale = 25 * den * den
    max_norm = Fraction(max_norm)
    if max_norm < 0:
        return scale, []
    limit = floor(scale * max_norm)  # n is an integer, so n <= s*max_norm iff n <= limit
    r = isqrt(limit)

    def coord_range(c):
        # |D*m - c| <= r, with m = digit mod 5
        lo, hi = -((r - c) // den), (c + r) // den
        return range(lo + (digit - lo) % 5, hi + 1, 5)

    ranges = [coord_range(c) for c in cs[:4]]
    ball = []

    def rec(i, ms, used):
        if i == 4:
            m = -sum(ms)  # = digit mod 5, as each of the four others is
            n = used + (den * m - cs[4]) ** 2
            if n <= limit:
                ball.append((tuple(ms) + (m,), n))
            return
        for m in ranges[i]:
            n = used + (den * m - cs[i]) ** 2
            if n <= limit:
                rec(i + 1, ms + [m], n)

    rec(0, [], 0)
    ball.sort()
    return scale, ball


def _block(m) -> Block:
    """The block m/5 of an integer vector m."""
    return tuple(Fraction(x, 5) for x in m)


def _fifths(b: Block) -> tuple[int, ...]:
    """The integer vector 5b of an A4* block."""
    return tuple(int(5 * c) for c in b)


def _ball_min(digit: int, center: Block, max_norm) -> Fraction | None:
    """Min of |v - center|^2 over the coset ball, or None when it is empty."""
    scale, ball = _coset_ball(digit, center, max_norm)
    return Fraction(min(n for _, n in ball), scale) if ball else None


def a4_class_ball(digit: int, center: Block, max_norm) -> list[Block]:
    """All v in the A4* coset of the digit with |v - center|^2 <= max_norm, sorted."""
    return [_block(m) for m, _ in _coset_ball(digit, center, max_norm)[1]]


def a4_class_min_vectors(digit: int) -> list[Block]:
    """Minimal-norm vectors of an A4* coset (norms 0, 4/5, 6/5, 6/5, 4/5)."""
    for bound in (Fraction(0), Fraction(4, 5), Fraction(6, 5)):
        vs = a4_class_ball(digit, zero_block(), bound)
        if vs:
            return vs
    raise LatticeError("empty coset ball")  # pragma: no cover


@dataclass(frozen=True)
class GlueCode:
    words: frozenset

    @property
    def rank(self) -> int:
        rows = [list(w) for w in sorted(self.words)]
        r = 0
        for col in range(6):
            piv = next((i for i in range(r, len(rows)) if rows[i][col] % 5), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][col], -1, 5)
            rows[r] = [(x * inv) % 5 for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col] % 5:
                    f = rows[i][col]
                    rows[i] = [(a - f * b) % 5 for a, b in zip(rows[i], rows[r])]
            r += 1
        return r


def build_glue_code() -> GlueCode:
    """Additive closure of the generator rows over Z/5; must have order 125."""
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
    return GlueCode(frozenset(words))


def tau0(v: LVec) -> LVec:
    """The order-5 isometry: cycle the last five blocks."""
    return (v[0], v[5], v[1], v[2], v[3], v[4])


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
        if not all(tuple(w[0:1] + w[2:6] + w[1:2]) in self.glue.words for w in self.glue.words):
            raise LatticeError("glue code is not invariant under the block cycle")
        self.basis = self._build_basis()
        fifths = [[c for b in x for c in _fifths(b)] for x in self.basis]
        self.gram = [
            [Fraction(sum(a * b for a, b in zip(x, y)), 25) for y in fifths] for x in fifths
        ]
        self._roots = tuple(self._enumerate(2, exact=True))
        self._check_invariants()

    # -- construction ------------------------------------------------------

    def _glue_vector(self, word) -> LVec:
        return tuple(block_scale(g, GLUE_REP) for g in word)

    def _to_simple_coords(self, v: LVec) -> list[Fraction]:
        """Coordinates w.r.t. the 24 block simple roots (partial sums per block)."""
        out = []
        for b in v:
            acc = Fraction(0)
            for c in b[:4]:
                acc += c
                out.append(acc)
        return out

    def _from_simple_coords(self, coords) -> LVec:
        blocks = []
        for i in range(6):
            c = [Fraction(x) for x in coords[4 * i : 4 * i + 4]]
            blocks.append(
                (c[0], c[1] - c[0], c[2] - c[1], c[3] - c[2], -c[3])
            )
        return tuple(tuple(b) for b in blocks)

    def _build_basis(self) -> list[LVec]:
        gens: list[LVec] = []
        for i in range(6):
            for s in A4_SIMPLE:
                gens.append(embed_block(i, s))
        for w in GLUE_GENERATORS:
            gens.append(self._glue_vector(w))
        rows = []
        for g in gens:
            coords = [5 * c for c in self._to_simple_coords(g)]
            assert all(c.denominator == 1 for c in coords)
            rows.append([int(c) for c in coords])
        hnf = _hnf_rows(rows)
        if len(hnf) != 24:
            raise LatticeError(f"lattice generators span rank {len(hnf)}, expected 24")
        return [self._from_simple_coords([Fraction(c, 5) for c in row]) for row in hnf]

    def _check_invariants(self):
        for i, row in enumerate(self.gram):
            for j, v in enumerate(row):
                if v.denominator != 1:
                    raise LatticeError("Gram matrix is not integral")
                if i == j and int(v) % 2:
                    raise LatticeError("lattice is not even")
        det = _det_bareiss([[int(v) for v in row] for row in self.gram])
        if det != 1:
            raise LatticeError(f"Gram determinant is {det}, expected 1")
        if len(self._roots) != 120:
            raise LatticeError("root count differs from 120")
        for b in self.basis:
            if not self.contains(tau0(b)):
                raise LatticeError("the block cycle does not preserve the lattice")

    # -- membership and enumeration ----------------------------------------

    def contains(self, v: LVec) -> bool:
        try:
            word = tuple(a4_class_of(b) for b in v)
        except LatticeError:
            return False
        return word in self.glue.words

    def vectors_of_norm_at_most(self, bound) -> list[LVec]:
        """All lattice vectors of norm <= bound, glue word by glue word."""
        return self._enumerate(bound, exact=False)

    def _enumerate(self, bound, exact: bool) -> list[LVec]:
        """The lattice vectors of norm <= bound, or of norm == bound if exact.

        Each glue digit's coset ball is enumerated once, at the full bound,
        with every block's norm in units of 1/25.  The blocks under a budget
        are a slice of that sorted ball, so the recursion over the glue words
        only adds integers, and vectors share their block objects.  The last
        block's budget is what the norm leaves, so the exact vectors are the
        ones whose last block uses all of it.
        """
        limit = floor(25 * Fraction(bound))
        balls = {}
        for g in range(5):
            blocks = a4_class_ball(g, zero_block(), bound)
            balls[g] = [(b, sum(x * x for x in _fifths(b))) for b in blocks]
        min_norm = {g: min(n for _, n in ball) for g, ball in balls.items() if ball}
        slices: dict[tuple[int, int], list] = {}

        def fitting(g, budget):
            key = (g, budget)
            if key not in slices:
                slices[key] = [(b, n) for b, n in balls[g] if n <= budget]
            return slices[key]

        out = []
        for word in sorted(self.glue.words):
            if any(g not in min_norm for g in word):
                continue
            tail = [0] * 7
            for i in range(5, -1, -1):
                tail[i] = tail[i + 1] + min_norm[word[i]]
            if tail[0] > limit:
                continue

            def rec(i, prefix, used):
                budget = limit - used - tail[i + 1]
                if i == 5:
                    out.extend(
                        prefix + (b,) for b, n in fitting(word[5], budget)
                        if not exact or n == budget
                    )
                    return
                for b, n in fitting(word[i], budget):
                    rec(i + 1, prefix + (b,), used + n)

            rec(0, (), 0)
        return out

    def roots(self) -> tuple[LVec, ...]:
        return self._roots

    def dump(self) -> str:
        lines = ["basis"]
        for b in self.basis:
            flat = [c for blk in b for c in blk]
            lines.append("\t".join(f"{c.numerator}/{c.denominator}" for c in flat))
        lines.append("gram")
        for row in self.gram:
            lines.append("\t".join(str(int(v)) for v in row))
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


def project_fixed(v: LVec) -> LVec:
    """Orthogonal projection onto the fixed space of the block cycle."""
    avg = zero_block()
    for b in v[1:]:
        avg = block_add(avg, b)
    avg = block_scale(Fraction(1, 5), avg)
    return (v[0],) + (avg,) * 5


def projected_form_ok(p: LVec) -> bool:
    """Whether p = (a, b/5, ..., b/5) with a in A4* and b in A4."""
    try:
        a4_class_of(p[0])
    except LatticeError:
        return False
    if any(p[i] != p[1] for i in range(2, 6)):
        return False
    b = block_scale(5, p[1])
    if any(c.denominator != 1 for c in b) or sum(b) != 0:
        return False
    return True


# -- twist shifts and twisted weight-one data --------------------------------


def shift_vector(r: int) -> LVec:
    if r not in (1, 2):
        raise LatticeError("shift index must be 1 or 2")
    return embed_block(0, DELTA1 if r == 1 else DELTA2)


def enumerate_S(epsilon: int, r: int) -> list[Block]:
    """The five shifted minimal vectors {a + eps*delta^r : |a + eps*delta^r|^2 = 2/5}.

    Brute force over the coset representatives of A4*/A4 with the proof's
    norm bound |a|^2 <= 8/5; exactly one solution per coset.
    """
    if epsilon not in (1, -1) or r not in (1, 2):
        raise LatticeError("epsilon must be +-1 and r in {1, 2}")
    d5 = _fifths(block_scale(epsilon, DELTA1 if r == 1 else DELTA2))
    found = []
    per_coset = {}
    for g in range(5):
        ball = _coset_ball(g, zero_block(), Fraction(8, 5))[1]
        shifted = [tuple(x + d for x, d in zip(m, d5)) for m, _ in ball]
        sols = [_block(s) for s in shifted if sum(x * x for x in s) == 10]  # 25 * 2/5
        per_coset[g] = sols
        found.extend(sols)
    if len(found) != 5 or any(len(s) != 1 for s in per_coset.values()):
        raise LatticeError(f"|S| = {len(found)}, expected one solution in each of 5 cosets")
    return sorted(found)


def twist_anomaly(order: int, multiplicities) -> Fraction:
    """Conformal weight of the twisted ground state: (1/4) sum m_j (j/n)(1-j/n)."""
    n = order
    total = Fraction(0)
    for j, m in enumerate(multiplicities, start=1):
        total += Fraction(m) * Fraction(j, n) * (1 - Fraction(j, n))
    return total / 4


def twisted_weight_one(epsilon: int, r: int):
    """Solutions of l + |x + eps f^r|^2/2 + 4/5 = 1 over the projected lattice.

    x runs over (a, b/5, ..., b/5) with a in A4*, b in A4, and l over the
    oscillator grid; only l = 0, b = 0 survive and the five weights are the
    shifted minimal vectors.
    """
    delta = block_scale(epsilon, DELTA1 if r == 1 else DELTA2)
    budget = 2 * (1 - TWIST_GROUND_WEIGHT)  # |x + eps f|^2 <= 2/5 at l = 0
    grid = []
    l = Fraction(0)
    while l <= 1 - TWIST_GROUND_WEIGHT:
        grid.append(l)
        l += OSCILLATOR_GRID_STEP
    # |a + delta|^2 + |b|^2/5 = need = 2(1 - 4/5 - l), times 125 with a' = 5(a + delta)
    # and b' = 5b: 5|a'|^2 + |b'|^2 = 125*need
    needs = [(l, 250 * (1 - TWIST_GROUND_WEIGHT - l)) for l in grid]
    # the diagonal block contributes |b|^2/5, so |b|^2 <= 5*budget
    b_norms = [sum(x * x for x in m) for m, _ in _coset_ball(0, zero_block(), 5 * budget)[1]]
    d5 = _fifths(delta)
    solutions = []
    for g in range(5):
        # the ball at the largest need (l = 0) holds the a of every smaller one
        for m, _ in _coset_ball(g, block_scale(-1, delta), budget)[1]:
            an = tuple(x + d for x, d in zip(m, d5))
            a_part = 5 * sum(x * x for x in an)
            for l, need in needs:
                solutions.extend((l, an, nb) for nb in b_norms if a_part + nb == need)
    weights = sorted(_block(an) for l, an, nb in solutions)
    if any(l != 0 or nb != 0 for l, an, nb in solutions):
        raise LatticeError("unexpected oscillator or diagonal contribution at weight one")
    return len(solutions), weights


# -- the inner automorphism of the extended algebra ---------------------------


def inner_h() -> LVec:
    lam_p = tuple(Fraction(c) for c in (1, -1, 0, -1, 1))
    return tuple(
        block_scale(Fraction(1, 2), lam_p if i == 0 else GLUE_REP) for i in range(6)
    )


def min_norm_shifted(lattice: NiemeierLattice, h: LVec, bound) -> Fraction | None:
    """Exact min of |alpha + h|^2 over lattice vectors, within the given bound.

    The blocks of alpha range independently over the cosets of its glue word,
    so the minimum for one word is the sum of the six per-block minima.
    """
    bound = Fraction(bound)
    block_min = {
        (i, g): _ball_min(g, block_scale(-1, h[i]), bound) for i in range(6) for g in range(5)
    }
    totals = []
    for word in lattice.glue.words:
        mins = [block_min[(i, g)] for i, g in enumerate(word)]
        if None not in mins:
            totals.append(sum(mins))
    return min((t for t in totals if t <= bound), default=None)


def twisted_sector_min_shift(h: LVec, epsilon: int, r: int) -> Fraction:
    """Exact min of |h + eps f^r + x|^2 over the projected lattice."""
    delta = block_scale(epsilon, DELTA1 if r == 1 else DELTA2)
    c1 = block_add(h[0], delta)
    mins = [_ball_min(g, block_scale(-1, c1), Fraction(4)) for g in range(5)]
    best1 = min(m for m in mins if m is not None)
    # diagonal part: 5 * |b/5 + h_tail|^2 = |b + 5 h_tail|^2 / 5 over b in A4
    best2 = _ball_min(0, block_scale(-5, h[1]), Fraction(20)) / 5
    return best1 + best2


def fixed_shape_A45(h: LVec) -> SemisimpleShape:
    """Fixed-point shape of the inner automorphism on the extended algebra.

    Verifies the pairing pattern (alpha_i|Lambda) = (beta_i|Lambda') =
    delta_{i,4}; dropping the fourth node of each A4 leaves A3 x A3 at
    level 5 with a two-dimensional center.
    """
    lam = GLUE_REP
    lam_p = tuple(Fraction(c) for c in (1, -1, 0, -1, 1))
    betas = [BETA[i] for i in (1, 2, 3, 4)]
    for i, alpha in enumerate(A4_SIMPLE, start=1):
        got = block_dot(tuple(Fraction(c) for c in alpha), lam)
        if got != (1 if i == 4 else 0):
            raise LatticeError(f"(alpha_{i}|Lambda) = {got}, expected {int(i == 4)}")
    for i, beta in enumerate(betas, start=1):
        got = block_dot(beta, lam_p)
        if got != (1 if i == 4 else 0):
            raise LatticeError(f"(beta_{i}|Lambda') = {got}, expected {int(i == 4)}")
    a3 = SimpleType.parse("A3")
    return SemisimpleShape(((a3, 5), (a3, 5)), center_dim=2)
