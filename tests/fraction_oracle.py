"""The Fraction-arithmetic root-system kernel, kept as the tests' oracle.

This is how the package computed before the integer Dynkin-label kernel:
every weight is a tuple of Fractions in the simple-root basis, pairings go
through the Fraction Gram matrix, roots are Weyl orbits found by a
breadth-first search with a `seen` set, and the fundamental weights solve
a Fraction linear system in the Gram matrix.  It reads only `d.gram`, `d.rank` and `d.type`
of a root datum, so it shares no arithmetic with the code it checks.

The weight support is how the package enumerated it before the dominant
descent: walk the whole box 0 <= c <= (root coordinates of lambda), keep
the c with lambda - c.alpha dominant, and close under the simple
reflections.  Its cost grows with the box, so it serves small boxes only.

The block sums at the end are how the A4^6 lattice computed before its
integer 5v model: a vector is a tuple of Fraction blocks, and products are
summed coordinate by coordinate in Fractions.  The projection onto the
fixed space of the block cycle and the test for its image are kept there
too, as the Fraction route to the package's one integer predicate.

The affine product sums, right after the kernel, are how the package
summed over product labels before its integer numerators: one Fraction
weight per factor, added per label, and a label's weight integral when the
sum's denominator is 1.  <h|h>, twisted lowest weights and (h|lambda) are
summed over the factors the same way.

The product-algebra forms between them act on Fraction product weights,
one Vec of root coordinates per factor: the invariant and the plain form
of a product algebra, and the level transfer rule, which reads a
subsystem's level from the plain ambient norm of its long roots.  That is
a second route to each seed's level, apart from the invariant norm the
package classifies by.

The q-series, the hauptmodul, its S-powers and the character fit at the
end are how the package computed them before its integer series: a
coefficient is a Fraction in a dict, and an inverse divides by the leading
coefficient term by term.  Its eta powers multiply out the product factor
by factor rather than through the pentagonal numbers, so they share no
expansion with the package.  The Verlinde check there sums Fraction
S-matrix entries.  rescale_exponents substitutes q -> q^(num/den) in a
series of the package, through its public constructor.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod


def gram_row(d, u):
    """u.gram, so that (u|v) = sum_j row_j v_j."""
    return [
        sum((x * g[j] for x, g in zip(u, d.gram) if x and g[j]), Fraction(0))
        for j in range(d.rank)
    ]


def pair(d, u, v):
    return sum((a * b for a, b in zip(gram_row(d, u), v)), Fraction(0))


@lru_cache(maxsize=None)
def _coroot_columns(t):
    """Per i, the pairs (j, 2(alpha_j|alpha_i)/(alpha_i|alpha_i)) with a non-zero value."""
    from orbifold24.rootsys import build_root_datum

    G = build_root_datum(t).gram
    n = len(G)
    return [[(j, 2 * G[j][i] / G[i][i]) for j in range(n) if G[j][i]] for i in range(n)]


def coroot_pairing(d, v, i):
    """<v, alpha_i^vee> = 2(v|alpha_i)/(alpha_i|alpha_i)."""
    return sum((v[j] * c for j, c in _coroot_columns(d.type)[i] if v[j]), Fraction(0))


def reflect(d, v, i):
    c = coroot_pairing(d, v, i)
    if not c:
        return tuple(v)
    out = list(v)
    out[i] -= c.numerator if c.denominator == 1 else c  # keeps integer vectors int
    return tuple(out)


def weyl_orbit(d, v):
    v = tuple(v)
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for i in range(d.rank):
            w = reflect(d, u, i)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def solve(G, columns):
    """x with G . x = c for each right-hand side c, by one Gauss-Jordan
    elimination over the Fractions; raises StopIteration if G is singular."""
    n = len(G)
    M = [[Fraction(x) for x in row] + [Fraction(c[i]) for c in columns] for i, row in enumerate(G)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col])
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [tuple(M[i][n + k] for i in range(n)) for k in range(len(columns))]


@lru_cache(maxsize=None)
def datum(t):
    """(roots, fundamental weights, rho, theta) of a type, all in Fractions."""
    from orbifold24.rootsys import build_root_datum

    d = build_root_datum(t)
    n = d.rank
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    by_length = {d.gram[i][i]: simple[i] for i in range(n)}
    orbits = set().union(*(weyl_orbit(d, a) for a in by_length.values()))
    roots = sorted(tuple(map(Fraction, r)) for r in orbits)
    # (Lambda_j|alpha_i) = delta_ij (alpha_i|alpha_i)/2
    fund = solve(d.gram, [[d.gram[i][i] / 2 if i == j else 0 for i in range(n)] for j in range(n)])
    rho = tuple(sum(w[i] for w in fund) for i in range(n))
    theta = max(roots, key=sum)
    return roots, fund, rho, theta


def weight_from_fundamental(d, coeffs):
    fund = datum(d.type)[1]
    return tuple(
        sum((Fraction(c) * w[i] for c, w in zip(coeffs, fund) if c), Fraction(0))
        for i in range(d.rank)
    )


def to_fundamental(d, v):
    return tuple(coroot_pairing(d, v, i) for i in range(d.rank))


def dominant_conjugate(d, v):
    """Reflect in a simple root with a negative label until none is left,
    keeping the labels m_j = 2(v|alpha_j)/(alpha_j|alpha_j) up to date."""
    v, m = list(v), list(to_fundamental(d, v))
    while (i := next((i for i, c in enumerate(m) if c < 0), None)) is not None:
        c = m[i]
        v[i] -= c
        for j, row in enumerate(d.gram):
            if row[i]:
                m[j] -= c * 2 * row[i] / row[j]  # <alpha_i, alpha_j^vee>
    return tuple(v)


@lru_cache(maxsize=None)
def _twist(d, h):
    """dom(-h), (h|h) and whether (h|alpha) >= -1 on every root, for a tuple h;
    every module of a factor shares them, so they are kept per (datum, h)."""
    row = gram_row(d, h)
    above = all(sum(a * b for a, b in zip(row, r)) >= -1 for r in datum(d.type)[0])
    return dominant_conjugate(d, [-x for x in h]), pair(d, h, h), above


def min_pairing(d, h, lam):
    return -pair(d, lam, _twist(d, tuple(h))[0])


def support_contains(d, lam, mu):
    diff = (l - m for l, m in zip(lam, dominant_conjugate(d, mu)))
    return all(x.denominator == 1 and x >= 0 for x in diff)


@lru_cache(maxsize=None)  # lam is a tuple; a module's weight is asked for under every h
def conformal_weight(d, lam, level):
    rho = datum(d.type)[2]
    lam2rho = tuple(a + 2 * b for a, b in zip(lam, rho))
    return pair(d, lam2rho, lam) / (2 * (level + d.type.dual_coxeter))


def twisted_lowest(d, lam, level, h):
    return conformal_weight(d, lam, level) + min_pairing(d, h, lam) + level * _twist(d, tuple(h))[1] / 2


def certificate(d, coeffs, level, h):
    """(kind, witness) of the twisted-positivity classification."""
    if not _twist(d, tuple(h))[2]:
        return "precondition_violated", None
    lam = weight_from_fundamental(d, coeffs)
    val = twisted_lowest(d, lam, level, h)
    if val > 0:
        return "positive", None
    if val < 0:
        return "negative_violation", None
    if not any(coeffs) and not any(h):
        return "zero_with_witness", "vacuum"
    dom = dominant_conjugate(d, [-level * x for x in h])
    for j in range(d.rank):
        if tuple(coeffs) == tuple(level * (i == j) for i in range(d.rank)) and dom == lam:
            return "zero_with_witness", f"j={j + 1}"
    return "negative_violation", "zero without witness"


# -- affine product algebras ------------------------------------------------------


def integral_spectrum_table(a, max_weight, weight_set=None):
    """(coefficients, weight) of every product label whose conformal weight, a
    Fraction sum over the factors, is an integer <= max_weight (and in
    weight_set, when one is given), ordered by (weight, coefficients)."""
    from orbifold24.affine import enumerate_modules

    per_factor = [
        [(m.coeffs, conformal_weight(d, weight_from_fundamental(d, m.coeffs), k))
         for m in enumerate_modules(t, k)]
        for (t, k), d in zip(a.factors, a.data)
    ]
    table = []
    for combo in product(*per_factor):
        total = sum((w for _, w in combo), Fraction(0))
        if total.denominator == 1 and total <= max_weight and (weight_set is None or total in weight_set):
            table.append((tuple(c for c, _ in combo), total))
    return sorted(table, key=lambda rec: (rec[1], rec[0]))


def h_components(h):
    """The Fraction root coordinates of each factor's component of an HVector,
    read from its integer form."""
    return tuple(tuple(Fraction(c, x.den) for c in x.coords) for x in h.ints)


def norm_invariant(a, h):
    """<h|h> = sum_i k_i (h_i|h_i) over the components of an HVector."""
    return sum((k * pair(d, x, x) for (_, k), d, x in zip(a.factors, a.data, h_components(h))),
               Fraction(0))


def product_twisted_lowest(a, coeffs, h):
    """The factorwise sum of twisted lowest weights of a product label."""
    return sum((twisted_lowest(d, weight_from_fundamental(d, c), k, x)
                for (_, k), d, c, x in zip(a.factors, a.data, coeffs, h_components(h))), Fraction(0))


def spectrum_half_integral(a, h, coeff_lists):
    """(h|alpha) in Z/2 on every root, and (h|lambda) in Z/2 for every product label."""
    for d, x in zip(a.data, h_components(h)):
        row = gram_row(d, x)
        if any((2 * sum(p * c for p, c in zip(row, r))).denominator != 1 for r in datum(d.type)[0]):
            return False
    return all(
        (2 * sum((pair(d, weight_from_fundamental(d, c), x)
                  for d, c, x in zip(a.data, coeffs, h_components(h))), Fraction(0))).denominator == 1
        for coeffs in coeff_lists
    )


# -- product-algebra forms --------------------------------------------------------


def invariant_pairing(a, x, y):
    """(x|y) under the invariant form of the product algebra a: the sum over
    the factors of (x_i|y_i) / k_i, k_i the level of factor i.  Each (x_i|y_i)
    is `pair` above, through the Fraction Gram matrix."""
    return sum((pair(d, xi, yi) / k for (_, k), d, xi, yi in zip(a.factors, a.data, x, y)),
               Fraction(0))


def plain_pairing(a, x, y):
    """(x|y) under the plain normalized form, summed over the factors."""
    return sum((pair(d, xi, yi) for d, xi, yi in zip(a.data, x, y)), Fraction(0))


def long_norm_ambient(a, roots):
    """The plain ambient norm of the long roots of a root subsystem."""
    return max(plain_pairing(a, r, r) for r in roots)


def level_transfer(long_norm, ambient_level):
    """Level of a subsystem whose long roots have the given plain ambient norm.

    Norm 2 keeps the ambient level; short ambient roots scale it by the
    squared-length ratio (2 for B/C/F ambient, 3 for G2).
    """
    level = 2 * Fraction(ambient_level) / Fraction(long_norm)
    if level.denominator != 1 or level < 1:
        raise ValueError(f"inconsistent norms: ambient norm {long_norm} at level {ambient_level}")
    return int(level)


# -- the weight support by the coefficient box ----------------------------------


def cartan(d):
    """a[i][j] = <alpha_j, alpha_i^vee> = 2(alpha_i|alpha_j)/(alpha_i|alpha_i)."""
    return [[int(2 * g / row[i]) for g in row] for i, row in enumerate(d.gram)]


def box_size(d, lam):
    """The number of points c in the box 0 <= c <= (root coordinates of lam)."""
    return prod(int(x) + 1 for x in lam)


def dominant_coefficient_states(d, lam_fund):
    """All c >= 0 (integer, simple-root basis) with lam - c.alpha dominant.

    The coefficients of lam in the simple-root basis bound c componentwise
    because the inverse Cartan matrix has nonnegative entries; the walk
    visits the whole box and tests dominance only at its leaves.
    """
    n = d.rank
    lam = weight_from_fundamental(d, lam_fund)
    bounds = [int(x) for x in lam]  # lam is dominant: root-basis coords are >= 0
    A = cartan(d)
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


def weight_support(d, lam):
    """The weights of L(lam): the dominant states of the box, closed under the
    simple reflections by a breadth-first search with a `seen` set."""
    lam_fund = to_fundamental(d, lam)
    assert all(x >= 0 and x.denominator == 1 for x in lam_fund), lam_fund
    lam_fund = tuple(int(x) for x in lam_fund)
    lam = weight_from_fundamental(d, lam_fund)
    n = d.rank
    A = cartan(d)
    seen = set(dominant_coefficient_states(d, lam_fund))
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


# -- the lattice's Fraction block arithmetic ----------------------------------


def block_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def block_dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def vec_dot(x, y):
    return sum((block_dot(a, b) for a, b in zip(x, y)), Fraction(0))


def lattice_blocks(v, den=5):
    """The six Fraction blocks of a flat integer vector v = den * x."""
    return tuple(tuple(Fraction(c, den) for c in v[i : i + 5]) for i in range(0, 30, 5))


def project_fixed(v):
    """Orthogonal projection onto the fixed space of the block cycle: the
    first block stays, and the other five are replaced by their average."""
    avg = tuple(sum(col, Fraction(0)) / 5 for col in zip(*v[1:]))
    return (v[0],) + (avg,) * 5


def in_a4_dual(b):
    """Whether the block b lies in A4*: 5b integral with sum 0, and every 5b_i
    the same mod 5."""
    m = [5 * c for c in b]
    return (all(x.denominator == 1 for x in m) and sum(m) == 0
            and len({x.numerator % 5 for x in m}) == 1)


def projected_form_ok(p):
    """Whether p = (a, b/5, ..., b/5) with a in A4* and b in A4."""
    b = [5 * c for c in p[1]]
    return (in_a4_dual(p[0]) and all(p[i] == p[1] for i in range(2, 6))
            and all(x.denominator == 1 for x in b) and sum(b) == 0)


# -- the Fraction q-series -------------------------------------------------------


class FractionQSeries:
    """sum_n coeffs[n] q^(n/denom), a dict of Fractions, known for n < trunc."""

    def __init__(self, denom, coeffs, trunc):
        self.denom = denom
        self.trunc = trunc
        self.coeffs = {n: Fraction(c) for n, c in coeffs.items() if c and n < trunc}

    def valuation(self):
        return min(self.coeffs) if self.coeffs else self.trunc

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionQSeries(self.denom, {0: other}, self.trunc)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, Fraction(0)) + c
        return FractionQSeries(self.denom, out, min(self.trunc, other.trunc))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionQSeries(
                self.denom, {n: c * other for n, c in self.coeffs.items()}, self.trunc
            )
        t = min(self.trunc + other.valuation(), other.trunc + self.valuation())
        out = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                if n1 + n2 < t:
                    out[n1 + n2] = out.get(n1 + n2, Fraction(0)) + c1 * c2
        return FractionQSeries(self.denom, out, t)

    __rmul__ = __mul__

    def inverse(self):
        v = self.valuation()
        lead = self.coeffs[v]
        n_terms = self.trunc - v
        inv = {0: 1 / lead}
        for n in range(1, n_terms):
            s = sum((c * inv[n - (m - v)] for m, c in self.coeffs.items()
                     if 0 < m - v <= n and (n - (m - v)) in inv), Fraction(0))
            if s:
                inv[n] = -s / lead
        return FractionQSeries(self.denom, {n - v: c for n, c in inv.items()}, n_terms - v)

    def __pow__(self, e):
        base = self if e > 0 else self.inverse()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out


def eta24(scale, trunc):
    """eta(scale tau)^24 in q^(1/2), with the product expanded factor by factor."""
    step = int(2 * Fraction(scale))
    n_terms = trunc // step + 1
    poly = [1] + [0] * (n_terms - 1)
    for n in range(1, n_terms):
        for _ in range(24):
            poly = [a - (poly[i - n] if i >= n else 0) for i, a in enumerate(poly)]
    return FractionQSeries(2, {step * (1 + j): c for j, c in enumerate(poly)}, trunc)


def hauptmodul(trunc):
    window = trunc + 4
    return eta24(1, window) * eta24(2, window).inverse()


def hauptmodul_S_power(n, trunc):
    window = trunc + 4 * abs(n)
    base = eta24(1, window) * eta24(Fraction(1, 2), window).inverse()
    return Fraction(2**12) ** n * base**n


def character_fit(dim_g1, dim_half, trunc):
    """(c0, c_{-1}, series) of Z = f + c0 + c_{-1} f^-1 + 2^23 f^-2."""
    c0 = Fraction(dim_g1 + 24)
    c_minus1 = Fraction(2**12) * (Fraction(dim_half, 2) + 24)
    f = hauptmodul(trunc)
    f_inv = f.inverse()
    return c0, c_minus1, f + c0 + c_minus1 * f_inv + Fraction(2**23) * (f_inv * f_inv)


def rescale_exponents(s, num, den=1):
    """The package's series s in q^(1/2) with q -> q^(num/den), again in q^(1/2).

    The coefficient at n/2 moves to n num / (2 den), which must stay in
    (1/2)Z; s is known below trunc/2, so the image is known below
    trunc num / (2 den), that is for n' < ceil(trunc num / den)."""
    assert all(n * num % den == 0 for n in s.nums), (num, den)
    return type(s)({n * num // den: c for n, c in s.coeffs.items()}, -(-s.trunc * num // den))


# -- the Fraction Verlinde check -------------------------------------------------


def verlinde_simple_current(a):
    """N_pq^r = sum_t S_pt S_qt S_tr / S_0t over the Fraction S-matrix of a = +-1."""
    half = Fraction(1, 2)
    S = [
        [half, half, half, half],
        [half, half, -half, -half],
        [half, -half, a * half, -a * half],
        [half, -half, -a * half, a * half],
    ]
    r4 = range(4)
    assert [[sum(S[i][k] * S[k][j] for k in r4) for j in r4] for i in r4] == [
        [int(i == j) for j in r4] for i in r4
    ]
    return tuple(
        tuple(tuple(sum(S[p][t] * S[q][t] * S[t][r] / S[0][t] for t in r4) for r in r4)
              for q in r4)
        for p in r4
    )
