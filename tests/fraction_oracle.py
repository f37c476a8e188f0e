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
summed coordinate by coordinate in Fractions.

The product-algebra forms between them are read only by the tests: the
invariant form of a product algebra on Fraction product weights, and
whether a seed subalgebra's long roots are long in the ambient algebra.
"""

from fractions import Fraction
from functools import lru_cache
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
        sum((Fraction(c) * w[i] for c, w in zip(coeffs, fund)), Fraction(0))
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


def min_pairing(d, h, lam):
    return -pair(d, lam, dominant_conjugate(d, [-x for x in h]))


def support_contains(d, lam, mu):
    diff = (l - m for l, m in zip(lam, dominant_conjugate(d, mu)))
    return all(x.denominator == 1 and x >= 0 for x in diff)


def conformal_weight(d, lam, level):
    rho = datum(d.type)[2]
    lam2rho = tuple(a + 2 * b for a, b in zip(lam, rho))
    return pair(d, lam2rho, lam) / (2 * (level + d.type.dual_coxeter))


def twisted_lowest(d, lam, level, h):
    return conformal_weight(d, lam, level) + min_pairing(d, h, lam) + level * pair(d, h, h) / 2


def certificate(d, coeffs, level, h):
    """(kind, witness) of the twisted-positivity classification."""
    roots = datum(d.type)[0]
    row = gram_row(d, h)
    if any(sum(a * b for a, b in zip(row, r)) < -1 for r in roots):
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


# -- product-algebra forms --------------------------------------------------------


def invariant_pairing(a, x, y):
    """(x|y) under the invariant form of the product algebra a: the sum over
    the factors of (x_i|y_i) / k_i, k_i the level of factor i.  Each (x_i|y_i)
    is RootDatum.pair, whose integer kernel test_integer_kernel checks."""
    return sum((d.pair(xi, yi) / k for (_, k), d, xi, yi in zip(a.factors, a.data, x, y)),
               Fraction(0))


def long_in_ambient(seed):
    """Whether the long roots of a seed subalgebra have plain ambient norm 2."""
    return seed.long_norm_ambient == 2


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
