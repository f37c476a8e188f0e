"""Fixed-point subalgebras, twisted-sector roots and Lie algebra identification.

A product weight, a root or weight of a product algebra, is one flat tuple
of integers: the root coordinates of every factor, concatenated, times the
algebra's grid denominator D = 2 lcm(fund_den of each factor).  Roots and
integral weights lie on this grid, and so does the h of every order-2 inner
twist: (h|alpha_i) in Z/2 and |alpha_i|^2 in {2, 1, 2/3} put its Dynkin
labels in Z/2.  `product_weight` scales one IntWeight per factor onto the
grid and rejects a weight off it.  Flattening keeps the lexicographic
order of the per-factor tuples, so seeds and simple roots come out in the
order of their coordinates.

Two bilinear forms matter:

* the plain normalized form of each factor -- this is what the inner
  automorphism sees: a weight vector of weight lambda picks up the phase
  exp(-2 pi i (h|lambda)).  (h|alpha) on every root of a factor is read
  from HVector.pairings, made once per factor by RootDatum.root_pairings;
* the invariant form of the ambient algebra, which on root functionals is
  sum_i (.|.)_i / k_i.  A root subsystem spanned by Cartan weight vectors
  has long roots of invariant norm 2/k where k is its level, so levels are
  read off as 2 / (invariant norm of a long root).  This reproduces the
  level transfer rules: a subsystem built on short ambient roots has its
  level multiplied by the squared-length ratio (2 for B/C/F, 3 for G).

Root sets are reduced to a simple system, split into components through
their simple roots and classified as integer vectors under an integer form
that is a positive multiple of the invariant form.  fixed_subalgebra works
factor by factor, on the integer roots `iroots` and rows `root_rows` of
each RootDatum, whose form is scale * k * (invariant); roots of different
factors are orthogonal.  On the grid the invariant form is
(x|y) = x.G.y / (L D^2), G block diagonal with blocks
igram_i * L / (scale_i k_i), L the lcm of the scale_i k_i; this is the
form of assemble_root_subsystem and seeds_meeting.  The embedding search
reads one cached table per target type: the pairings scale * (r|s) of its
roots as integer rows, each made from the simple roots' columns by
linearity, with the roots' norms, integer keys and positive half; the parts
of a query need only their integer Gram matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, mul, neg
from typing import TYPE_CHECKING, NamedTuple

from .rootsys import (IntWeight, MAX_RANK, Record, SimpleType, build_root_datum, scaled_gram,
                      simple_types)

if TYPE_CHECKING:  # named in annotations only, so loading orbifold leaves affine unloaded
    from .affine import HVector, ProductAlgebra

ProductWeight = tuple[int, ...]  # D times the concatenated root coordinates of the factors


class OrbifoldError(ValueError):
    pass


# -- product weights on the grid ------------------------------------------------


@lru_cache(maxsize=None)
def _grid(a: ProductAlgebra) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """(D, G, den) of a product algebra, cached: the grid denominator, and
    the invariant form on the grid, (x|y) = x.G.y / den."""
    D = 2 * lcm(*(d.fund_den for d in a.data))
    L = lcm(*(scaled_gram(t)[0] * k for t, k in a.factors))
    return D, tuple(map(tuple, _block_gram(a.factors, L))), L * D * D


def _block_gram(parts, unit: int) -> list[list[int]] | None:
    """The block-diagonal integer matrix with one block igram(t) * unit /
    (scale(t) * k) per part (t, k), or None when an entry is not an integer."""
    total = sum(t.rank for t, _ in parts)
    G, off = [[0] * total for _ in range(total)], 0
    for t, k in parts:
        scale, igram = scaled_gram(t)
        for i, row in enumerate(igram):
            for j, g in enumerate(row):
                q, rem = divmod(g * unit, scale * k)
                if rem:
                    return None
                G[off + i][off + j] = q
        off += t.rank
    return G


def _rows(a: ProductAlgebra, vecs) -> list[tuple[int, ...]]:
    """v.G for each product weight v (G is symmetric)."""
    G = _grid(a)[1]
    return [tuple(sum(map(mul, v, col)) for col in G) for v in vecs]


def product_weight(a: ProductAlgebra, xs: tuple[IntWeight, ...]) -> ProductWeight:
    """The product weight with one IntWeight per factor.

    Raises OrbifoldError when a weight is not on the grid 1/D."""
    if [len(x.coords) for x in xs] != [t.rank for t, _ in a.factors]:
        raise OrbifoldError(f"{a} needs one weight of the factor's rank per factor")
    D = _grid(a)[0]
    if any(D % x.den for x in xs):
        raise OrbifoldError(f"a weight is off the grid 1/{D} of {a}")
    return tuple(D // x.den * c for x in xs for c in x.coords)


def negate(x: ProductWeight) -> ProductWeight:
    return tuple(map(neg, x))


# -- shapes and seeds --------------------------------------------------------


def _shape_sort_key(ideal):
    t, k = ideal
    return (t.letter, t.rank, k)


class SemisimpleShape(Record):
    """A multiset of simple ideals with levels, plus an abelian center.

    The ideals are kept sorted by (letter, rank, level), so two shapes are
    equal when their multisets and centers are."""

    __slots__ = ("ideals", "center_dim")
    _KEY = ("ideals", "center_dim")

    def __init__(self, ideals: tuple[tuple[SimpleType, int], ...], center_dim: int = 0):
        object.__setattr__(self, "ideals", tuple(sorted(ideals, key=_shape_sort_key)))
        object.__setattr__(self, "center_dim", center_dim)

    @property
    def dim(self) -> int:
        return sum(t.dim for t, _ in self.ideals) + self.center_dim

    @staticmethod
    def parse(s: str) -> "SemisimpleShape":
        ideals = []
        center = 0
        for token in s.split():
            body, _, mult = token.partition("^")
            mult = int(mult) if mult else 1
            if mult < 1:
                raise OrbifoldError(f"multiplicity {mult} in {token!r} is below 1")
            if body == "U(1)":
                center += mult
                continue
            name, _, level = body.partition(",")
            ideals.extend([(SimpleType.parse(name), int(level))] * mult)
        return SemisimpleShape(tuple(ideals), center)

    def __str__(self):
        groups: list[tuple[tuple[SimpleType, int], int]] = []
        for ideal in self.ideals:
            if groups and groups[-1][0] == ideal:
                groups[-1] = (ideal, groups[-1][1] + 1)
            else:
                groups.append((ideal, 1))
        parts = [
            f"{t},{k}" + (f"^{m}" if m > 1 else "") for (t, k), m in groups
        ]
        if self.center_dim:
            parts.append("U(1)" + (f"^{self.center_dim}" if self.center_dim > 1 else ""))
        return " ".join(parts)


class SeedSubalgebra(NamedTuple):
    """A simple root subsystem spanned by ambient Cartan weight vectors; its
    roots are product weights on the ambient algebra's grid."""

    type: SimpleType
    level: int
    simple_roots: tuple[ProductWeight, ...]
    roots: tuple[ProductWeight, ...]


# -- component classification ------------------------------------------------


def _cartan_permutation_match(C, target) -> bool:
    """Whether C equals target up to a simultaneous permutation of indices."""
    n = len(C)
    if len(target) != n:
        return False

    def row_profile(M, i):
        return tuple(sorted(M[i][j] for j in range(n) if j != i))

    src_prof = [row_profile(C, i) for i in range(n)]
    tgt_prof = [row_profile(target, i) for i in range(n)]
    if sorted(src_prof) != sorted(tgt_prof):
        return False
    return _extend_match(C, target, src_prof, tgt_prof, [])


def _extend_match(C, target, src_prof, tgt_prof, assignment) -> bool:
    """Whether the partial match `assignment`, the index of C given to each of
    target's first indices, extends to a full one; its state is passed, not
    closed over, so the search leaves no reference cycle."""
    i = len(assignment)
    if i == len(C):
        return True
    for j in range(len(C)):
        if j in assignment or src_prof[j] != tgt_prof[i]:
            continue
        for i2, j2 in enumerate(assignment):
            if C[j][j2] != target[i][i2] or C[j2][j] != target[i2][i]:
                break
        else:
            assignment.append(j)
            if _extend_match(C, target, src_prof, tgt_prof, assignment):
                return True
            assignment.pop()
    return False


def _cartan_matrix(gram) -> list[list[int]]:
    """The Cartan integers 2 G_ij / G_ii of the Gram matrix G of a simple system."""
    quotients = [[divmod(2 * g, row[i]) for g in row] for i, row in enumerate(gram)]
    if any(rem for row in quotients for _, rem in row):
        raise OrbifoldError("not a crystallographic simple system")
    return [[a for a, _ in row] for row in quotients]


def classify_simple_system(simple_gram, num_roots: int) -> SimpleType:
    """Identify the simple type with the given root count from the integer
    Gram matrix of a simple system.

    The Cartan integers are scale invariant, so the Gram matrix may carry
    any overall positive scaling.  Only the types with num_roots roots are
    compared, each through its cached integer Gram matrix, so no root datum
    is built.
    """
    C = _cartan_matrix(simple_gram)
    for t in simple_types(len(C)):
        if t.num_roots == num_roots and _cartan_permutation_match(
            C, _cartan_matrix(scaled_gram(t)[1])
        ):
            return t
    raise OrbifoldError(f"Cartan matrix {C} matches no simple type with {num_roots} roots")


# -- integer root sets ---------------------------------------------------------
#
# A root set is a list of integer vectors with the parallel list of their
# rows v.M under an integer form M, which is a positive multiple of the
# invariant form: (x|y) = x.row(y) / den.


def _keys(vecs) -> list[int]:
    """Integer keys of integer vectors: a vector's coordinates, first
    coordinate most significant, read as the digits of a number in balanced
    base 4m + 1, m the largest absolute coordinate.

    The key is linear.  A difference of two of the vectors has digits of
    absolute value at most 2m, so it too has a unique key; a key is positive
    exactly when its vector's first non-zero coordinate is, and keys order
    as vectors do.
    """
    base = 4 * max(abs(c) for v in vecs for c in v) + 1
    keys = []
    for v in vecs:
        key = 0
        for c in v:
            key = key * base + c
        keys.append(key)
    return keys


def _simple_indices(vecs) -> list[int]:
    """Indices of the simple roots of a root set, in increasing order of the
    vectors: the positive roots (first non-zero coordinate positive, the
    order induced by a generic linear functional) that are not a difference
    of two positive roots, tested on their `_keys`.
    """
    positive = {key: i for i, key in enumerate(_keys(vecs)) if key > 0}
    return [
        i for key, i in sorted(positive.items())
        if not any(key - p in positive for p in positive)
    ]


def _split(vecs, rows) -> list[tuple[list[int], list[int]]]:
    """The indecomposable components of a root set, as (root indices, simple
    root indices): the roots in increasing order of index, the simple roots
    in increasing order of their vectors.

    Two simple roots are joined when their pairing vecs[i].rows[j] is
    non-zero.  Each root goes to the component of the first simple root it
    pairs with: a root pairs non-trivially with some simple root of its own
    component and with none of another component's.
    """
    if not vecs:
        return []
    simple = _simple_indices(vecs)
    label: dict[int, int] = {}  # simple root -> the first simple root of its component
    for s in simple:
        if s in label:
            continue
        label[s] = s
        stack = [s]
        while stack:
            x = stack.pop()
            for y in simple:
                if y not in label and sum(map(mul, vecs[x], rows[y])):
                    label[y] = s
                    stack.append(y)
    parts = {s: ([], []) for s in simple if label[s] == s}
    for s in simple:
        parts[label[s]][1].append(s)
    for i, row in enumerate(rows):
        parts[label[next(s for s in simple if sum(map(mul, vecs[s], row)))]][0].append(i)
    return list(parts.values())


def _classify(vecs, rows, part, simple, den: int):
    """Type and level of the indecomposable component of a root set with
    the given root and simple-root indices.

    The level is 2 / (invariant norm of a long root) = 2 den / (largest
    scaled norm).
    """
    gram = [[sum(map(mul, vecs[i], rows[j])) for j in simple] for i in simple]
    t = classify_simple_system(gram, len(part))
    long_norm = max(sum(map(mul, vecs[i], rows[i])) for i in part)
    level, rem = divmod(2 * den, long_norm)
    if rem or level < 1:
        raise OrbifoldError(
            f"component of type {t} has non-integral level {Fraction(2 * den, long_norm)}"
        )
    return t, level


# -- the fixed-point subalgebra ----------------------------------------------


def fixed_subalgebra(a: ProductAlgebra, h: HVector):
    """Roots of the ambient algebra fixed by the inner automorphism of h.

    Collects the ambient roots alpha with (h|alpha) integral, splits them
    into indecomposable components, classifies each component and reads off
    its level; the leftover Cartan directions form the abelian center.
    Roots of different factors are orthogonal, so each factor is split on
    its own integer roots and rows, at the form scale * k_i * (invariant).
    """
    D = _grid(a)[0]
    seeds, off = [], 0
    for (t, k), d, (q, pairings) in zip(a.factors, a.data, h.pairings):
        bad = next((p for p in pairings if 2 * p % q), None)
        if bad is not None:
            raise OrbifoldError(
                f"(h|alpha) = {Fraction(bad, q)} is not half-integral on factor {t}"
            )
        fixed = [j for j, p in enumerate(pairings) if p % q == 0]
        vecs = [d.iroots[j] for j in fixed]
        rows = [d.root_rows[j] for j in fixed]
        before, after = (0,) * off, (0,) * (a.rank - off - t.rank)
        lift = lambda i: before + tuple(D * c for c in vecs[i]) + after
        for part, simple in _split(vecs, rows):
            ty, level = _classify(vecs, rows, part, simple, d.scale * k)
            seeds.append(SeedSubalgebra(ty, level, tuple(map(lift, simple)), tuple(map(lift, part))))
        off += t.rank
    seeds.sort(key=lambda s: (_shape_sort_key((s.type, s.level)), s.simple_roots))
    center = a.rank - sum(s.type.rank for s in seeds)
    shape = SemisimpleShape(tuple((s.type, s.level) for s in seeds), center)
    return shape, seeds


# -- twisted sector ----------------------------------------------------------


def twisted_sector_roots(a: ProductAlgebra, h: HVector, base_weights) -> list[ProductWeight]:
    """Weights mu + k h (factorwise) of twisted-sector vectors of weight one,
    for base weights mu given as one IntWeight per factor."""
    levels = [k for t, k in a.factors for _ in range(t.rank)]
    kh = tuple(map(mul, levels, product_weight(a, h.ints)))
    return [tuple(map(add, product_weight(a, mu), kh)) for mu in base_weights]


def assemble_root_subsystem(a: ProductAlgebra, fixed_roots, twisted_roots) -> SeedSubalgebra:
    """Verify that the union of the given roots is one simple root system.

    Closure is checked under negation and under the reflections in every
    element of the set (with respect to the invariant form); failures
    report the violating pair.
    """
    roots = sorted(set(fixed_roots) | set(twisted_roots))
    rows = _rows(a, roots)
    index = set(roots)
    for r in roots:
        if negate(r) not in index:
            raise OrbifoldError(f"root set not closed under negation at {r}")
    for r, row in zip(roots, rows):
        nr = sum(map(mul, r, row))
        for s in roots:
            c, rem = divmod(2 * sum(map(mul, s, row)), nr)
            if rem:
                raise OrbifoldError(f"non-crystallographic pair {r}, {s}")
            if c and tuple(y - c * x for y, x in zip(s, r)) not in index:
                raise OrbifoldError(
                    f"not a root system: reflection of {s} in {r} escapes the set"
                )
    parts = _split(roots, rows)
    if len(parts) != 1:
        raise OrbifoldError(f"assembled set splits into {len(parts)} components")
    part, simple = parts[0]
    t, level = _classify(roots, rows, part, simple, _grid(a)[2])
    return SeedSubalgebra(t, level, tuple(roots[i] for i in simple), tuple(roots))


def seeds_meeting(a: ProductAlgebra, seeds, roots) -> list[SeedSubalgebra]:
    """The seeds with a root that pairs non-trivially, under the invariant
    form, with one of the given roots."""
    rows = _rows(a, roots)
    return [s for s in seeds if any(sum(map(mul, v, row)) for v in s.roots for row in rows)]


# -- sub-root-system embeddings ----------------------------------------------


# byte b -> b ^ 0x80: turns the bytes d + 128 of a biased row into the two's
# complement bytes of the signed entries d
_FLIP = bytes(b ^ 0x80 for b in range(256))


class _SearchTable(NamedTuple):
    """The roots of an embedding target as the search reads them, by index
    in the order of iroots."""

    rows: list[list[int]]  # rows[r][s] = scale * (r|s)
    norms: list[int]  # the diagonal, rows[r][r]
    by_norm: dict[int, list[int]]  # scaled norm -> the roots of that norm, increasing
    keys: list[int]  # the `_keys` of the roots
    index: dict[int, int]  # key -> root
    positive: range  # the positive roots, the upper half of iroots


@lru_cache(maxsize=None)
def _search_table(t: SimpleType) -> _SearchTable:
    """The search table of a type, cached, built in one pass over its roots.

    The form is bilinear, (r|s) = sum_i r_i (alpha_i|s), so the row of a
    root r is the sum over i of r_i times column i of root_rows.  iroots is
    sorted and closed under negation, so root n-1-j is minus root j, and so
    is its row, and the positive roots are the upper half.

    A row is built as one integer, its entries the signed digits of base 256
    (entry s times 256**s), so a column costs one multiplication and a
    negative row one negation.  Each entry is at most the largest scaled
    norm in absolute value (Cauchy-Schwarz), which the build checks is below
    128, so adding 128 to every digit leaves bytes; a row is unpacked once,
    from those bytes, into a list of ints.

    The `_keys` of the roots are linear and one-to-one on roots, so the
    reflection s_b x = x - c b, with c = 2(x|b)/(b|b), is the root whose key
    is key(x) - c * key(b).
    """
    d = build_root_datum(t)
    top = max(row[i] for i, row in enumerate(d.igram))
    if top >= 128:
        raise OrbifoldError(f"root pairings of {t} reach {top}, beyond one signed byte")
    roots, n = d.iroots, len(d.iroots)
    bias = int.from_bytes(b"\x80" * n, "little")
    cols = [int.from_bytes(bytes([row[i] + 128 for row in d.root_rows]), "little") - bias
            for i in range(len(d.igram))]
    X = [0] * n
    positive = range(n // 2, n)
    for j in positive:
        X[j] = sum(map(mul, roots[j], cols))
        X[n - 1 - j] = -X[j]
    rows = [memoryview((bias + x).to_bytes(n, "little").translate(_FLIP)).cast("b").tolist()
            for x in X]
    norms = [row[j] for j, row in enumerate(rows)]
    by_norm: dict[int, list[int]] = {}
    for j, norm in enumerate(norms):
        by_norm.setdefault(norm, []).append(j)
    keys = _keys(roots)
    return _SearchTable(rows, norms, by_norm, keys, {key: j for j, key in enumerate(keys)},
                        positive)


def _find_gram_embedding(target: SimpleType, required_gram) -> bool:
    """Backtracking search for roots of the target with a prescribed Gram matrix.

    The required Gram matrix is an integer matrix in the target's scale, so
    its entries are compared directly with the rows of the target's
    `_search_table`.  Each index starts from the roots of its norm.
    Domains are filtered forward after every placement and the next index
    is always the one with the smallest domain.

    Each node tries one root per orbit of W', the group generated by the
    reflections in the roots orthogonal to every placed root (its positive
    ones are `perp`), and after a candidate fails it marks the candidate's
    whole W'-orbit as failed.  This is sound because such a reflection fixes
    the placed roots and every pairing with them, so it maps each domain to
    itself and completions to completions; by Steinberg's theorem (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12) W' is the whole pointwise
    stabilizer of the placed roots, so no Weyl group element prunes more.
    At the top no root is placed, so W' is the Weyl group W, which acts
    transitively on the roots of one length (Humphreys, Lie Algebras, 10.4
    Lemma C): the smallest starting domain is one orbit, so it is cut to its
    first root.
    """
    table = _search_table(target)
    domains = [table.by_norm.get(row[i]) for i, row in enumerate(required_gram)]
    if not all(domains):
        return False
    if domains:
        i = min(range(len(domains)), key=lambda j: len(domains[j]))
        domains[i] = domains[i][:1]
    return _extend_embedding(table, required_gram, domains, frozenset(range(len(domains))),
                             table.positive)


def _extend_embedding(table, required_gram, domains, unplaced, perp) -> bool:
    """Whether roots can be placed at the indices in `unplaced`, each in its
    domain, with the required pairings; the node of `_find_gram_embedding`,
    its state passed, not closed over, so the search leaves no reference cycle."""
    if not unplaced:
        return True
    P, norms, _, keys, index, _ = table
    i = min(unplaced, key=lambda j: len(domains[j]))
    rest = unplaced - {i}
    want = required_gram[i]
    last = domains[i][-1]
    failed = set()
    for r in domains[i]:
        if r in failed:
            continue
        row = P[r]
        new_domains = list(domains)
        for j in rest:
            nd = [s for s in domains[j] if row[s] == want[j]]
            if not nd:
                break
            new_domains[j] = nd
        else:
            if _extend_embedding(table, required_gram, new_domains, rest,
                                 [b for b in perp if row[b] == 0]):
                return True
        if r == last:  # no candidate is left for the orbit to rule out
            break
        failed.add(r)
        stack = [r]
        while stack:
            x = stack.pop()
            xrow, xkey = P[x], keys[x]
            for b in perp:
                if xrow[b]:
                    y = index[xkey - 2 * xrow[b] // norms[b] * keys[b]]
                    if y not in failed:
                        failed.add(y)
                        stack.append(y)
    return False


@lru_cache(maxsize=None)
def _embedding_cached(target: SimpleType, parts_scaled) -> bool:
    """Whether the parts, each with its Gram matrix divided by its level
    scaling xi, embed orthogonally in the target: whether roots of the target
    meet their block Gram matrix in the target's integers scale * gram.  No
    pair of roots meets an entry that is not integral (G is None)."""
    G = _block_gram(parts_scaled, scaled_gram(target)[0])
    return G is not None and _find_gram_embedding(target, G)


def _embedding_query(target: SimpleType, parts, scalings) -> bool:
    key = tuple(sorted(zip(parts, scalings), key=lambda ps: (_shape_sort_key((ps[0], 1)), ps[1])))
    return _embedding_cached(target, key)


def embeds(x, y: SimpleType) -> bool:
    """Whether a simple system of type x (or an orthogonal sum of types)
    exists inside the root set of y, norms matching exactly."""
    parts = tuple(x) if isinstance(x, (tuple, list)) else (x,)
    if sum(t.rank for t in parts) > y.rank:
        return False
    return _embedding_query(y, parts, (1,) * len(parts))


# -- identification of the new weight-one algebra ----------------------------


def _candidate_ideals(rank_budget: int, dim_target: int, ratio: Fraction):
    """Simple ideals (type, level) with h_vee = ratio * level, bounded by
    the rank and dimension budget, one per isomorphism class of type."""
    out = []
    for rank in range(1, rank_budget + 1):
        for t in simple_types(rank):
            if t.dim > dim_target:
                continue
            level, rem = divmod(t.dual_coxeter * ratio.denominator, ratio.numerator)
            if not rem and level >= 1:
                out.append((t, level))
    out.sort(key=lambda c: (-c[0].dim, _shape_sort_key(c)))
    return out


def _seed_placements(seed, ideal):
    """Admissible level scalings for placing a seed inside a candidate ideal."""
    (st, sk), (it, ik) = seed, ideal
    if st.rank > it.rank:
        return []
    out = []
    if sk == ik:
        out.append(1)
    simply_laced = st.letter in ("A", "D", "E")
    if simply_laced and it.letter in ("B", "C", "F") and sk == 2 * ik:
        out.append(2)
    if simply_laced and it.letter == "G" and sk == 3 * ik:
        out.append(3)
    return out


def identify(rank_budget: int, dim_target: int, seeds) -> list[SemisimpleShape]:
    """All semisimple shapes consistent with the dimension, the rank, the
    ratio constraint h_vee/level = (dim-24)/24 and the seed subalgebras.

    Seeds are (type, level) pairs; each seed must embed in some ideal, with
    both level-transfer branches tried, and seeds sharing an ideal must embed
    as an orthogonal sum.
    """
    if dim_target <= 24:
        raise OrbifoldError("dimension target must exceed 24")
    # no candidate ideal has rank above the cap, so a larger budget would miss shapes
    if rank_budget > MAX_RANK:
        raise OrbifoldError(f"rank {rank_budget} exceeds the identification cap {MAX_RANK}")
    ratio = Fraction(dim_target - 24, 24)
    seed_keys = [(t, k) for t, k in seeds]
    candidates = _candidate_ideals(rank_budget, dim_target, ratio)

    multisets: list[tuple] = []
    _ideal_multisets(candidates, 0, rank_budget, dim_target, [], multisets)
    admitted = (SemisimpleShape(m) for m in multisets if _admits_seeds(seed_keys, m))
    shapes = {str(shape): shape for shape in admitted}
    return [shapes[k] for k in sorted(shapes)]


def _ideal_multisets(candidates, idx, rank_left, dim_left, acc, out) -> None:
    """Append to `out` every multiset of the candidates from index idx on, as
    a tuple in candidate order with the most copies first, that uses up
    exactly the rank and dimension left; acc holds the ideals chosen so far."""
    if rank_left == 0 and dim_left == 0:
        out.append(tuple(acc))
        return
    if idx == len(candidates) or rank_left <= 0 or dim_left <= 0:
        return
    t, k = candidates[idx]
    max_copies = min(rank_left // t.rank, dim_left // t.dim)
    for copies in range(max_copies, -1, -1):
        _ideal_multisets(candidates, idx + 1, rank_left - copies * t.rank,
                         dim_left - copies * t.dim, acc + [(t, k)] * copies, out)


def _admits_seeds(seed_keys, ideals) -> bool:
    """Whether every seed (type, level) can be placed in one of the ideals,
    at an admissible level scaling, with the seeds sharing an ideal embedding
    in it as an orthogonal sum."""
    options = []
    for seed in seed_keys:
        opts = [(slot, xi) for slot, ideal in enumerate(ideals)
                for xi in _seed_placements(seed, ideal)]
        if not opts:
            return False
        options.append(opts)
    return _assign_seeds(seed_keys, ideals, options, 0, {})


def _assign_seeds(seed_keys, ideals, options, i, per_slot) -> bool:
    """Whether seeds i onward can be placed, given the (type, scaling) pairs
    already placed in each slot of `per_slot`; its state is passed, not
    closed over, so the search leaves no reference cycle."""
    if i == len(seed_keys):
        return True
    for slot, xi in options[i]:
        placed = per_slot.setdefault(slot, [])
        placed.append((seed_keys[i][0], xi))
        parts = tuple(t for t, _ in placed)
        scalings = tuple(x for _, x in placed)
        ok = sum(t.rank for t in parts) <= ideals[slot][0].rank and _embedding_query(
            ideals[slot][0], parts, scalings
        )
        if ok and _assign_seeds(seed_keys, ideals, options, i + 1, per_slot):
            return True
        placed.pop()
        if not placed:
            del per_slot[slot]
    return False


# -- the Verlinde check --------------------------------------------------------


@lru_cache(maxsize=None)  # depends only on a = +-1, and the result is immutable
def verlinde_simple_current(a: int):
    """Fusion rules of the four-module system from its S-matrix.

    For a = 1 or -1 the 4x4 S-matrix squares to the identity; the Verlinde
    sum must produce nonnegative integer fusion coefficients with
    N_{P,P}^Q nonzero only at the vacuum, where it is 1.  The check runs on
    T = 2S, whose entries are +-1: T^2 = 4I, and as 1/S_0t = 2 T_0t,
    N_pq^r = sum_t T_pt T_qt T_tr T_0t / 4.
    """
    if a not in (1, -1):
        raise OrbifoldError("the S-matrix parameter must be +1 or -1")
    T = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, a, -a], [1, -1, -a, a]]
    n = 4
    cols = list(zip(*T))
    if any(sum(map(mul, T[i], cols[j])) != 4 * (i == j) for i in range(n) for j in range(n)):
        raise OrbifoldError("S-matrix does not square to the identity")
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(n):
            # the t-th factor T_pt T_qt T_0t, shared by every r
            w = [x * y * z for x, y, z in zip(T[p], T[q], T[0])]
            for r in range(n):
                total = sum(map(mul, w, cols[r]))
                val, rem = divmod(total, 4)
                if rem or val < 0:
                    raise OrbifoldError(
                        f"fusion coefficient N_{p},{q}^{r} = {Fraction(total, 4)} "
                        "is not a nonnegative integer"
                    )
                N[p][q][r] = val
    for p in range(n):
        for r in range(n):
            expected = 1 if r == 0 else 0
            if N[p][p][r] != expected:
                raise OrbifoldError(f"module {p} is not a simple current: N[{p}][{p}][{r}]={N[p][p][r]}")
    return tuple(tuple(tuple(row) for row in plane) for plane in N)
