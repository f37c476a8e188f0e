import gc
import hashlib
import weakref
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import ceil, floor, isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_oracle import (
    block_add,
    block_dot,
    lattice_blocks,
    project_fixed,
    projected_form_ok,
    vec_dot,
)
from orbifold24 import affine, lattice
from orbifold24.lattice import (
    A4_SIMPLE,
    BETA5,
    DELTA5,
    GLUE5,
    GLUE_GENERATORS,
    H_DEN,
    LAMBDA5,
    ZERO5,
    LatticeError,
    NiemeierLattice,
    a4_class_of,
    build_glue_code,
    dot,
    enumerate_S,
    in_projected_lattice,
    inner_h,
    min_norm_shifted,
    tau0,
    twist_anomaly,
    twisted_sector_min_shift,
    twisted_weight_one,
)
from orbifold24.orbifold import (
    SemisimpleShape,
    _cartan_permutation_match,
    _embedding_cached,
    embeds,
    identify,
)
from orbifold24.rootsys import SimpleType, _to_integral, build_root_datum
from orbifold24.scenarios import fixed_shape_A45

F = Fraction
DATA = Path(__file__).parent / "data"


def fifths(m):
    """The Fraction block m/5 of an integer table entry m = 5v."""
    return tuple(F(c, 5) for c in m)


def fives(b):
    """The integer vector 5b of a Fraction block b with 5b integral."""
    return tuple(int(5 * c) for c in b)


def tens(x):
    """The flat integer vector H_DEN x of Fraction blocks x, the form h is given in."""
    return tuple(int(H_DEN * c) for b in x for c in b)


ZERO = (F(0),) * 5
GLUE_REP = fifths(GLUE5)
LAMBDA_P = fifths(LAMBDA5)
DELTA1, DELTA2 = fifths(DELTA5[1]), fifths(DELTA5[2])
BETA = {i: fifths(b) for i, b in BETA5.items()}


@pytest.fixture(scope="module")
def N():
    return NiemeierLattice()


@pytest.fixture(scope="module")
def h():
    return inner_h()


@pytest.fixture(scope="module")
def H(h):
    """h as Fraction blocks."""
    return lattice_blocks(h, H_DEN)


# -- glue code -------------------------------------------------------------------


def rank_mod_5(words):
    """The rank over Z/5 of a set of words, by Gauss-Jordan elimination."""
    rows = [list(w) for w in sorted(words)]
    r = 0
    for col in range(len(rows[0])):
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


def test_glue_code_order_and_rank():
    code = build_glue_code()
    assert isinstance(code, frozenset) and len(code) == 125
    assert rank_mod_5(code) == 3  # the four generator rows are dependent mod 5


def test_glue_code_membership():
    code = build_glue_code()
    assert (1, 0, 1, 4, 4, 1) in code
    assert (0,) * 6 in code
    assert (0, 1, 1, 1, 1, 1) in code


def test_glue_code_cycle_invariance():
    code = build_glue_code()
    for w in code:
        assert (w[0], w[5], w[1], w[2], w[3], w[4]) in code


# -- coset machinery -------------------------------------------------------------


def a4_roots():
    """The 20 roots e_i - e_j of A4, as Fraction blocks, sorted."""
    out = []
    for pos, neg in permutations(range(5), 2):
        v = [F(0)] * 5
        v[pos], v[neg] = F(1), F(-1)
        out.append(tuple(v))
    return sorted(out)


def oracle_coset_ball(digit, center5, max_norm):
    """The A4* coset ball of the digit around a rational center c, in integers.

    The slow oracle for `lattice._coset_ball` (integral centers only) and
    `lattice._coset_min`.  The center is given as 5c.  Returns (s, ball), with
    s = 25*D^2 for D the lcm of the denominators of 5c.  The ball lists the
    pairs (m, n), sorted by m, where m = 5v runs over the integer vectors with
    m_i = digit mod 5 and sum(m) = 0, and n = s*|v - c|^2 = sum (D*m_i -
    D*5c_i)^2 is at most s*max_norm.
    """
    den, cs = _to_integral([F(c) for c in center5])
    s = 25 * den * den
    max_norm = F(max_norm)
    if max_norm < 0:
        return s, []
    limit = s * max_norm.numerator // max_norm.denominator
    r = isqrt(limit)

    def coord_range(c):
        # |D*m - c| <= r, with m = digit mod 5
        lo, hi = -((r - c) // den), (c + r) // den
        return range(lo + (digit - lo) % 5, hi + 1, 5)

    ranges = [coord_range(c) for c in cs[:4]]
    ball = []

    def rec(i, ms, used):
        if i == 4:
            m = -sum(ms)
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
    return s, ball


def oracle_ball_min(digit, center5, max_norm):
    """Min of |v - c|^2 over the oracle's coset ball around c (given as 5c), or
    None when the ball is empty."""
    s, ball = oracle_coset_ball(digit, center5, max_norm)
    return F(min(n for _, n in ball), s) if ball else None


def a4_class_ball(digit, center, max_norm):
    """All v in the A4* coset of the digit with |v - center|^2 <= max_norm, sorted,
    as Fraction blocks from the oracle's integer coset ball."""
    ball = oracle_coset_ball(digit, [5 * c for c in center], max_norm)[1]
    return [fifths(m) for m, _ in ball]


def a4_class_min_vectors(digit):
    """Minimal-norm vectors of an A4* coset (norms 0, 4/5, 6/5, 6/5, 4/5)."""
    for bound in (0, F(4, 5), F(6, 5)):
        vs = a4_class_ball(digit, ZERO, bound)
        if vs:
            return vs
    raise AssertionError(f"empty coset ball for digit {digit}")


def test_class_minimal_norms():
    norms = [block_dot(a4_class_min_vectors(g)[0], a4_class_min_vectors(g)[0]) for g in range(5)]
    assert norms == [0, F(4, 5), F(6, 5), F(6, 5), F(4, 5)]
    assert len(a4_class_min_vectors(1)) == 5
    assert len(a4_class_min_vectors(2)) == 10


def test_class_of_glue_representative():
    assert a4_class_of(GLUE5) == 1
    assert a4_class_of(ZERO5) == 0
    assert a4_class_of(tuple(3 * c for c in GLUE5)) == 3
    for bad in ((1, 1, 1, 1, 1), (1, -1, 0, 0, 0), (5, 0, 0, 0, -4)):
        with pytest.raises(LatticeError):
            a4_class_of(bad)


def test_class_ball_is_exact():
    # norm-2 vectors of the zero class are exactly the 20 roots
    roots = [v for v in a4_class_ball(0, ZERO, 2) if block_dot(v, v) == 2]
    assert len(roots) == 20
    assert roots == a4_roots()
    assert a4_class_ball(0, ZERO, 2) == brute_force_ball(0, ZERO, 2)


def brute_force_ball(digit, center, max_norm):
    """The coset ball by Fraction distances over the whole coordinate box."""
    max_norm = F(max_norm)
    if max_norm < 0:
        return []
    reach = isqrt(floor(25 * max_norm)) + 1  # |m_i - 5 c_i| <= 5 sqrt(max_norm)
    axes = [
        [m for m in range(floor(5 * c) - reach, ceil(5 * c) + reach + 1) if m % 5 == digit % 5]
        for c in center
    ]
    blocks = (tuple(F(m, 5) for m in ms) for ms in product(*axes) if sum(ms) == 0)
    return sorted(v for v in blocks if sum((a - c) ** 2 for a, c in zip(v, center)) <= max_norm)


def _rationals(denominators, lo, hi):
    """k/d for d drawn from the denominators and lo*d <= k <= hi*d."""
    return st.sampled_from(denominators).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda k: F(k, d))
    )


@st.composite
def _centers(draw):
    c = draw(st.lists(_rationals([1, 2, 3, 5, 10, 15], -3, 3), min_size=5, max_size=5))
    if draw(st.booleans()):  # on the sum-zero hyperplane, where the callers' centers lie
        c[4] = -sum(c[:4])
    return tuple(c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), _centers(), _rationals([1, 3, 5, 15], -1, 6))
@example(1, GLUE_REP, 2)
@example(2, tuple(-c for c in DELTA2), F(8, 5))
def test_class_ball_matches_brute_force(digit, center, max_norm):
    got = a4_class_ball(digit, center, max_norm)
    assert got == brute_force_ball(digit, center, max_norm)
    center5 = [5 * c for c in center]
    if all(F(c).denominator == 1 for c in center5):
        # the module's ball, for integral 5c, is the oracle's with s = 25
        assert lattice._coset_ball(digit, [int(c) for c in center5], max_norm) == (
            oracle_coset_ball(digit, center5, max_norm)[1]
        )
    if max_norm < 0:
        assert got == []
    # a bound a hair under the farthest distance drops exactly the farthest vectors
    dist = {v: sum((a - c) ** 2 for a, c in zip(v, center)) for v in got}
    if got:
        far = max(dist.values())
        assert a4_class_ball(digit, center, far - F(1, 10**6)) == [v for v in got if dist[v] < far]


def test_class_ball_negative_bound_is_empty():
    for g in range(5):
        assert a4_class_ball(g, ZERO, F(-1, 15)) == []
        assert a4_class_ball(g, GLUE_REP, -1) == []


def _cold_e8_level_3_modules(N):
    affine._modules.cache_clear()
    return affine._modules(SimpleType("E", 8), 3)


def _d7_cartan_matches_itself(N):
    C = build_root_datum(SimpleType("D", 7)).cartan
    return _cartan_permutation_match(C, C)


def _cold_a1_a5_in_e7(N):
    _embedding_cached.cache_clear()
    return embeds([SimpleType("A", 1), SimpleType("A", 5)], SimpleType("E", 7))


def _cold_identify(N):
    _embedding_cached.cache_clear()
    return identify(12, 120, [(SimpleType("A", 2), 1)])


# a self-calling nested function left a cycle per call: 111 objects after the
# coset ball, 9 after the E8 modules, 28 after the D7 match, 15 after the
# embedding query and 93 after the identification; a fresh lattice and its
# norm <= 2 vectors are the path `run` takes for the lattice scenario
@pytest.mark.parametrize("call", [
    lambda N: lattice._coset_ball(0, lattice.ZERO5, 4),
    lambda N: N.vectors_of_norm_at_most(4),
    lambda N: NiemeierLattice().vectors_of_norm_at_most(2),
    _cold_e8_level_3_modules,
    _d7_cartan_matches_itself,
    _cold_a1_a5_in_e7,
    _cold_identify,
], ids=["coset-ball", "norm-4-vectors", "fresh-lattice-norm-2", "e8-modules", "cartan-match", "embeds", "identify"])
def test_search_leaves_no_reference_cycles(N, call):
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert call(N)
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), _centers())
@example(0, ZERO)
@example(3, (F(1, 2), F(1, 3), F(-1, 5), F(3), F(-7, 10)))
def test_coset_min_matches_oracle(digit, center):
    # |v - c|^2 splits into the distance to the hyperplane, (sum c)^2/5, and a
    # distance within it, at most the squared covering radius 6/5 of A4
    # (SPLAG, ch. 4, section 6.1); so the oracle's ball at their sum is never empty
    center5 = [5 * c for c in center]
    den, cs = _to_integral(center5)
    want = oracle_ball_min(digit, center5, sum(center) ** 2 / 5 + F(6, 5))
    assert want is not None
    assert F(lattice._coset_min(digit, cs, den), 25 * den * den) == want


# -- the lattice -----------------------------------------------------------------


def test_lattice_even_unimodular(N):
    assert all(type(v) is int for row in N.gram for v in row)
    assert all(int(N.gram[i][i]) % 2 == 0 for i in range(24))
    # determinant 1 is asserted during construction; cross-check the size
    assert len(N.basis) == 24
    assert all(len(b) == 30 and all(type(c) is int for c in b) for b in N.basis)
    B = [lattice_blocks(b) for b in N.basis]
    assert N.gram == [[vec_dot(x, y) for y in B] for x in B]


def test_lattice_roots(N):
    roots = N.roots()
    assert len(roots) == 120
    assert all(vec_dot(r, r) == 2 for r in roots)
    # by glue word, then by the blocks as 5v: the order tests/data/lattice.txt pins
    norm2 = [v for v in N.vectors_of_norm_at_most(2) if vec_dot(v, v) == 2]
    keys = enumeration_keys(norm2)
    assert roots == tuple(v for _, v in sorted(zip(((w, m) for w, _, m in keys), norm2)))


def det_fraction(M) -> Fraction:
    """Oracle: the determinant by Gaussian elimination in Fractions."""
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return det


def test_gram_determinant_matches_fraction_oracle(N):
    gram = [[int(v) for v in row] for row in N.gram]
    assert lattice._det_bareiss(gram) == det_fraction(gram) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_bareiss_matches_fraction_oracle(M):
    # small entries make zero pivots (row swaps) and singular matrices common
    assert lattice._det_bareiss(M) == det_fraction(M)


def test_lattice_membership_example(N):
    assert N.contains(LAMBDA5 + GLUE5 * 5)
    assert not N.contains(GLUE5 * 5 + ZERO5)
    assert not N.contains(LAMBDA5 + GLUE5 * 4 + (1, 1, 1, 1, 1))


def test_minimum_norm_is_two(N):
    small = N.vectors_of_norm_at_most(F(6, 5))
    assert small == [tuple(ZERO for _ in range(6))]


# -- the norm <= 4 enumeration -------------------------------------------------------


def per_prefix_vectors(word, bound):
    """The former enumeration of one glue word, kept as the oracle: a fresh coset
    ball for every prefix, with Fraction budgets."""
    bound = F(bound)
    min_norms = {
        g: block_dot(a4_class_min_vectors(g)[0], a4_class_min_vectors(g)[0]) for g in range(5)
    }
    tail_min = [F(0)] * 7
    for i in range(5, -1, -1):
        tail_min[i] = tail_min[i + 1] + min_norms[word[i]]
    out = []
    if tail_min[0] > bound:
        return out

    def rec(i, acc, used):
        if i == 6:
            out.append(tuple(acc))
            return
        budget = bound - used - tail_min[i + 1]
        for b in a4_class_ball(word[i], ZERO, budget):
            rec(i + 1, acc + [b], used + block_dot(b, b))

    rec(0, [], F(0))
    return out


def enumeration_keys(vectors):
    """Each vector's (glue word, block norms, blocks as 5v), the enumeration's
    order; blocks are shared between vectors, so each is converted once."""
    parts, keys = {}, []
    for v in vectors:
        for b in v:
            if id(b) not in parts:
                m = fives(b)
                parts[id(b)] = (a4_class_of(m), sum(x * x for x in m), m)
        keys.append(tuple(zip(*(parts[id(b)] for b in v))))
    return keys


def in_enumeration_order(vectors):
    keys = enumeration_keys(vectors)
    return [vectors[i] for i in sorted(range(len(vectors)), key=keys.__getitem__)]


@pytest.fixture(scope="module")
def norm4(N):
    return N.vectors_of_norm_at_most(4)


@pytest.fixture(scope="module")
def norm4_by_word(norm4):
    """The norm <= 4 vectors of each glue word, in enumeration order."""
    digit, groups = {}, {}
    for v in norm4:
        for b in v:
            if id(b) not in digit:
                digit[id(b)] = a4_class_of(fives(b))
        groups.setdefault(tuple(digit[id(b)] for b in v), []).append(v)
    return groups


def _block_keys(vectors):
    """Each vector as a tuple of small block indices, with the blocks as integer
    vectors 5b; blocks are shared between vectors, so each is converted once."""
    index, blocks, by_id = {}, [], {}

    def key(b):
        i = by_id.get(id(b))
        if i is None:
            m = tuple(int(5 * c) for c in b)
            i = index.setdefault(m, len(blocks))
            if i == len(blocks):
                blocks.append(m)
            by_id[id(b)] = i
        return i

    return [tuple(key(b) for b in v) for v in vectors], blocks, index


def test_norm4_counts_and_symmetry(norm4):
    keys, blocks, index = _block_keys(norm4)
    norms = [sum(x * x for x in m) for m in blocks]  # in units of 1/25
    counts = Counter(sum(norms[i] for i in k) for k in keys)
    # theta = E4^3 - 600 Delta: 1 + 120 q + 193680 q^2
    assert counts == {0: 1, 50: 120, 100: 193680}
    keyset = set(keys)
    assert len(keyset) == len(keys)
    neg = [index.get(tuple(-x for x in m)) for m in blocks]
    for k in keys:
        assert tuple(neg[i] for i in k) in keyset
        assert (k[0], k[5], k[1], k[2], k[3], k[4]) in keyset


def test_enumeration_matches_per_prefix_oracle(N):
    oracle = [v for w in sorted(N.glue) for v in per_prefix_vectors(w, 2)]
    assert N.vectors_of_norm_at_most(2) == in_enumeration_order(oracle)


@pytest.mark.parametrize(
    "word",
    [
        (0, 0, 0, 0, 0, 0),
        (0, 1, 1, 1, 1, 1),
        (1, 0, 1, 4, 4, 1),
        (0, 0, 1, 2, 3, 4),
        # last three digits distinct and non-zero
        (0, 1, 0, 4, 3, 2),
        (0, 2, 0, 3, 1, 4),
    ],
)
def test_norm4_word_matches_per_prefix_oracle(N, norm4_by_word, word):
    assert word in N.glue
    got = norm4_by_word[word]
    assert got and got == in_enumeration_order(per_prefix_vectors(word, 4))


def test_enumeration_builds_each_coset_ball_once(N, monkeypatch):
    calls = []
    ball = lattice._coset_ball

    def counted(digit, center5, max_norm):
        calls.append(digit)
        return ball(digit, center5, max_norm)

    monkeypatch.setattr(lattice, "_coset_ball", counted)
    N.vectors_of_norm_at_most(4)
    assert Counter(calls) == Counter(range(5))


def test_norm4_is_increasing_in_word_then_blocks(norm4):
    # sorted glue words, then the tuples of block norms, then lexicographic by 5v
    keys = enumeration_keys(norm4)
    assert all(a < b for a, b in zip(keys, keys[1:]))


# the count and a SHA-256 over the sorted keys of the former per-prefix
# enumeration, each vector keyed by its blocks' indices among the 191 blocks
# of the coset balls at norm 4, sorted by 5v
@pytest.mark.parametrize("bound, count, digest", [
    (0, 1, "3ab4d5f9321f7a3ef6d502d4c82e9e78b77822abb149b3275cf62d02dac3aa36"),
    (F(6, 5), 1, "3ab4d5f9321f7a3ef6d502d4c82e9e78b77822abb149b3275cf62d02dac3aa36"),
    (2, 121, "2c4ad3ff901a3f47faeebaea96435ed7ab33fae08571664fc49d3209e72e13ed"),
    (F(13, 5), 121, "2c4ad3ff901a3f47faeebaea96435ed7ab33fae08571664fc49d3209e72e13ed"),
    (3, 121, "2c4ad3ff901a3f47faeebaea96435ed7ab33fae08571664fc49d3209e72e13ed"),
    (4, 193801, "99cddc6eca4318ed83b6da1cc27611417ff617bc64a6d38b0ff93abfef086eb1"),
])
def test_enumeration_keeps_the_former_vectors(N, bound, count, digest):
    balls = [m for g in range(5) for m, _ in oracle_coset_ball(g, ZERO5, 4)[1]]
    index = {m: i for i, m in enumerate(sorted(balls))}
    vectors = N.vectors_of_norm_at_most(bound)
    # the blocks are shared, so each is converted once
    blocks = {id(b): b for v in vectors for b in v}
    block_index = {i: index[fives(b)] for i, b in blocks.items()}
    keys = [bytes(map(block_index.__getitem__, map(id, v))) for v in vectors]
    assert len(keys) == len(set(keys)) == count
    assert hashlib.sha256(b"".join(sorted(keys))).hexdigest() == digest


def test_norm4_blocks_are_shared_coset_ball_blocks(norm4):
    # every block is one of the coset balls' objects, so id-keyed caches stay small
    ball_total = sum(len(lattice._coset_ball(g, lattice.ZERO5, 4)) for g in range(5))
    assert ball_total == 191
    assert len({id(b) for v in norm4 for b in v}) <= ball_total


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_restores_the_callers_gc_state(N, monkeypatch, enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(N.vectors_of_norm_at_most(2)) == 121
        assert gc.isenabled() == enabled
        # also when the build raises: a glue word one digit short
        monkeypatch.setattr(N, "glue", frozenset({(0,) * 5}))
        with pytest.raises(IndexError):
            N.vectors_of_norm_at_most(2)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_enumeration_pauses_the_collector(N):
    # at the parent of the pause, the norm <= 4 build ran hundreds of collections
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        N.vectors_of_norm_at_most(4)
    finally:
        gc.callbacks.remove(count)
    assert len(collections) <= 5, Counter(collections)


def young_ids():
    return {id(o) for g in (0, 1) for o in gc.get_objects(generation=g)}


def test_enumeration_hands_its_output_to_the_oldest_generation(N):
    # a young collection would otherwise walk all 193 801 vectors, and then
    # the middle generation's collection again
    was = gc.isenabled()
    gc.enable()
    try:
        vectors = N.vectors_of_norm_at_most(4)
        young = young_ids()
        assert not any(id(v) in young for v in vectors)
    finally:
        if not was:
            gc.disable()


def test_enumeration_leaves_a_callers_frozen_objects_frozen(N):
    expected = N.vectors_of_norm_at_most(2)
    was = gc.isenabled()
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        assert N.vectors_of_norm_at_most(2) == expected
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
        if not was:
            gc.disable()


def test_enumeration_with_the_collector_disabled_makes_no_handoff(N):
    was = gc.isenabled()
    gc.disable()
    try:
        vectors = N.vectors_of_norm_at_most(2)
        assert not gc.isenabled()
        assert gc.get_freeze_count() == 0
        # no collection ran, so the new vectors are still young
        young = young_ids()
        assert all(id(v) in young for v in vectors)
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("length", [0, 5, 25, 29, 31, 35])
def test_flat_vectors_of_the_wrong_length_are_refused(N, h, length):
    v = (h * 2)[:length]
    for call in (
        lambda: N.contains(v),
        lambda: tau0(v),
        lambda: in_projected_lattice(v),
        lambda: min_norm_shifted(N, v, 4),
        lambda: twisted_sector_min_shift(v, 1, 1),
    ):
        with pytest.raises(LatticeError, match=f"^{length} coordinates given"):
            call()


def test_flat_vectors_of_non_integers_are_refused(N, h):
    v = (F(1, 2),) + h[1:]
    for call in (lambda: N.contains(v), lambda: tau0(v), lambda: min_norm_shifted(N, v, 4)):
        with pytest.raises(LatticeError, match="not a vector of integers"):
            call()


def test_dropped_lattice_is_freed():
    ref = weakref.ref(NiemeierLattice())
    gc.collect()
    assert ref() is None


def test_tau0_isometry(N, h):
    for b in N.basis:
        assert N.contains(tau0(b))
        assert dot(tau0(b), tau0(b)) == dot(b, b)
        x = lattice_blocks(b)
        assert lattice_blocks(tau0(b)) == (x[0], x[5], x[1], x[2], x[3], x[4])
    v = N.basis[7]
    w = v
    for _ in range(5):
        w = tau0(w)
    assert w == v
    assert tau0(h) == h
    for r in (1, 2):
        f = DELTA5[r] + ZERO5 * 5
        assert tau0(f) == f


def test_lattice_dump_format(N):
    dump = N.dump()
    lines = dump.splitlines()
    assert lines[0] == "basis"
    assert "gram" in lines
    assert len(lines) == 2 + 24 + 24


def test_lattice_data_matches_golden(N):
    # the basis, Gram matrix, roots and shifted minimal sets, pinned from the
    # Fraction-block implementation
    def row(blocks):
        return "\t".join(f"{c.numerator}/{c.denominator}" for b in blocks for c in b)

    lines = [N.dump(), "roots"] + [row(r) for r in N.roots()]
    for eps, r in ((1, 1), (1, 2), (-1, 1), (-1, 2)):
        lines.append(f"S {eps:+d} {r}")
        lines += [row([b]) for b in enumerate_S(eps, r)]
    assert "\n".join(lines) + "\n" == (DATA / "lattice.txt").read_text()


# -- the integer kernel against the Fraction definitions ----------------------------

# the glue code by definition: the Z/5-span of the generator rows
GLUE_SPAN = frozenset(
    tuple(sum(c * g[k] for c, g in zip(cs, GLUE_GENERATORS)) % 5 for k in range(6))
    for cs in product(range(5), repeat=4)
)


def digit_by_definition(b):
    """The g with b - g*GLUE_REP in A4 (integral with sum 0), or None."""
    for g in range(5):
        d = [c - g * x for c, x in zip(b, GLUE_REP)]
        if all(x.denominator == 1 for x in d) and sum(d) == 0:
            return g
    return None


def _coset_block(g):
    """g*GLUE_REP plus a small vector of A4."""
    return st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(
        lambda a: tuple(g * x + y for x, y in zip(GLUE_REP, a + [-sum(a)]))
    )


_rational_block = st.lists(_rationals([1, 2, 5, 10], -2, 2), min_size=5, max_size=5).map(tuple)


@st.composite
def _lattice_vectors(draw):
    """Six blocks over a glue word, often of the code; sometimes one block is
    replaced by a rational block, usually outside A4*."""
    if draw(st.booleans()):
        word = draw(st.sampled_from(sorted(GLUE_SPAN)))
    else:
        word = draw(st.tuples(*[st.integers(0, 4)] * 6))
    blocks = [draw(_coset_block(g)) for g in word]
    if draw(st.booleans()):
        blocks[draw(st.integers(0, 5))] = draw(_rational_block)
    return tuple(blocks)


def flat_fives(x):
    """The flat integer vector 5x of Fraction blocks x, or None when 5x is
    not integral (then x is outside (1/5)Z^30, where the lattice lies)."""
    m = [5 * c for b in x for c in b]
    return tuple(map(int, m)) if all(c.denominator == 1 for c in m) else None


@settings(max_examples=100, deadline=None)
@given(_lattice_vectors(), _lattice_vectors())
def test_integer_kernel_matches_fraction_definitions(N, x, y):
    digits = [digit_by_definition(b) for b in x]
    mx, my = flat_fives(x), flat_fives(y)
    if mx is None:
        assert None in digits
        return
    if my is not None:
        assert F(dot(mx, my), 25) == vec_dot(x, y)
    for b, g in zip(x, digits):
        if g is None:
            with pytest.raises(LatticeError):
                a4_class_of(fives(b))
        else:
            assert a4_class_of(fives(b)) == g
    assert N.contains(mx) == (None not in digits and tuple(digits) in GLUE_SPAN)


# -- fixed-space projection -------------------------------------------------------


# the projection and the test for its image are the Fraction oracle's; the
# package keeps only the integer test, in_projected_lattice


def test_projection_idempotent_and_self_adjoint(N):
    basis = [lattice_blocks(b) for b in N.basis]
    for v in basis[:8]:
        assert project_fixed(project_fixed(v)) == project_fixed(v)
    for x in basis[:5]:
        for y in basis[5:10]:
            assert vec_dot(project_fixed(x), y) == vec_dot(x, project_fixed(y))


def test_projection_image_form(N):
    for b in N.basis:
        p = project_fixed(lattice_blocks(b))
        assert projected_form_ok(p)
        assert in_projected_lattice(tens(p))
    fixed_vec = tuple([LAMBDA_P] + [GLUE_REP] * 5)
    assert project_fixed(fixed_vec) == fixed_vec
    assert in_projected_lattice(tens(fixed_vec))


def test_projection_of_single_block_root(N):
    root = tuple(F(c) for c in A4_SIMPLE[0])
    v = tuple([ZERO, root] + [ZERO] * 4)
    p = project_fixed(v)
    fifth = tuple(x / 5 for x in root)
    assert p == tuple([ZERO] + [fifth] * 5)


# -- shift vectors and twisted sectors ---------------------------------------------


def test_shift_vector_data(h, H):
    for r, delta in ((1, DELTA1), (2, DELTA2)):
        f = DELTA5[r] + ZERO5 * 5
        fblocks = lattice_blocks(f)
        assert F(dot(f, f), 25) == vec_dot(fblocks, fblocks) == F(2, 5)
        assert dot(h, f) == vec_dot(H, fblocks) == 0
        assert fblocks[0] == delta


def test_enumerate_S_sets():
    S1 = enumerate_S(1, 1)
    assert len(S1) == 5
    assert sorted(S1) == sorted(BETA.values())
    assert BETA[2] == DELTA1
    S2 = enumerate_S(1, 2)
    assert sorted(S2) == sorted(block_add(BETA[i], BETA[(i + 1) % 5]) for i in range(5))
    Sm2 = enumerate_S(-1, 2)
    expect = [
        block_add(block_add(BETA[i], BETA[(i + 1) % 5]), BETA[(i + 2) % 5]) for i in range(5)
    ]
    assert sorted(Sm2) == sorted(expect)
    # S^{-r} = -S^{r}
    for eps, r in [(1, 1), (1, 2)]:
        neg = sorted(tuple(-c for c in v) for v in enumerate_S(eps, r))
        assert neg == sorted(enumerate_S(-eps, r))


def test_beta_gram_matrix():
    for i in range(5):
        for j in range(5):
            expected = F(2, 5) if i == j else (F(-1, 5) if (i - j) % 5 in (1, 4) else F(0))
            assert block_dot(BETA[i], BETA[j]) == expected


def test_rescaled_betas_are_level_five_simple_roots():
    # under the form scaled by 1/5, the vectors 5*beta_i have norm 2 and
    # pair like A4 simple roots, matching level 5
    scaled = [tuple(5 * c for c in BETA[i]) for i in (1, 2, 3, 4)]
    form = lambda x, y: block_dot(x, y) / 5
    for i in range(4):
        assert form(scaled[i], scaled[i]) == 2
        for j in range(i + 1, 4):
            assert form(scaled[i], scaled[j]) == (-1 if j == i + 1 else 0)


def test_twist_anomaly():
    assert twist_anomaly(5, [4, 4, 4, 4]) == F(4, 5)
    assert twist_anomaly(2, [0]) == 0
    assert twist_anomaly(5, [1, 1, 1, 1]) == F(1, 5)


@pytest.mark.parametrize("eps,r", [(1, 1), (1, 2), (-1, 1), (-1, 2)])
def test_twisted_weight_one(eps, r):
    count, weights = twisted_weight_one(eps, r)
    assert count == 5
    assert weights == sorted(enumerate_S(eps, r))


def test_twisted_weight_one_total():
    assert sum(twisted_weight_one(eps, r)[0] for eps in (1, -1) for r in (1, 2)) == 20


# -- the inner automorphism --------------------------------------------------------


def test_inner_h_data(N, h, H):
    assert H == tuple([tuple(c / 2 for c in LAMBDA_P)] + [tuple(c / 2 for c in GLUE_REP)] * 5)
    assert vec_dot(H, H) == F(dot(h, h), H_DEN**2) == 2
    # H_DEN h = 5(2h): the same integers are the lattice vector 2h
    assert lattice_blocks(h) == tuple(tuple(2 * c for c in b) for b in H)
    assert N.contains(h)
    # h itself is not in (1/5)Z^30, as 5h = (H_DEN h)/2 is not integral
    assert flat_fives(H) is None


def test_h_spectrum_half_integral(N, h, H):
    for b in N.basis:
        assert (2 * vec_dot(H, lattice_blocks(b))).denominator == 1
        assert dot(h, b) % 25 == 0  # 2(h|b) = dot(h, b) / (5 H_DEN / 2)
    # twisted-sector weights pair half-integrally as well
    for eps in (1, -1):
        for r in (1, 2):
            for w in enumerate_S(eps, r):
                v = tuple([w] + [ZERO] * 5)
                assert (2 * vec_dot(H, v)).denominator == 1
    # and strictly half-integrally somewhere, so the twist has order two
    beta_vec = tuple([BETA[4]] + [ZERO] * 5)
    assert vec_dot(H, beta_vec).denominator == 2
    root_vec = tuple(
        [ZERO, tuple(F(c) for c in A4_SIMPLE[3])] + [ZERO] * 4
    )
    assert vec_dot(H, root_vec).denominator == 2


def test_min_norm_shifted(N, h):
    mn = min_norm_shifted(N, h, 4)
    # integrality and the block bound force >= 6/5; the norm of h itself
    # (alpha = -2h lies in the lattice) shows the minimum is exactly 2
    assert mn == 2
    assert mn >= F(6, 5)
    assert min_norm_shifted(N, h, 1) is None


def fraction_min_norm_shifted(N, h, bound):
    """The minimum as a Fraction sum of the six per-block coset-ball minima
    of each glue word, as min_norm_shifted computed it before its integer sums."""
    per_block = [[oracle_ball_min(g, [-5 * c for c in b], bound) for g in range(5)] for b in h]
    totals = [
        sum(mins, F(0))
        for mins in ([per_block[i][g] for i, g in enumerate(w)] for w in N.glue)
        if None not in mins
    ]
    return min((t for t in totals if t <= bound), default=None)


# a block in (1/10)Z^5 with coordinate sum 0
_tenths_block = st.lists(st.integers(-10, 10), min_size=4, max_size=4).map(
    lambda xs: tuple(F(x, 10) for x in xs + [-sum(xs)])
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_tenths_block, min_size=6, max_size=6).map(tuple), st.integers(1, 6))
@example(lattice_blocks(inner_h(), H_DEN), 1)  # no glue word fits under the bound
@example(lattice_blocks(inner_h(), H_DEN), 2)
@example(((F(1, 2), F(-1, 2), 0, 0, 0),) * 6, 1)
def test_min_norm_shifted_matches_fraction_sum(N, shift, bound):
    got = min_norm_shifted(N, tens(shift), bound)
    assert got == fraction_min_norm_shifted(N, shift, bound)
    assert got is None or 0 <= got <= bound


def fraction_sector_min_shift(H, eps, r):
    """min |H_0 + eps delta^r + a|^2 over a in A4* plus min |b + 5 H_1|^2 / 5
    over b in A4, from the oracle's coset balls; both centers lie on the
    sum-zero hyperplane, so a ball of norm 2 > 6/5 holds each minimum."""
    delta = fifths(DELTA5[r])
    head = min(oracle_ball_min(g, [-5 * (a + eps * d) for a, d in zip(H[0], delta)], 2)
               for g in range(5))
    return head + oracle_ball_min(0, [-25 * c for c in H[1]], 2) / 5


def test_twisted_sector_minimum(N, h, H):
    for eps in (1, -1):
        for r in (1, 2):
            shift = twisted_sector_min_shift(h, eps, r)
            assert shift == fraction_sector_min_shift(H, eps, r)
            weight = F(4, 5) + shift / 2
            assert weight == 1  # each twisted sector reaches weight one exactly
            assert weight > F(1, 2)


def test_twisted_sector_minimum_rejects_a_non_invariant_h(h):
    # only h[1] of the five cycled blocks is read, so the others must equal it
    doctored = h[:10] + (5, -5, 0, 0, 0) + h[15:]
    assert tau0(doctored) != doctored
    for eps in (1, -1):
        for r in (1, 2):
            with pytest.raises(LatticeError, match="block cycle"):
                twisted_sector_min_shift(doctored, eps, r)


def test_fixed_shape_pairings(h):
    shape = fixed_shape_A45(h)
    assert shape == SemisimpleShape.parse("A3,5^2 U(1)^2")
    assert shape.dim == 32
    for i, alpha in enumerate(A4_SIMPLE, start=1):
        a = tuple(F(c) for c in alpha)
        assert block_dot(a, GLUE_REP) == (1 if i == 4 else 0)
    for i in (1, 2, 3, 4):
        assert block_dot(BETA[i], LAMBDA_P) == (1 if i == 4 else 0)
    # the pairings are read from h: -h pairs to -1 with alpha_4 and beta_4
    with pytest.raises(LatticeError, match="alpha_4"):
        fixed_shape_A45(tuple(-c for c in h))
    with pytest.raises(LatticeError, match="beta_4"):
        fixed_shape_A45(tuple(-c for c in h[:5]) + h[5:])


def test_minus_h_not_a_spectrum_weight(h, H):
    minus_h = tuple(-c for c in h)
    assert not in_projected_lattice(minus_h)
    assert not projected_form_ok(tuple(tuple(-c for c in b) for b in H))
    # its first block is not in A4*: 5(-h_0) = -LAMBDA5/2 is not integral
    assert any(c % 2 for c in minus_h[:5])


# a block b/5 with b in A4: integral with sum 0
_a4_over_5 = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(
    lambda xs: tuple(F(x, 5) for x in xs + [-sum(xs)])
)


@st.composite
def _fixed_space_points(draw):
    """(a, t, ..., t) with a often in A4* and t often b/5 for b in A4;
    sometimes one tail block is replaced, so the cycle no longer fixes it."""
    head = draw(st.one_of(st.integers(0, 4).flatmap(_coset_block), _rational_block))
    tail = draw(st.one_of(_a4_over_5, _tenths_block))
    blocks = [head] + [tail] * 5
    if draw(st.booleans()):
        blocks[draw(st.integers(1, 5))] = draw(_tenths_block)
    return tuple(blocks)


@settings(max_examples=100, deadline=None)
@given(_fixed_space_points())
@example(lattice_blocks(tuple(-c for c in inner_h()), H_DEN))
@example(tuple([LAMBDA_P] + [GLUE_REP] * 5))
def test_projected_lattice_test_matches_fraction_form(x):
    assert in_projected_lattice(tens(x)) == projected_form_ok(x)
