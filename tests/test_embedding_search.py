"""The orbit-pruned embedding search against the unpruned search it replaced."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifold24.orbifold import _block_gram, _embedding_query, _search_table
from orbifold24.rootsys import MAX_RANK, SimpleType, build_root_datum, scaled_gram

T = SimpleType.parse

SMALL_TARGETS = [T(n) for n in (
    "A1 A2 A3 A4 A5 A6 B3 B4 B5 B6 C2 C3 C4 C5 C6 D4 D5 D6 E6 F4 G2".split()
)]
PART_TYPES = [t for t in SMALL_TARGETS if t.rank <= 4]
# the top-level shortcut and the packed pairing rows serve every target, so
# the sweep also covers the largest ones
LARGE_TARGETS = [T(n) for n in ("E7", "E8", "D12")]


ALL_TYPES = (
    [T(f"A{n}") for n in range(1, MAX_RANK + 1)]
    + [T(f"{x}{n}") for x in "BC" for n in range(2, MAX_RANK + 1)]
    + [T(f"D{n}") for n in range(3, MAX_RANK + 1)]
    + [T(n) for n in ("E6", "E7", "E8", "F4", "G2")]
)


@pytest.mark.parametrize("target", ALL_TYPES, ids=str)
def test_roots_of_one_norm_form_one_weyl_orbit(target):
    # the search tries one root at the top, which the oracle below does too;
    # this checks the transitivity that makes it sound, on the roots' keys
    P, norms, by_norm, keys, index, positive = _search_table(target)
    assert sorted(j for group in by_norm.values() for j in group) == list(range(len(norms)))
    for norm, group in by_norm.items():
        assert group == sorted(group) and {norms[j] for j in group} == {norm}
        orbit, stack = {group[0]}, [group[0]]
        while stack:
            x = stack.pop()
            for b in positive:
                y = index[keys[x] - 2 * P[x][b] // norms[b] * keys[b]]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        assert orbit == set(group)


# the Fraction oracle's cut-off for full matrices; larger types are checked on sample rows
FULL_RANK = 8


def sample_rows(n):
    return sorted({0, n // 3, 2 * n // 3, n - 1})


@pytest.mark.parametrize("target", ALL_TYPES, ids=str)
def test_reflection_keys_name_the_reflected_roots(target):
    # the orbit walk reflects x in b as index[key(x) - c key(b)]; check that
    # this is the root x - c b, with c = 2(x|b)/(b|b) taken from root_rows
    d = build_root_datum(target)
    roots, n = d.iroots, len(d.iroots)
    P, norms, by_norm, keys, index, positive = _search_table(target)
    assert list(positive) == [j for j, r in enumerate(roots) if all(c >= 0 for c in r)]
    assert list(positive) == list(range(n // 2, n))
    assert norms == [P[j][j] for j in range(n)]
    assert sorted(j for group in by_norm.values() for j in group) == list(range(n))
    assert all(norms[j] == norm for norm, group in by_norm.items() for j in group)
    assert index == {key: j for j, key in enumerate(keys)} and len(index) == n
    reflected = 0
    for x in range(n) if target.rank <= FULL_RANK else sample_rows(n):
        for b in positive:
            two_xb, rem = divmod(2 * sum(c * r for c, r in zip(roots[x], d.root_rows[b])),
                                 sum(c * r for c, r in zip(roots[b], d.root_rows[b])))
            assert rem == 0
            if two_xb:
                image = tuple(p - two_xb * q for p, q in zip(roots[x], roots[b]))
                assert roots[index[keys[x] - two_xb * keys[b]]] == image, (x, b)
                reflected += 1
    assert reflected


def unpruned_gram_embedding(target, required_gram) -> bool:
    """The search with only the first placement reduced by the Weyl group:
    every later node tries every root of its domain."""
    P, norms = _search_table(target)[:2]
    k = len(required_gram)
    domains = []
    for i in range(k):
        want = required_gram[i][i]
        dom = [j for j, norm in enumerate(norms) if norm == want]
        if not dom:
            return False
        domains.append(dom)

    def rec(domains, unplaced, first):
        if not unplaced:
            return True
        i = min(unplaced, key=lambda j: len(domains[j]))
        pool = domains[i][:1] if first else domains[i]
        rest = unplaced - {i}
        for r in pool:
            new_domains = list(domains)
            ok = True
            for j in rest:
                nd = [s for s in domains[j] if P[r][s] == required_gram[i][j]]
                if not nd:
                    ok = False
                    break
                new_domains[j] = nd
            if ok and rec(new_domains, rest, False):
                return True
        return False

    return rec(domains, frozenset(range(k)), True)


def oracle_query(target, parts, scalings) -> bool:
    G = _block_gram(tuple(zip(parts, scalings)), scaled_gram(target)[0])
    return G is not None and unpruned_gram_embedding(target, G)


def parts_of_rank_at_most(n):
    """Every multiset of simple types of total rank 1..n, from PART_TYPES."""
    out = []
    for size in range(1, n + 1):
        for combo in combinations_with_replacement(PART_TYPES, size):
            if sum(t.rank for t in combo) <= n:
                out.append(combo)
    return out


SWEEP_PARTS = parts_of_rank_at_most(4)


@pytest.mark.parametrize("target", SMALL_TARGETS + LARGE_TARGETS, ids=str)
def test_pruned_search_matches_oracle_on_every_small_part(target):
    assert len(SWEEP_PARTS) == 30
    for parts in SWEEP_PARTS:
        if sum(t.rank for t in parts) > target.rank:
            continue
        ones = (1,) * len(parts)
        assert _embedding_query(target, parts, ones) is oracle_query(target, parts, ones), parts


@st.composite
def queries(draw, target):
    parts, left = [], target.rank
    while left and (not parts or draw(st.booleans())):
        part = draw(st.sampled_from([t for t in SMALL_TARGETS if t.rank <= left]))
        parts.append(part)
        left -= part.rank
    scalings = draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=len(parts), max_size=len(parts)))
    return tuple(parts), tuple(scalings)


@pytest.mark.parametrize("target", SMALL_TARGETS, ids=str)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pruned_search_matches_oracle_on_drawn_sums(target, data):
    parts, scalings = data.draw(queries(target))
    assert _embedding_query(target, parts, scalings) is oracle_query(target, parts, scalings)


@pytest.mark.parametrize(
    "target,parts,scalings",
    [
        ("F4", ("A2", "A2"), (1, 2)),  # long A2 + short A2
        ("F4", ("A3", "A1"), (1, 2)),
        ("F4", ("D4",), (2,)),  # the short roots of F4 form a D4 as well
        ("G2", ("A1", "A1"), (1, 3)),
        ("C4", ("A1",) * 4, (1, 1, 1, 1)),
        ("C4", ("A3",), (2,)),
        ("B4", ("A1",) * 4, (2, 2, 2, 2)),
        ("B5", ("D4", "A1"), (1, 2)),
        ("C5", ("A4",), (2,)),
        ("F4", ("A2",) * 3, (1, 1, 2)),
    ],
)
def test_pruned_search_matches_oracle_on_level_scalings(target, parts, scalings):
    # the scaled queries that identify issues for seeds of a higher level
    y, xs = T(target), tuple(map(T, parts))
    assert _embedding_query(y, xs, scalings) is oracle_query(y, xs, scalings)

