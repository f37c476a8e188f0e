"""Check the benchmark's closed-form oracles against the program's enumerator.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_oracles.py

For every module of a few small-rank (type, level) pairs and several
half-integral h, the weight support enumerated by rootsys.weight_support is
compared with the oracles: its minimum pairing with h, its dominant part,
and membership of every weight in and near it.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import roots  # noqa: E402

rootsys = pytest.importorskip("orbifold24.rootsys")

PAIRS = [("A1", 4), ("A2", 3), ("A3", 2), ("B2", 3), ("B3", 2), ("C2", 3),
         ("C3", 2), ("D4", 2), ("G2", 3), ("F4", 2)]


def _dynkin(R, vec):
    m = R.dynkin_of_root_coords(vec)
    assert all(Fraction(x).denominator == 1 for x in m)
    return tuple(int(x) for x in m)


@pytest.mark.parametrize("name,level", PAIRS)
def test_oracles_match_enumeration(name, level):
    R = roots(name)
    d = rootsys.build_root_datum(rootsys.SimpleType.parse(name))
    assert R.A == d.cartan
    rng = random.Random(name)
    comparisons = 0
    for lam in R.modules(level):
        support = rootsys.weight_support(d, d.weight_from_fundamental(lam))
        weights = {_dynkin(R, mu) for mu in support}
        assert sorted(m for m in weights if min(m) >= 0) == sorted(R.dominant_support(lam))
        for _ in range(4):
            h2 = tuple(rng.randint(-3, 3) for _ in range(R.rank))
            assert min(R.pair(m, h2) / 2 for m in weights) == R.min_pairing(lam, h2)
            comparisons += 1
        near = weights | {tuple(x + a for x, a in zip(m, R.alpha[i]))
                          for m in weights for i in range(R.rank)}
        for m in near:
            assert R.support_contains(lam, m) == (m in weights)
            comparisons += 1
    assert comparisons > 0
