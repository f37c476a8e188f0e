"""One round of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

The round imports orbifold24 (cold caches, as for a command-line user),
builds its inputs, times the workload's calls into the program, then checks
every output against perfbench/oracles.py or against properties the method
must have.  It prints one JSON object: the monotonic time at which set-up
ended, the timed wall time, peak resident memory after the timed part, the
operations attempted and failed, and any wrong outputs.  perfbench/run.py
starts these rounds and aggregates them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles  # the benchmark's own arithmetic; imports nothing from orbifold24

HERE = Path(__file__).resolve().parent


class Tally:
    """Operations attempted and failed, and outputs that were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.info = {}

    def expect(self, ok, what):
        if not ok:
            self.wrong.append(what)


def attempt(outputs, key, fn, *args):
    """Call into the program; an exception is kept as a failed operation."""
    try:
        outputs[key] = ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001  (counted, reported, never hidden)
        outputs[key] = ("error", f"{type(exc).__name__}: {exc}")


def settle(tally, outputs, key):
    """Count one operation; return its value, or None if it failed."""
    tally.attempted += 1
    status, value = outputs[key]
    if status == "error":
        tally.failed += 1
        tally.info.setdefault("errors", []).append(f"{key}: {value}")
        return None
    return value


# -- pipeline ----------------------------------------------------------------

# check records each bundled scenario produces; fewer means a stage was skipped
MIN_CHECKS = {"M1": 15, "M2": 14, "M3": 14, "M4": 14, "M5": 22}


def _own_scenario(text):
    """Factors and h (doubled Dynkin labels) read straight from a .scn file."""
    factors, h2 = [], None
    for raw in text.splitlines():
        key, _, value = raw.partition(":")
        key, value = key.strip(), value.strip()
        if key == "name":
            name = value
        elif key == "factor":
            t, k = value.split()
            factors.append((t, int(k)))
        elif key == "h":
            h2 = [tuple(int(2 * Fraction(x)) for x in part.split()) for part in value.split("|")]
    return name, factors, h2


def _shape_ideals(text):
    """(type, level) ideals and center rank of a shape like 'A2,1^2 U(1)'."""
    ideals, center = [], 0
    for token in text.split():
        body, _, mult = token.partition("^")
        mult = int(mult) if mult else 1
        if body == "U(1)":
            center += mult
        else:
            t, _, k = body.partition(",")
            ideals += [(t, int(k))] * mult
    return ideals, center


class Pipeline:
    """The five bundled scenarios through `orbifold24 run --json`."""

    def __init__(self, seed):
        from importlib import resources

        from orbifold24 import cli, scenarios

        self.cli = cli
        root = resources.files("orbifold24") / "scenarios"
        texts = [e.read_text() for e in sorted(root.iterdir(), key=lambda e: e.name)
                 if e.name.endswith(".scn")]
        # this parse builds the root data of every factor; the CLI parses the
        # files again inside the timed call, with those caches already warm
        for text in texts:
            scenarios.parse_scenario(text, "bundled")
        self.own = {name: (factors, h2) for name, factors, h2 in map(_own_scenario, texts)}

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["run", "--json"])
        return code, out.getvalue()

    def check(self, outputs, tally):
        code, text = outputs
        records = json.loads(text)
        per = {}
        mismatched = internal = 0
        for rec in records:
            tally.attempted += 1
            per.setdefault(rec["scenario"], {})[rec["check"]] = rec["actual"]
            if rec["status"] != "pass":
                tally.failed += 1
                if rec["check"] == "run":
                    internal += 1
                else:
                    mismatched += 1
        counts = {sc: sum(r["scenario"] == sc for r in records) for sc in MIN_CHECKS}
        tally.info.update(checks=counts, mismatched=mismatched, internal_errors=internal)
        tally.expect(code == (0 if tally.failed == 0 else 1), f"exit code {code}")
        for sc, n in MIN_CHECKS.items():
            tally.expect(counts[sc] >= n, f"{sc}: {counts[sc]} check records, expected {n}")
        for sc, (factors, h2) in self.own.items():
            got = per.get(sc, {})
            if "run" in got:
                continue  # an internal error already counts as a failed operation
            ambient_rank = sum(oracles.roots(t).rank for t, _ in factors)
            ambient_dim = sum(oracles.roots(t).dim for t, _ in factors)
            fixed_dim = 0
            for (t, _), hc in zip(factors, h2):
                R = oracles.roots(t)
                fixed_dim += R.rank + sum(
                    R.h_root_pairing(hc, c).denominator == 1 for c in R.roots)
            tally.expect(got.get("fixed-dim") == str(fixed_dim),
                         f"{sc}: fixed-dim {got.get('fixed-dim')}, counted {fixed_dim}")
            new_dim = 3 * fixed_dim - ambient_dim + 24
            tally.expect(got.get("dimension-formula") == str(new_dim),
                         f"{sc}: new dimension {got.get('dimension-formula')}, formula {new_dim}")
            ident = got.get("identification", "")
            if not ident.startswith("unique "):
                tally.expect(False, f"{sc}: identification {ident!r}")
                continue
            ideals, center = _shape_ideals(ident.removeprefix("unique "))
            rank = sum(oracles.roots(t).rank for t, _ in ideals) + center
            tally.expect(rank == ambient_rank, f"{sc}: shape rank {rank} != {ambient_rank}")
            ratio = Fraction(new_dim - 24, 24)
            for t, k in ideals:
                tally.expect(Fraction(oracles.roots(t).dual_coxeter, k) == ratio,
                             f"{sc}: ideal {t},{k} breaks h_vee/k = {ratio}")


# -- supports ----------------------------------------------------------------

# (type, level) pairs no bundled scenario uses: B and F types, rank-8 types,
# and larger levels than the scenarios reach
SUPPORT_PAIRS = [
    ("A2", 4), ("A5", 2), ("A8", 1), ("B3", 2), ("B4", 2), ("B5", 2),
    ("B8", 1), ("C3", 2), ("C4", 2), ("D4", 2), ("D8", 1), ("E7", 2), ("E8", 1),
    ("F4", 2), ("G2", 3),
]
H_PER_PAIR = 3


def _sample_h2(R, rng):
    """A seeded h with (h|alpha) in Z/2 and >= -1 on every root, doubled.

    A dominant h with (h|alpha_j) in {0, 1/2, 1} and (h|theta) <= 1 is moved
    by a random Weyl word; the root set is Weyl invariant, so the bound holds.
    """
    while True:
        p2 = [0] * R.rank  # 2 (h|alpha_j)
        budget = 2  # 2 (h|theta) <= 2
        for j in rng.sample(range(R.rank), R.rank):
            p2[j] = rng.choice([v for v in (0, 0, 1, 2) if R.theta[j] * v <= budget])
            budget -= R.theta[j] * p2[j]
        if any(p2):
            break
    # Dynkin label of h: (h|alpha_j) / ((alpha_j|alpha_j)/2)
    h2 = tuple(2 * p * R.s // R.B[j][j] for j, p in enumerate(p2))
    assert all(2 * p * R.s % R.B[j][j] == 0 for j, p in enumerate(p2))
    for _ in range(2 * R.rank):
        h2 = R.reflect(h2, rng.randrange(R.rank))
    pairings = [R.h_root_pairing(h2, c) for c in R.roots]
    assert all(v >= -1 and (2 * v).denominator == 1 for v in pairings)
    return h2


def _sample_queries(R, lam, rng):
    """Dominant weights in lam + Q (three below lam, one above it), then one
    simple reflection of each."""
    dominant = []
    for _ in range(3):
        mu = tuple(lam)
        for j in range(R.rank):
            c = rng.choice((0, 0, 1, 1, 2))
            mu = tuple(x - c * a for x, a in zip(mu, R.alpha[j]))
        dominant.append(R.dominant(mu))
    theta = R.dynkin_of_root_coords(R.theta)
    dominant.append(tuple(a + b for a, b in zip(lam, theta)))
    return dominant + [R.reflect(mu, rng.randrange(R.rank)) for mu in dominant]


class Supports:
    """Support queries on every module of SUPPORT_PAIRS, with seeded h and
    query weights: min_pairing, twisted_lowest, support_contains, and the
    full weight_support enumeration."""

    def __init__(self, seed):
        from orbifold24 import affine, rootsys

        self.affine, self.rootsys = affine, rootsys
        rng = random.Random(seed)
        self.cases = []
        for name, level in SUPPORT_PAIRS:
            R = oracles.roots(name)
            t = rootsys.SimpleType.parse(name)
            d = rootsys.build_root_datum(t)
            hs = [_sample_h2(R, rng) for _ in range(H_PER_PAIR)]
            h_vecs = [d.weight_from_fundamental([Fraction(x, 2) for x in h2]) for h2 in hs]
            modules = []
            for lam in R.modules(level):
                queries = _sample_queries(R, lam, rng)
                modules.append((lam, affine.AffineLabel(t, level, lam),
                                d.weight_from_fundamental(lam), queries,
                                [d.weight_from_fundamental(mu) for mu in queries]))
            self.cases.append((name, level, R, t, d, hs, h_vecs, modules))

    def run(self):
        rs, af = self.rootsys, self.affine
        out = {}
        for name, level, R, t, d, hs, h_vecs, modules in self.cases:
            attempt(out, (name, "modules"), af.enumerate_modules, t, level)
            for lam, label, lam_vec, _, mu_vecs in modules:
                for i, h in enumerate(h_vecs):
                    attempt(out, (name, lam, "min", i), rs.min_pairing, d, h, lam_vec)
                    attempt(out, (name, lam, "twisted", i), af.twisted_lowest, label, h)
                for i, mu in enumerate(mu_vecs):
                    attempt(out, (name, lam, "contains", i), rs.support_contains, d, lam_vec, mu)
                attempt(out, (name, lam, "support"), rs.weight_support, d, lam_vec)
        return out

    def check(self, out, tally):
        for name, level, R, t, d, hs, h_vecs, modules in self.cases:
            mods = settle(tally, out, (name, "modules"))
            if mods is not None:
                tally.expect([m.coeffs for m in mods] == R.modules(level),
                             f"{name},{level}: module list")
            for lam, _, _, queries, _ in modules:
                for i, h2 in enumerate(hs):
                    mp = settle(tally, out, (name, lam, "min", i))
                    if mp is not None:
                        tally.expect(mp == R.min_pairing(lam, h2),
                                     f"{name} {lam}: min_pairing {mp} != {R.min_pairing(lam, h2)}")
                    tw = settle(tally, out, (name, lam, "twisted", i))
                    if tw is not None:
                        tally.expect(tw >= 0, f"{name},{level} {lam}: twisted lowest {tw} < 0")
                answers = [settle(tally, out, (name, lam, "contains", i))
                           for i in range(len(queries))]
                half = len(queries) // 2
                for i in range(half):
                    mu, got, refl = queries[i], answers[i], answers[half + i]
                    want = R.in_positive_cone(tuple(a - b for a, b in zip(lam, mu)))
                    tally.expect(got is None or got == want,
                                 f"{name} {lam}: contains {mu} -> {got}, Q+ says {want}")
                    tally.expect(refl is None or got is None or refl == got,
                                 f"{name} {lam}: contains not reflection invariant at {mu}")
                support = settle(tally, out, (name, lam, "support"))
                if support is not None:
                    self._check_support(R, lam, support, tally)

    @staticmethod
    def _check_support(R, lam, support, tally):
        """The set is Weyl invariant and its dominant part is exactly the
        dominant weights mu with lam - mu in Q+; together these pin it."""
        lam_root = [Fraction(x, R.det) for x in R.root_coords_times_det(lam)]
        coords = {}
        for w in support:
            diff = [l - x for l, x in zip(lam_root, w)]
            if any(x.denominator != 1 for x in diff):
                tally.expect(False, f"{R.name} {lam}: weight {w} not in lam + Q")
                return
            c = tuple(int(x) for x in diff)
            coords[c] = tuple(l - x for l, x in zip(lam, R.dynkin_of_root_coords(c)))
        closed = all(
            c[:i] + (c[i] + m[i],) + c[i + 1:] in coords
            for c, m in coords.items() for i in range(R.rank) if m[i]
        )
        tally.expect(closed, f"{R.name} {lam}: weight support not Weyl invariant")
        dominant = sorted(m for m in coords.values() if min(m) >= 0)
        tally.expect(dominant == sorted(R.dominant_support(lam)),
                     f"{R.name} {lam}: dominant weights differ from the Q+ criterion")


# -- embeddings --------------------------------------------------------------

# Borel-de Siebenthal/Dynkin: the root subsystems of D_n are sums of A and D
# types, so no E type embeds in D12; the maximal-rank subsystems of E7 are
# D6+A1, A5+A2, A7 and A3+A3+A1 (and E7), so neither D7 nor E6+A1 embeds in
# it.  The first query into each target builds its root-pairing matrix.
EMBEDDINGS = [
    ("D12", ("A11",), True),
    ("D12", ("D6", "D6"), True),
    ("D12", ("A5", "A5"), True),
    ("D12", ("D8", "D4"), True),
    ("D12", ("E7",), False),
    ("E7", ("A7",), True),
    ("E7", ("D6", "A1"), True),
    ("E7", ("A5", "A2"), True),
    ("E7", ("E6",), True),
    ("E7", ("A3", "A3", "A1"), True),
    ("E7", ("D7",), False),
    ("E7", ("E6", "A1"), False),
]


class Embeddings:
    """orbifold.embeds queries into D12 and E7, with yes and no answers."""

    def __init__(self, seed):
        from orbifold24 import orbifold, rootsys

        self.embeds = orbifold.embeds
        parse = rootsys.SimpleType.parse
        self.queries = [(parse(y), tuple(map(parse, xs)), want) for y, xs, want in EMBEDDINGS]

    def run(self):
        out = {}
        for i, (y, xs, _) in enumerate(self.queries):
            attempt(out, i, self.embeds, xs[0] if len(xs) == 1 else xs, y)
        return out

    def check(self, out, tally):
        for i, (y, xs, want) in enumerate(self.queries):
            got = settle(tally, out, i)
            tally.expect(got is None or got == want,
                         f"{'+'.join(map(str, xs))} in {y}: {got}, expected {want}")


# -- lattice -----------------------------------------------------------------

SECTORS = [(eps, r) for eps in (1, -1) for r in (1, 2)]


def _fifths(block):
    """Coordinates times 5, as integers (the model's coordinates lie in Z/5)."""
    return tuple(x.numerator * 5 // x.denominator for x in block)


def _det(M):
    """Determinant of an integer matrix by fraction-free elimination."""
    M = [row[:] for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv], sign = M[piv], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


class Lattice:
    """The glued A4^6 lattice: construction, every vector of norm <= 4, and
    the shifted-norm and twisted-sector computations of the A4,5^2 case."""

    def __init__(self, seed):
        from orbifold24 import lattice

        self.lat = lattice

    def run(self):
        lat, out = self.lat, {}
        attempt(out, "lattice", lat.NiemeierLattice)
        N = out["lattice"][1] if out["lattice"][0] == "ok" else None
        if N is not None:
            attempt(out, "vectors", N.vectors_of_norm_at_most, 4)
            attempt(out, "min_norm", lat.min_norm_shifted, N, lat.inner_h(), 4)
        h = lat.inner_h()
        for eps, r in SECTORS:
            attempt(out, ("S", eps, r), lat.enumerate_S, eps, r)
            attempt(out, ("weight_one", eps, r), lat.twisted_weight_one, eps, r)
            attempt(out, ("sector", eps, r), lat.twisted_sector_min_shift, h, eps, r)
        return out

    def check(self, out, tally):
        N = settle(tally, out, "lattice")
        if N is not None:
            gram = [[int(x) for x in row] for row in N.gram]
            tally.expect(all(all(Fraction(x).denominator == 1 for x in row) for row in N.gram)
                         and all(gram[i][i] % 2 == 0 for i in range(24)),
                         "Gram matrix not even integral")
            tally.expect(_det(gram) == 1, "Gram determinant is not 1")
            tally.expect(len(N.roots()) == 120, f"{len(N.roots())} roots, expected 120")
            vectors = settle(tally, out, "vectors")
            if vectors is not None:
                self._check_vectors(vectors, tally)
            mn = settle(tally, out, "min_norm")
            if mn is not None:
                tally.expect(mn >= 2, f"shifted minimum norm {mn} < 2")
                tally.info["shifted_min_norm"] = str(mn)
        for eps, r in SECTORS:
            S = settle(tally, out, ("S", eps, r))
            w1 = settle(tally, out, ("weight_one", eps, r))
            shift = settle(tally, out, ("sector", eps, r))
            if S is not None:
                classes = {_fifths(b)[0] % 5 for b in S}
                tally.expect(len(S) == 5 and len(classes) == 5
                             and all(sum(x * x for x in _fifths(b)) == 10 for b in S),
                             f"sector {eps},{r}: shifted minimal set {S}")
            if w1 is not None:
                tally.expect(w1[0] == 5 and (S is None or w1[1] == sorted(S)),
                             f"sector {eps},{r}: twisted weight-one space {w1}")
            if shift is not None:
                tally.expect(Fraction(4, 5) + shift / 2 > Fraction(1, 2),
                             f"sector {eps},{r}: twisted weight {Fraction(4, 5) + shift / 2}")

    @staticmethod
    def _check_vectors(vectors, tally):
        """Norm counts from theta = E4^3 + (R - 720) Delta, and closure under
        negation and the block cycle.  Each distinct block becomes a small
        integer index; blocks are shared between vectors, so each block
        object is converted once."""
        index, blocks, by_id = {}, [], {}

        def block_index(b):
            i = by_id.get(id(b))
            if i is None:
                f = _fifths(b)
                i = index.get(f)
                if i is None:
                    i = index[f] = len(blocks)
                    blocks.append(f)
                by_id[id(b)] = i
            return i

        keys = {tuple(block_index(b) for b in v) for v in vectors}
        tally.expect(len(keys) == len(vectors), "vectors_of_norm_at_most repeats a vector")
        norm = [sum(x * x for x in f) for f in blocks]
        neg = [index.get(tuple(-x for x in f)) for f in blocks]
        counts = {}
        for key in keys:
            n = sum(norm[b] for b in key)
            counts[n] = counts.get(n, 0) + 1
        roots = counts.get(50, 0)
        want = {0: 1, 50: roots, 100: 179280 - 24 * (roots - 720)}
        tally.expect(roots == 120 and counts == want,
                     f"norm counts (in 1/25) {sorted(counts.items())}, expected {sorted(want.items())}")
        tally.info["norm4_vectors"] = counts.get(100, 0)
        closed = all(
            None not in (negated := tuple(neg[b] for b in key)) and negated in keys
            and (key[0], key[5], key[1], key[2], key[3], key[4]) in keys
            for key in keys
        )
        tally.expect(closed, "vector set not closed under negation and the block cycle")


WORKLOADS = {"pipeline": Pipeline, "supports": Supports,
             "embeddings": Embeddings, "lattice": Lattice}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}), flush=True)
        return 0

    start = time.perf_counter()
    outputs = workload.run()
    run_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_layer = tracer.per_layer() if tracer else None

    tally = Tally()
    workload.check(outputs, tally)
    result = {"ready": ready, "run_s": run_s, "rss_mb": rss_mb,
              "attempted": tally.attempted, "failed": tally.failed,
              "wrong": tally.wrong[:10], "n_wrong": len(tally.wrong), "info": tally.info}
    if tracer:
        result["per_layer"] = per_layer
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(traces / f"{args.workload}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # skip freeing the program's objects one by one; nothing is left to write
    os._exit(code)
