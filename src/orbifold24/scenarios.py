"""Scenario files and the batch verification pipeline.

A scenario file is plain key/value text describing one order-2 inner twist:
the ambient product algebra, the Cartan element h (fundamental-weight
coefficients per factor), and the expected outcomes of every pipeline
stage.  The runner derives, then compares.  `derive` runs the stages on the
inputs alone (algebra, h, base weights, table, lattice flag) into one
`Derivation`, reading no expectation.  `CHECKS`, one ordered table, then
compares that record with the scenario, one named check per row, in report
order: the premises on h, the affine spectrum route to dim V_1/2 = 0, twisted
nonnegativity, the fixed points and twisted seed, the dimension formula, the
lattice route (derived before the formula, which reads it), identification
and fusion.  Reports are deterministic byte for byte.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from typing import NamedTuple

from . import lattice as lat
from .affine import (
    HVector,
    ProductAlgebra,
    integral_spectrum_table,
    max_label_weight,
    module_certificates,
    product_twisted_lowest,
    spectrum_half_integral,
)
from .orbifold import (
    OrbifoldError,
    SemisimpleShape,
    assemble_root_subsystem,
    fixed_subalgebra,
    identify,
    negate,
    seeds_meeting,
    twisted_sector_roots,
    verlinde_simple_current,
)
from .qseries import dimension_identities
from .rootsys import Fields, SimpleType, dominates, neg_dominant


class ScenarioError(ValueError):
    pass


class Scenario(Fields):
    """One order-2 inner twist and the expected outcome of every stage.

    Mutable; assumptions and notes default to new empty lists."""

    _KEY = ("name", "algebra", "h", "expect_h_norm", "expect_fixed", "expect_fixed_dim",
            "expect_new_dim", "expect_shape", "table_max_weight", "table_weights",
            "expect_table_counts", "base_weights", "expect_twisted_seed", "lattice",
            "assumptions", "notes")

    def __init__(self, name: str, algebra: ProductAlgebra, h: HVector, expect_h_norm: Fraction,
                 expect_fixed: SemisimpleShape, expect_fixed_dim: int, expect_new_dim: int,
                 expect_shape: SemisimpleShape, table_max_weight: Fraction | None = None,
                 table_weights: frozenset | None = None, expect_table_counts: dict | None = None,
                 base_weights: list | None = None, expect_twisted_seed: tuple | None = None,
                 lattice: bool = False, assumptions: list | None = None, notes: list | None = None):
        self.name = name
        self.algebra = algebra
        self.h = h
        self.expect_h_norm = expect_h_norm
        self.expect_fixed = expect_fixed
        self.expect_fixed_dim = expect_fixed_dim
        self.expect_new_dim = expect_new_dim
        self.expect_shape = expect_shape
        self.table_max_weight = table_max_weight
        self.table_weights = table_weights
        self.expect_table_counts = expect_table_counts
        self.base_weights = base_weights
        self.expect_twisted_seed = expect_twisted_seed
        self.lattice = lattice
        self.assumptions = [] if assumptions is None else assumptions
        self.notes = [] if notes is None else notes


# every key parse_scenario reads; any other key is a typo that would skip checks
_KNOWN_FIELDS = frozenset({
    "name", "factor", "h", "expect_h_norm", "expect_fixed", "expect_fixed_dim", "expect_new_dim",
    "expect_shape", "lattice", "assume", "note", "table_max_weight", "table_weights",
    "expect_table_counts", "base_weights", "expect_twisted_seed",
})


# the premise of the dimension formula, stated by the runner in every report
GRADING = ("the twisted-sector character is taken to lie in q^(-1/2) Z[[q^(1/2)]]"
           " (half-integral grading)")


def _order_two_fault(a: ProductAlgebra, h: HVector) -> str:
    """Why h is not of order 2, or "": every root pairing (h|alpha) = p/q
    must be half-integral, and at least one not an integer."""
    for (t, _), (q, ps) in zip(a.factors, h.pairings):
        if p := next((p for p in ps if 2 * p % q), None):
            return f"(h|alpha) = {Fraction(p, q)} on a root of {t}"
    if not any(p % q for q, ps in h.pairings for p in ps):
        return "(h|alpha) is an integer on every root"
    return ""


def _parse_factor_lists(text: str):
    return [[Fraction(tok) for tok in part.split()] for part in text.split("|")]


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    fields: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ScenarioError(f"{source}:{lineno}: expected 'key: value'")
        key = key.strip()
        if key not in _KNOWN_FIELDS:
            raise ScenarioError(f"{source}:{lineno}: unknown field '{key}'")
        fields.setdefault(key, []).append(value.strip())
    if GRADING in fields.get("assume", []):
        raise ScenarioError(f"{source}: the runner states the grading assumption itself;"
                            " drop its assume line")

    def one(key, default=None):
        vals = fields.get(key)
        if vals is None:
            if default is not None:
                return default
            raise ScenarioError(f"{source}: missing required field '{key}'")
        if len(vals) != 1:
            raise ScenarioError(f"{source}: field '{key}' given more than once")
        # an empty name, say, would report as "scenario : PASS"
        if not vals[0]:
            raise ScenarioError(f"{source}: field '{key}' is empty")
        return vals[0]

    try:
        lattice = one("lattice", "false")
        if lattice.lower() not in ("true", "false"):
            raise ScenarioError(f"{source}: field 'lattice' must be true or false, not {lattice!r}")
        lattice = lattice.lower() == "true"
        factors = []
        for value in fields.get("factor", []):
            toks = value.split()
            if len(toks) != 2:
                raise ScenarioError(f"{source}: a factor is a type and a level, not {value!r}")
            factors.append((SimpleType.parse(toks[0]), int(toks[1])))
        algebra = ProductAlgebra(tuple(factors))
        # the lattice checks are made for the A4,5^2 algebra of the glued A4^6 lattice
        if lattice and algebra != ProductAlgebra.of(("A4", 5), ("A4", 5)):
            raise ScenarioError(f"{source}: lattice: true needs the algebra A4,5 A4,5, not {algebra}")
        # the affine spectrum route does not describe the lattice algebra, and with
        # both routes a report would state the Cartan-weight exclusion twice
        if lattice and ("table_max_weight" in fields or "table_weights" in fields):
            raise ScenarioError(f"{source}: lattice: true takes no module table")
        h = HVector.from_fundamental(algebra, _parse_factor_lists(one("h")))
        # every stage is made for an order-2 h
        if fault := _order_two_fault(algebra, h):
            raise ScenarioError(f"{source}: h is not of order 2: {fault}")
        sc = Scenario(
            name=one("name"), algebra=algebra, h=h,
            expect_h_norm=Fraction(one("expect_h_norm")),
            expect_fixed=SemisimpleShape.parse(one("expect_fixed")),
            expect_fixed_dim=int(one("expect_fixed_dim")),
            expect_new_dim=int(one("expect_new_dim")),
            expect_shape=SemisimpleShape.parse(one("expect_shape")),
            lattice=lattice, assumptions=fields.get("assume", []), notes=fields.get("note", []),
        )
        # table_weights sets the maximum itself, so a second maximum is ambiguous
        if "table_max_weight" in fields and "table_weights" in fields:
            raise ScenarioError(f"{source}: give table_max_weight or table_weights, not both")
        if "table_max_weight" in fields:
            sc.table_max_weight = Fraction(one("table_max_weight"))
        if "table_weights" in fields:
            sc.table_weights = frozenset(Fraction(t) for t in one("table_weights").split())
            sc.table_max_weight = max(sc.table_weights)
        # a negative weight would be dropped from the table, or fail mid-run
        if any(w < 0 for w in sc.table_weights or [sc.table_max_weight or 0]):
            raise ScenarioError(f"{source}: table weights must be nonnegative")
        if "expect_table_counts" in fields:
            sc.expect_table_counts = {}
            for tok in one("expect_table_counts").split():
                w, _, n = tok.partition(":")
                if Fraction(w) in sc.expect_table_counts:
                    raise ScenarioError(f"{source}: expect_table_counts gives weight {w} twice")
                sc.expect_table_counts[Fraction(w)] = int(n)
        if "base_weights" in fields:
            groups = [_parse_factor_lists(g) for g in one("base_weights").split(";")]
            # weights of untwisted modules are integral: whole Dynkin labels
            if any(c.denominator != 1 for g in groups for part in g for c in part):
                raise ScenarioError(f"{source}: base_weights must have integer labels")
            sc.base_weights = [algebra.int_weights(g) for g in groups]
        if "expect_twisted_seed" in fields:
            t, k, n = one("expect_twisted_seed").split()
            sc.expect_twisted_seed = (SimpleType.parse(t), int(k), int(n))
        # one half of a pair without the other would skip or break the check it feeds
        if ("base_weights" in fields) != ("expect_twisted_seed" in fields):
            raise ScenarioError(f"{source}: base_weights and expect_twisted_seed must be given"
                                " together")
        if ("expect_table_counts" in fields) != (sc.table_max_weight is not None):
            raise ScenarioError(f"{source}: expect_table_counts and a table (table_max_weight or"
                                " table_weights) must be given together")
    except ScenarioError:
        raise
    except (ValueError, IndexError, ZeroDivisionError) as exc:  # e.g. Fraction('1/0')
        raise ScenarioError(f"{source}: {exc}") from exc
    return sc


# -- reports -------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class Report(Fields):
    """The checks of one scenario run, and the error that stopped it, if any; mutable."""

    _KEY = ("scenario", "checks", "assumptions", "notes", "error")

    def __init__(self, scenario: str, checks: list, assumptions: list, notes: list,
                 error: str | None = None):
        self.scenario = scenario
        self.checks = checks
        self.assumptions = assumptions
        self.notes = notes
        self.error = error

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)

    @property
    def status(self) -> str:
        """'pass', 'fail' (a check failed) or 'error' (a stage raised, so the
        checks after it never ran)."""
        return "error" if self.error is not None else "pass" if self.passed else "fail"

    def lines(self, verbose: bool = False):
        out = [f"scenario {self.scenario}: {self.status.upper()}"]
        out += [f"  assumption: {a}" for a in self.assumptions]
        out += [f"  note: {n}" for n in self.notes]
        if self.error is not None:
            out.append(f"  error: {self.error}")
        for c in self.checks:
            if not c.ok:
                out.append(f"  [FAIL] {c.name}: expected {c.expected}, got {c.actual}")
            elif verbose:
                out.append(f"  [ok]   {c.name}: {c.actual}")
        return out

    def records(self):
        recs = [{"scenario": self.scenario, "check": c.name, "expected": c.expected,
                 "actual": c.actual, "status": "pass" if c.ok else "fail"} for c in self.checks]
        if self.error is not None:
            recs.append({"scenario": self.scenario, "check": "run", "expected": "completion",
                         "actual": self.error, "status": "error"})
        return recs


# -- derive, then compare ------------------------------------------------------

# the value of every Derivation field that a raising stage kept from running
UNREACHED = object()

_SPECTRUM = ("table_counts", "half_integral", "lowest", "cartan_occurs")
_LATTICE = ("glue", "lattice_roots", "lattice_norm", "member", "sectors", "anomaly", "min_norm",
            "sector_mins", "untwisted_min", "lattice_shape", "minus_h")

# every stage's actual value, in stage order: None marks a route the inputs do
# not ask for, and error names the exception of a stage that raised
Derivation = namedtuple(
    "Derivation", ("order_fault", "lower_bound", "norm", *_SPECTRUM, "bad_modules", "shape",
                   "seeds", "twisted", *_LATTICE, "half_graded_zero", "new_dim", "found",
                   "fusion_plus", "fusion_minus", "error"), defaults=[UNREACHED] * 27 + [None])


def _stages(a, h, base_weights, lattice, table_max_weight, table_weights):
    """(field, value) pairs of the Derivation, each as soon as its stage ends."""
    yield "order_fault", _order_two_fault(a, h)
    # the premise of the twisted lowest-weight theory
    yield "lower_bound", (lower_bound := all(p >= -q for q, ps in h.pairings for p in ps))
    yield "norm", (norm := h.norm_invariant())
    spectrum_route = lattice_route = False
    if table_max_weight is None:
        yield from ((f, None) for f in _SPECTRUM)
    else:
        # every product label of integral weight: no label exceeds the cap
        spectrum = integral_spectrum_table(a, max_label_weight(a))
        yield "table_counts", dict(Counter(
            w for _, w in spectrum
            if w <= table_max_weight and (table_weights is None or w in table_weights)))
        # the proof set depends on the algebra alone, not on the table: the
        # vacuum and every label of integral weight >= 2 (a module of weight 1
        # would make V_1 larger than the given algebra)
        labels = [lbl for lbl, w in spectrum if w != 1]
        # the twisted weights n + (h|mu) + <h|h>/2 lie in Z/2 only if <h|h> is an integer
        half_integral = norm.denominator == 1 and spectrum_half_integral(a, h, labels)
        yield "half_integral", half_integral
        yield "lowest", (low := min(product_twisted_lowest(lbl, h) for lbl in labels))
        # the distinguished Cartan weight -sum k_i h_i must not occur in V
        doms = [neg_dominant(d, x).times(k) for d, (_, k), x in zip(a.data, a.factors, h.ints)]
        yield "cartan_occurs", any(
            all(dominates(d, f.coeffs, x) for d, f, x in zip(a.data, lbl.labels, doms))
            for lbl in labels)
        # no module reaches twisted weight 1/2, so the half-graded part is 0; the
        # least top-space weight is the lowest weight only when (h|alpha) >= -1
        spectrum_route = lower_bound and half_integral and low > Fraction(1, 2)
    yield "bad_modules", [(str(m), c.kind) for m, c in module_certificates(a, h)
                          if c.kind not in ("positive", "zero_with_witness")]
    shape, seeds = fixed_subalgebra(a, h)
    twisted = None
    if base_weights is not None:
        # the fixed components meeting the twisted roots merge into the assembled subsystem,
        # which replaces them among the seeds; base weights that do not assemble are a
        # fault of the scenario, and the seeds stay
        try:
            tw = twisted_sector_roots(a, h, base_weights)
            tw = tw + [negate(t) for t in tw]
            joined = seeds_meeting(a, seeds, tw)
            psi = assemble_root_subsystem(a, [r for s in joined for r in s.roots], tw)
        except OrbifoldError as exc:
            twisted = str(exc)
        else:
            seeds = [s for s in seeds if s not in joined] + [psi]
            twisted = f"{psi.type},{psi.level} with {len(psi.roots)} roots"
    yield from (("shape", shape), ("seeds", seeds), ("twisted", twisted))
    if not lattice:
        yield from ((f, None) for f in _LATTICE)
    else:
        # the glued A4^6 lattice, for the lattice h inner_h(), which is H_DEN h and 2h
        N = lat.NiemeierLattice()  # constructor verifies even/unimodular/roots/cycle
        yield from (("glue", len(N.glue)), ("lattice_roots", len(N.roots())))
        hl = lat.inner_h()
        yield from (("lattice_norm", Fraction(lat.dot(hl, hl), lat.H_DEN**2)),
                    ("member", N.contains(hl)))
        # per twisted sector: eps, r, |f^r|^2, (h|f^r), minimal shifted vectors,
        # weight-one dimension, and whether those weights are the minimal vectors;
        # the shift f^r is (delta^r, 0, ..., 0), with 5 delta^r = DELTA5[r]
        sectors = []
        for eps, r in ((1, 1), (1, 2), (-1, 1), (-1, 2)):
            d, S = lat.DELTA5[r], lat.enumerate_S(eps, r)
            cnt, weights = lat.twisted_weight_one(eps, r)
            sectors.append((eps, r, Fraction(lat.dot(d, d), 25), Fraction(
                lat.dot(hl[:5], d), 5 * lat.H_DEN), len(S), cnt, sorted(S) == weights))
        yield "sectors", sectors
        yield "anomaly", lat.twist_anomaly(5, [4, 4, 4, 4])
        yield "min_norm", (mn := lat.min_norm_shifted(N, hl, 4))
        sector_mins = [Fraction(4, 5) + lat.twisted_sector_min_shift(hl, eps, r) / 2
                       for eps, r, *_ in sectors]
        yield "sector_mins", sector_mins
        yield "untwisted_min", mn / 2  # weight of a pure lattice vector under the twist
        yield "lattice_shape", fixed_shape_A45(hl)
        yield "minus_h", lat.in_projected_lattice(tuple(-x for x in hl))
        lattice_route = min(sector_mins) > Fraction(1, 2)
    # dim V_1/2 = 0, proved by a route, is what the dimension formula assumes
    yield "half_graded_zero", spectrum_route or lattice_route
    yield "new_dim", (new_dim := dimension_identities(a.dim, shape.dim, 0)[0])
    yield "found", identify(a.rank, new_dim, [(s.type, s.level) for s in seeds])
    # the four-module fusion algebra behind the extension
    for field, sign in (("fusion_plus", 1), ("fusion_minus", -1)):
        try:
            verlinde_simple_current(sign)
            fault = ""
        except OrbifoldError as exc:
            fault = str(exc)
        yield field, fault


def derive(algebra: ProductAlgebra, h: HVector, base_weights: list | None = None,
           lattice: bool = False, table_max_weight: Fraction | None = None,
           table_weights: frozenset | None = None) -> Derivation:
    """Every stage's value for the twist h of the algebra, read from no
    expectation.  A table runs the affine spectrum route to dim V_1/2 = 0,
    base weights the twisted seed, and lattice the lattice route."""
    got = {}
    try:
        for field, value in _stages(algebra, h, base_weights, lattice, table_max_weight,
                                    table_weights):
            got[field] = value
    except Exception as exc:  # a stage that raises is an error, not a failed check
        return Derivation(**got, error=f"{type(exc).__name__}: {exc}")
    return Derivation(**got)


def _counts(cs: dict) -> str:
    return " ".join(f"{w}:{n}" for w, n in sorted(cs.items()))


def _shapes(found: list) -> str:
    listed = "; ".join(map(str, found))
    return f"unique {listed}" if len(found) == 1 else f"{len(found)} shapes: {listed}" \
        if found else "0 shapes"


# A check reads a Derivation field (None there skips the row) and compares it with the
# Scenario field `expect` (None: a claim about every input).  Its rule maps the derivation
# and the expected value to (claim, holds, otherwise): the check reads the claim when it
# holds, and otherwise when not.
Row = namedtuple("Row", "name field expect rule")

# every check, in report order; each route to dim V_1/2 = 0 states the Cartan-weight
# exclusion, and parse_scenario refuses a scenario with both
CHECKS = (
    # parse_scenario rejects an h not of order 2, so this guards scenarios built in code
    Row("order-two-pairings", "order_fault", None,
        lambda d, _: ("half-integral with a strict value", not d.order_fault, d.order_fault)),
    Row("pairing-lower-bound", "lower_bound", None,
        lambda d, _: ("(h|alpha) >= -1 on all roots", d.lower_bound, "violated")),
    Row("h-norm", "norm", "expect_h_norm", lambda d, e: (e, d.norm == e, d.norm)),
    Row("module-table", "table_counts", "expect_table_counts",
        lambda d, e: (_counts(e), d.table_counts == e, _counts(d.table_counts))),
    Row("spectrum-half-integral", "half_integral", None, lambda d, _: (True, d.half_integral, False)),
    Row("twisted-weights-exclude-half", "lowest", None,
        lambda d, _: ("minimum > 1/2", d.lowest > Fraction(1, 2), f"minimum {d.lowest}")),
    Row("cartan-weight-exclusion", "cartan_occurs", None,
        lambda d, _: ("-k.h is not a module weight", not d.cartan_occurs, "occurs in some module")),
    Row("twisted-nonnegativity", "bad_modules", None, lambda d, _: (
        "all factor modules nonnegative", not d.bad_modules, f"violations: {d.bad_modules[:3]}")),
    Row("fixed-shape", "shape", "expect_fixed", lambda d, e: (e, d.shape == e, d.shape)),
    Row("fixed-dim", "shape", "expect_fixed_dim", lambda d, e: (e, d.shape.dim == e, d.shape.dim)),
    Row("twisted-subsystem", "twisted", "expect_twisted_seed",
        lambda d, e: (t := "{},{} with {} roots".format(*e), d.twisted == t, d.twisted)),
    Row("dimension-formula", "new_dim", "expect_new_dim",
        lambda d, e: (e, d.half_graded_zero and d.new_dim == e, d.new_dim if d.half_graded_zero
                      else f"unproven: {d.new_dim} assumes dim V_1/2 = 0, but no check showed"
                      " a half-integral grading with every twisted weight > 1/2")),
    # the lattice route runs before the dimension formula, which reads it
    Row("glue-code-order", "glue", None, lambda d, _: (125, d.glue == 125, d.glue)),
    Row("lattice-roots", "lattice_roots", None,
        lambda d, _: (120, d.lattice_roots == 120, d.lattice_roots)),
    Row("lattice-h-norm", "lattice_norm", "expect_h_norm",
        lambda d, e: (e, d.lattice_norm == e, d.lattice_norm)),
    Row("lattice-h-membership", "member", None,
        lambda d, _: ("2h in the lattice", d.member, "missing")),
    Row("shift-vectors", "sectors", None, lambda d, _: (
        "norm 2/5, orthogonal to h, all four sectors",
        all(n == Fraction(2, 5) and p == 0 for _, _, n, p, *_ in d.sectors), d.sectors)),
    Row("shifted-minimal-sets", "sectors", None, lambda d, _: (
        "5 vectors in each of 4 sectors", all(s == 5 for *_, s, _, _ in d.sectors),
        [s for *_, s, _, _ in d.sectors])),
    Row("twisted-weight-one", "sectors", None, lambda d, _: (
        "dimension 5 per sector, weights match", all(c == 5 and m for *_, c, m in d.sectors),
        d.sectors)),
    Row("twist-anomaly", "anomaly", None,
        lambda d, _: (Fraction(4, 5), d.anomaly == Fraction(4, 5), d.anomaly)),
    Row("shifted-norm-minimum", "min_norm", None, lambda d, _: ("minimum >= 6/5",
        d.min_norm is not None and d.min_norm >= Fraction(6, 5), f"minimum {d.min_norm}")),
    Row("twisted-minimum-weight", "untwisted_min", None, lambda d, _: (
        "1 (vacuum) with all sectors > 1/2", min(d.untwisted_min, *d.sector_mins) >= 1,
        f"untwisted {d.untwisted_min}, sectors {d.sector_mins}")),
    Row("lattice-fixed-shape", "lattice_shape", "expect_fixed",
        lambda d, e: (e, d.lattice_shape == e, d.lattice_shape)),
    # the distinguished weight -h is absent from both untwisted and twisted spectra
    Row("cartan-weight-exclusion", "minus_h", None,
        lambda d, _: ("-h is not a spectrum weight", not d.minus_h, "occurs")),
    Row("identification", "found", "expect_shape",
        lambda d, e: (f"unique {e}", d.found == [e], _shapes(d.found))),
    Row("simple-current(a=+1)", "fusion_plus", None,
        lambda d, _: ("fusion is a simple current", not d.fusion_plus, d.fusion_plus)),
    Row("simple-current(a=-1)", "fusion_minus", None,
        lambda d, _: ("fusion is a simple current", not d.fusion_minus, d.fusion_minus)),
)


def run_scenario(sc: Scenario) -> Report:
    """derive, then check each row of CHECKS up to the first whose field a
    stage error left UNREACHED."""
    d = derive(sc.algebra, sc.h, sc.base_weights, sc.lattice, sc.table_max_weight,
               sc.table_weights)
    checks = []
    for name, field, expect, rule in CHECKS:
        if (value := getattr(d, field)) is UNREACHED:
            break
        if value is not None:
            claim, holds, otherwise = rule(d, expect and getattr(sc, expect))
            checks.append(CheckResult(name, str(claim), str(claim if holds else otherwise)))
    return Report(sc.name, checks, [*sc.assumptions, GRADING], sc.notes, d.error)


def fixed_shape_A45(h) -> SemisimpleShape:
    """Fixed-point shape of the inner automorphism on the extended algebra.

    Verifies the pairing pattern (alpha_i|Lambda) = (beta_i|Lambda') =
    delta_{i,4} of 2h = (Lambda', Lambda, ..., Lambda), given as H_DEN h;
    dropping the fourth node of each A4 leaves A3 x A3 at level 5 with a
    two-dimensional center.
    """
    for i, alpha in enumerate(lat.A4_SIMPLE, start=1):
        got = Fraction(lat.dot(alpha, h[5:10]), 5)
        if got != (1 if i == 4 else 0):
            raise lat.LatticeError(f"(alpha_{i}|Lambda) = {got}, expected {int(i == 4)}")
    for i in (1, 2, 3, 4):
        got = Fraction(lat.dot(lat.BETA5[i], h[:5]), 25)
        if got != (1 if i == 4 else 0):
            raise lat.LatticeError(f"(beta_{i}|Lambda') = {got}, expected {int(i == 4)}")
    a3 = SimpleType.parse("A3")
    return SemisimpleShape(((a3, 5), (a3, 5)), center_dim=2)
