"""Scenario files and the batch verification pipeline.

A scenario file is plain key/value text describing one order-2 inner twist:
the ambient product algebra, the Cartan element h (fundamental-weight
coefficients per factor), and the expected outcomes of every pipeline
stage.  The runner executes the stages in order and reports one named
check per stage; reports are deterministic byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import lattice as lat
from .affine import (
    AffineLabel,
    HVector,
    ProductAlgebra,
    ProductLabel,
    integral_spectrum_table,
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

    def __init__(
        self,
        name: str,
        algebra: ProductAlgebra,
        h: HVector,
        expect_h_norm: Fraction,
        expect_fixed: SemisimpleShape,
        expect_fixed_dim: int,
        expect_new_dim: int,
        expect_shape: SemisimpleShape,
        table_max_weight: Fraction | None = None,
        table_weights: frozenset | None = None,
        expect_table_counts: dict | None = None,
        base_weights: list | None = None,
        expect_twisted_seed: tuple | None = None,
        lattice: bool = False,
        assumptions: list | None = None,
        notes: list | None = None,
    ):
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


def _order_two_fault(a: ProductAlgebra, h: HVector) -> str | None:
    """Why h is not of order 2, or None: every root pairing (h|alpha) = p/q
    must be half-integral, and at least one not an integer."""
    for (t, _), (q, ps) in zip(a.factors, h.pairings):
        if p := next((p for p in ps if 2 * p % q), None):
            return f"(h|alpha) = {Fraction(p, q)} on a root of {t}"
    if not any(p % q for q, ps in h.pairings for p in ps):
        return "(h|alpha) is an integer on every root"
    return None


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
            raise ScenarioError(
                f"{source}: field 'lattice' must be true or false, not {lattice!r}"
            )
        factors = []
        for value in fields.get("factor", []):
            toks = value.split()
            if len(toks) != 2:
                raise ScenarioError(f"{source}: a factor is a type and a level, not {value!r}")
            factors.append((SimpleType.parse(toks[0]), int(toks[1])))
        algebra = ProductAlgebra(tuple(factors))
        # the lattice checks are made for the A4,5^2 algebra of the glued A4^6 lattice
        if lattice.lower() == "true" and algebra != ProductAlgebra.of(("A4", 5), ("A4", 5)):
            raise ScenarioError(f"{source}: lattice: true needs the algebra A4,5 A4,5, not {algebra}")
        h = HVector.from_fundamental(algebra, _parse_factor_lists(one("h")))
        # every stage is made for an order-2 h
        if fault := _order_two_fault(algebra, h):
            raise ScenarioError(f"{source}: h is not of order 2: {fault}")
        sc = Scenario(
            name=one("name"),
            algebra=algebra,
            h=h,
            expect_h_norm=Fraction(one("expect_h_norm")),
            expect_fixed=SemisimpleShape.parse(one("expect_fixed")),
            expect_fixed_dim=int(one("expect_fixed_dim")),
            expect_new_dim=int(one("expect_new_dim")),
            expect_shape=SemisimpleShape.parse(one("expect_shape")),
            lattice=lattice.lower() == "true",
            assumptions=fields.get("assume", []),
            notes=fields.get("note", []),
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
            raise ScenarioError(
                f"{source}: base_weights and expect_twisted_seed must be given together"
            )
        if ("expect_table_counts" in fields) != (sc.table_max_weight is not None):
            raise ScenarioError(
                f"{source}: expect_table_counts and a table (table_max_weight or"
                " table_weights) must be given together"
            )
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
        if self.error is not None:
            return "error"
        return "pass" if self.passed else "fail"

    def lines(self, verbose: bool = False):
        out = [f"scenario {self.scenario}: {self.status.upper()}"]
        for a in self.assumptions:
            out.append(f"  assumption: {a}")
        for n in self.notes:
            out.append(f"  note: {n}")
        if self.error is not None:
            out.append(f"  error: {self.error}")
        for c in self.checks:
            if c.ok:
                if verbose:
                    out.append(f"  [ok]   {c.name}: {c.actual}")
            else:
                out.append(f"  [FAIL] {c.name}: expected {c.expected}, got {c.actual}")
        return out

    def records(self):
        recs = [
            {
                "scenario": self.scenario,
                "check": c.name,
                "expected": c.expected,
                "actual": c.actual,
                "status": "pass" if c.ok else "fail",
            }
            for c in self.checks
        ]
        if self.error is not None:
            recs.append(
                {"scenario": self.scenario, "check": "run", "expected": "completion",
                 "actual": self.error, "status": "error"}
            )
        return recs


def _vacuum_label(a: ProductAlgebra) -> ProductLabel:
    return ProductLabel(
        a, tuple(AffineLabel(t, k, (0,) * t.rank) for t, k in a.factors)
    )


def derive_seeds(sc: Scenario):
    """Fixed shape, the seed list used for identification, and what the
    twisted sector assembled (None when the scenario gives no base weights).

    When twisted-sector base weights are configured, the fixed components
    meeting the twisted roots are merged into the assembled subsystem,
    which replaces them in the seed list, and the third item reads
    "type,level with n roots".  Base weights that do not assemble are a
    fault of the scenario: the seeds stay the fixed-point ones, and the
    third item is the fault's text.
    """
    a, h = sc.algebra, sc.h
    shape, seeds = fixed_subalgebra(a, h)
    if sc.base_weights is None:
        return shape, seeds, None
    try:
        tw = twisted_sector_roots(a, h, sc.base_weights)
        tw = tw + [negate(t) for t in tw]
        joined = seeds_meeting(a, seeds, tw)
        psi = assemble_root_subsystem(a, [r for s in joined for r in s.roots], tw)
    except OrbifoldError as exc:
        return shape, seeds, str(exc)
    seeds = [s for s in seeds if s not in joined] + [psi]
    return shape, seeds, f"{psi.type},{psi.level} with {len(psi.roots)} roots"


def _check(name: str, claim, holds: bool, otherwise) -> CheckResult:
    """The check `name` of the claim: it reads the claim when it holds, and
    the text of `otherwise` when not."""
    claim = str(claim)
    return CheckResult(name, claim, claim if holds else str(otherwise))


def run_scenario(sc: Scenario) -> Report:
    checks: list[CheckResult] = []
    add = checks.append

    try:
        a, h = sc.algebra, sc.h
        # whether a check proves that no twisted module reaches weight 1/2
        half_excluded = False

        # order 2: all root pairings (h|alpha) are half-integral, at least one strictly;
        # parse_scenario rejects any other h, so this guards scenarios built in code
        fault = _order_two_fault(a, h)
        add(_check("order-two-pairings", "half-integral with a strict value", not fault, fault))

        # assumption for the twisted lowest-weight theory: (h|alpha) >= -1
        add(_check("pairing-lower-bound", "(h|alpha) >= -1 on all roots",
                   all(p >= -q for q, ps in h.pairings for p in ps), "violated"))

        norm = h.norm_invariant()
        add(_check("h-norm", sc.expect_h_norm, norm == sc.expect_h_norm, norm))

        # integral-weight module table
        if sc.table_max_weight is not None:
            table = integral_spectrum_table(a, sc.table_max_weight, sc.table_weights)
            counts: dict[int, int] = {}
            for _, w in table:
                counts[w] = counts.get(w, 0) + 1
            fmt = lambda cs: " ".join(f"{w}:{n}" for w, n in sorted(cs.items()))
            add(_check("module-table", fmt(sc.expect_table_counts),
                       counts == sc.expect_table_counts, fmt(counts)))
            labels = [lbl for lbl, _ in table]
            if sc.table_weights is not None:
                labels.append(_vacuum_label(a))
            # the twisted weights n + (h|mu) + <h|h>/2 lie in Z/2 only if <h|h> is an integer
            half_integral = norm.denominator == 1 and spectrum_half_integral(a, h, labels)
            add(_check("spectrum-half-integral", True, half_integral, False))

            # no module may reach twisted weight 1/2, so the half-graded part is 0
            low = min(product_twisted_lowest(lbl, h) for lbl in labels)
            above_half = low > Fraction(1, 2)
            add(_check("twisted-weights-exclude-half", "minimum > 1/2", above_half,
                       f"minimum {low}"))
            half_excluded = half_integral and above_half

            # the distinguished Cartan weight -sum k_i h_i must not occur in V
            doms = [neg_dominant(d, x).times(k) for d, (_, k), x in zip(a.data, a.factors, h.ints)]
            occurs = any(
                all(dominates(d, f.coeffs, x) for d, f, x in zip(a.data, lbl.labels, doms))
                for lbl in labels
            )
            add(_check("cartan-weight-exclusion", "-k.h is not a module weight", not occurs,
                       "occurs in some module"))

        # twisted lowest weights of every module of every factor are >= 0
        bad = [(str(m), c.kind) for m, c in module_certificates(a, h)
               if c.kind not in ("positive", "zero_with_witness")]
        add(_check("twisted-nonnegativity", "all factor modules nonnegative", not bad,
                   f"violations: {bad[:3]}"))

        # fixed-point subalgebra and the seeds used for identification
        shape, seeds, twisted = derive_seeds(sc)
        add(_check("fixed-shape", sc.expect_fixed, shape == sc.expect_fixed, shape))
        add(_check("fixed-dim", sc.expect_fixed_dim, shape.dim == sc.expect_fixed_dim, shape.dim))
        if twisted is not None:
            exp_t, exp_k, exp_n = sc.expect_twisted_seed
            want = f"{exp_t},{exp_k} with {exp_n} roots"
            add(_check("twisted-subsystem", want, twisted == want, twisted))

        # the lattice checks bound the twisted sectors' lowest weights, which
        # the dimension formula needs; they are reported after it
        lattice_checks = []
        if sc.lattice:
            lattice_checks, sectors_above_half = _lattice_checks(sc)
            half_excluded = half_excluded or sectors_above_half

        # the dimension formula, in closed form; the half-graded part is 0
        # only where a check above proved it
        new_dim, _ = dimension_identities(a.dim, shape.dim, 0)
        add(_check("dimension-formula", sc.expect_new_dim,
                   half_excluded and new_dim == sc.expect_new_dim,
                   new_dim if half_excluded else
                   f"unproven: {new_dim} assumes dim V_1/2 = 0, but no check showed"
                   " a half-integral grading with every twisted weight > 1/2"))
        checks.extend(lattice_checks)

        # identification of the new weight-one algebra
        found = identify(a.rank, new_dim, [(s.type, s.level) for s in seeds])
        listed = "; ".join(map(str, found))
        add(_check("identification", f"unique {sc.expect_shape}", found == [sc.expect_shape],
                   f"unique {listed}" if len(found) == 1 else
                   f"{len(found)} shapes: {listed}" if found else "0 shapes"))

        # the four-module fusion algebra behind the extension
        for a_sign in (1, -1):
            try:
                verlinde_simple_current(a_sign)
                fault = None
            except OrbifoldError as exc:
                fault = exc
            add(_check(f"simple-current(a={a_sign:+d})", "fusion is a simple current",
                       fault is None, fault))
    except Exception as exc:  # a stage that raises is an error, not a failed check
        error = f"{type(exc).__name__}: {exc}"
    else:
        error = None
    return Report(sc.name, checks, [*sc.assumptions, GRADING], sc.notes, error)


def _lattice_checks(sc: Scenario):
    checks = []
    add = checks.append
    N = lat.NiemeierLattice()  # constructor verifies even/unimodular/roots/cycle
    add(_check("glue-code-order", 125, len(N.glue) == 125, len(N.glue)))
    roots = len(N.roots())
    add(_check("lattice-roots", 120, roots == 120, roots))
    h = lat.inner_h()  # H_DEN h, which is also 2h as a lattice vector
    norm = Fraction(lat.dot(h, h), lat.H_DEN**2)
    add(_check("lattice-h-norm", sc.expect_h_norm, norm == sc.expect_h_norm, norm))
    add(_check("lattice-h-membership", "2h in the lattice", N.contains(h), "missing"))
    adds = []
    for eps in (1, -1):
        for r in (1, 2):
            # the shift f^r is (delta^r, 0, ..., 0), with 5 delta^r = DELTA5[r]
            d = lat.DELTA5[r]
            S = lat.enumerate_S(eps, r)
            cnt, weights = lat.twisted_weight_one(eps, r)
            adds.append((eps, r, Fraction(lat.dot(d, d), 25),
                         Fraction(lat.dot(h[:5], d), 5 * lat.H_DEN), len(S), cnt,
                         sorted(S) == weights))
    add(_check("shift-vectors", "norm 2/5, orthogonal to h, all four sectors",
               all(n == Fraction(2, 5) and p == 0 for _, _, n, p, _, _, _ in adds), adds))
    add(_check("shifted-minimal-sets", "5 vectors in each of 4 sectors",
               all(s == 5 for *_, s, _, _ in adds), [s for *_, s, _, _ in adds]))
    add(_check("twisted-weight-one", "dimension 5 per sector, weights match",
               all(c == 5 and m for *_, c, m in adds), adds))
    anomaly = lat.twist_anomaly(5, [4, 4, 4, 4])
    add(_check("twist-anomaly", Fraction(4, 5), anomaly == Fraction(4, 5), anomaly))
    mn = lat.min_norm_shifted(N, h, 4)
    add(_check("shifted-norm-minimum", "minimum >= 6/5",
               mn is not None and mn >= Fraction(6, 5), f"minimum {mn}"))
    sector_mins = [
        Fraction(4, 5) + lat.twisted_sector_min_shift(h, eps, r) / 2
        for eps in (1, -1)
        for r in (1, 2)
    ]
    untwisted_min = mn / 2  # weight of a pure lattice vector under the twist
    overall = min([untwisted_min] + sector_mins)
    sectors_above_half = min(sector_mins) > Fraction(1, 2)
    add(_check("twisted-minimum-weight", "1 (vacuum) with all sectors > 1/2",
               sectors_above_half and untwisted_min >= 1 and overall >= 1,
               f"untwisted {untwisted_min}, sectors {sector_mins}"))
    shape = fixed_shape_A45(h)
    add(_check("lattice-fixed-shape", sc.expect_fixed, shape == sc.expect_fixed, shape))
    # the distinguished weight -h is absent from both untwisted and twisted spectra
    add(_check("cartan-weight-exclusion", "-h is not a spectrum weight",
               not lat.in_projected_lattice(tuple(-x for x in h)), "occurs"))
    return checks, sectors_above_half


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
