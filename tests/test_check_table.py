"""CHECKS is the one source of the checks a report holds: their names, their
order, the scenario field each one reads, and where a stage error ends the
report."""

import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from orbifold24 import scenarios
from orbifold24.cli import _bundled_scenarios, main
from orbifold24.scenarios import (
    _KNOWN_FIELDS, _LATTICE, _SPECTRUM, CHECKS, Derivation, Scenario, derive, parse_scenario,
    run_scenario,
)

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parents[1] / "src" / "orbifold24" / "scenarios"
GOLDEN = json.loads((DATA / "run.json").read_text())


def applicable(sc):
    """The rows a scenario's inputs switch on, in table order: the spectrum
    rows need a table, twisted-subsystem base weights, the lattice rows the
    lattice flag."""
    off = set()
    if sc.table_max_weight is None:
        off |= set(_SPECTRUM)
    if sc.base_weights is None:
        off.add("twisted")
    if not sc.lattice:
        off |= set(_LATTICE)
    return [row for row in CHECKS if row.field not in off]


def test_rows_read_derivation_and_scenario_fields():
    assert {row.field for row in CHECKS} <= set(Derivation._fields) - {"error"}
    assert {row.expect for row in CHECKS if row.expect} <= set(Scenario._KEY)


def test_row_names_are_unique_but_for_one_cartan_check_per_route():
    names = [row.name for row in CHECKS]
    repeated = {n for n in names if names.count(n) > 1}
    assert repeated == {"cartan-weight-exclusion"}
    # one row reads the spectrum route, the other the lattice route, and
    # parse_scenario refuses a scenario that asks for both
    fields = [row.field for row in CHECKS if row.name in repeated]
    assert fields[0] in _SPECTRUM and fields[1] in _LATTICE


def test_every_expectation_is_read_by_a_row():
    # a parsed expectation that no row reads would go uncompared
    expects = {key for key in _KNOWN_FIELDS if key.startswith("expect_")}
    assert expects == {row.expect for row in CHECKS if row.expect}


def test_derive_reads_the_inputs_alone():
    params = set(inspect.signature(derive).parameters)
    assert params == {"algebra", "h", "base_weights", "lattice", "table_max_weight",
                      "table_weights"}


def test_each_report_holds_its_applicable_rows_in_table_order(scenario_reports):
    for sc in _bundled_scenarios():
        names = [c.name for c in scenario_reports[sc.name].checks]
        assert names == [row.name for row in applicable(sc)], sc.name
        assert len(set(names)) == len(names), sc.name


def wrong(key, value):
    """A well-formed value of the field `key` other than `value`."""
    if key == "expect_h_norm":
        return str(Fraction(value) + 1)
    if key in ("expect_fixed_dim", "expect_new_dim"):
        return str(int(value) + 1)
    if key in ("expect_fixed", "expect_shape"):
        return "E8,1"
    if key == "expect_table_counts":
        *rest, last = value.split()
        w, n = last.split(":")
        return " ".join(rest + [f"{w}:{int(n) + 1}"])
    assert key == "expect_twisted_seed"
    t, k, n = value.split()
    return f"{t} {k} {int(n) + 1}"


EDITS = [
    (path.name, line.partition(":")[0])
    for path in sorted(SCENARIOS.glob("*.scn"))
    for line in path.read_text().splitlines()
    if line.startswith("expect_")
]


@pytest.mark.parametrize("scn,key", EDITS)
def test_a_wrong_expectation_fails_exactly_the_rows_that_read_it(scn, key):
    text = (SCENARIOS / scn).read_text()
    lines = text.splitlines(keepends=True)
    [i] = [i for i, line in enumerate(lines) if line.startswith(key + ":")]
    lines[i] = f"{key}: {wrong(key, lines[i].partition(':')[2].strip())}\n"
    sc = parse_scenario("".join(lines), scn)
    report = run_scenario(sc)
    assert report.status == "fail"
    failed = [c.name for c in report.checks if not c.ok]
    assert failed == [row.name for row in applicable(sc) if row.expect == key]
    assert failed


def broken(*args, **kwargs):
    raise RuntimeError("stage broke")


# (stage binding, scenario, how many checks the report holds before the
# error), measured on the runner that computed and compared in one pass;
# None: the scenario never calls the stage, so its report is whole
PREFIXES = [
    *[("fixed_subalgebra", m, 8) for m in ("M1", "M2", "M3", "M4")],
    ("fixed_subalgebra", "M5", 4),
    *[("module_certificates", m, 7) for m in ("M1", "M2", "M3", "M4")],
    ("module_certificates", "M5", 3),
    *[("integral_spectrum_table", m, 3) for m in ("M1", "M2", "M3", "M4")],
    ("integral_spectrum_table", "M5", None),
    ("dimension_identities", "M1", 11),
    *[("dimension_identities", m, 10) for m in ("M2", "M3", "M4")],
    ("dimension_identities", "M5", 6),
    ("identify", "M1", 12),
    *[("identify", m, 11) for m in ("M2", "M3", "M4")],
    ("identify", "M5", 19),
    *[("lat.NiemeierLattice", m, None) for m in ("M1", "M2", "M3", "M4")],
    ("lat.NiemeierLattice", "M5", 6),
]


@pytest.mark.parametrize("binding,name,before", PREFIXES)
def test_a_stage_error_ends_the_report_where_it_did(monkeypatch, capsys, binding, name, before):
    owner = scenarios.lat if binding.startswith("lat.") else scenarios
    monkeypatch.setattr(owner, binding.removeprefix("lat."), broken)
    golden = [r for r in GOLDEN if r["scenario"] == name]
    code = main(["run", "--scenario", name, "--json"])
    records = json.loads(capsys.readouterr().out)
    if before is None:
        assert code == 0 and records == golden
        return
    assert code == 3
    assert records[:-1] == golden[:before]
    assert records[-1] == {"scenario": name, "check": "run", "expected": "completion",
                           "actual": "RuntimeError: stage broke", "status": "error"}
