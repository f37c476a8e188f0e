import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifold24.affine import HVector
from orbifold24.cli import _bundled_scenarios, main
from orbifold24.scenarios import ScenarioError, parse_scenario, run_scenario

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parents[1] / "src" / "orbifold24" / "scenarios"
M1_TEXT = (SCENARIOS / "m1.scn").read_text()


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "orbifold24.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_bundled_scenarios_parse():
    names = [sc.name for sc in _bundled_scenarios()]
    assert names == ["M1", "M2", "M3", "M4", "M5"]


def test_all_scenarios_pass(scenario_reports):
    for name, rep in sorted(scenario_reports.items()):
        assert rep.passed, "\n".join(rep.lines())


def test_reports_are_deterministic(scenario_reports):
    # a second run of a scenario reproduces the report byte for byte
    from orbifold24.scenarios import run_scenario

    sc = next(s for s in _bundled_scenarios() if s.name == "M1")
    again = run_scenario(sc)
    assert again.lines(verbose=True) == scenario_reports["M1"].lines(verbose=True)


def test_report_records_have_provenance(scenario_reports):
    for rep in scenario_reports.values():
        for rec in rep.records():
            assert rec["check"]
            assert rec["status"] in ("pass", "fail")
            assert rec["scenario"] == rep.scenario


def test_m3_report_carries_the_dimension_note(scenario_reports):
    notes = scenario_reports["M3"].notes
    assert any("80" in n and "88" in n for n in notes)


def test_m4_m5_reports_carry_assumptions(scenario_reports):
    assert any("input hypothesis" in a for a in scenario_reports["M4"].assumptions)
    assert any("assumed" in a for a in scenario_reports["M5"].assumptions)


def test_list_command():
    proc = run_cli("list")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("M1\t")
    assert "lattice" in lines[4]


@pytest.mark.parametrize(
    "args,golden",
    [(["run"], "run.txt"), (["run", "-v"], "run_v.txt"), (["run", "--json"], "run.json")],
)
def test_run_matches_golden(args, golden, capsys):
    # the reports of the bundled scenarios, byte for byte, and the exit code
    assert main(args) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_dump_tables_matches_golden(tmp_path):
    proc = run_cli("dump-tables", "--out", str(tmp_path))
    assert proc.returncode == 0
    produced = sorted(p.name for p in tmp_path.glob("*.tbl"))
    expected = sorted(p.name for p in DATA.glob("*.tbl"))
    assert produced == expected
    for name in expected:
        assert (tmp_path / name).read_text() == (DATA / name).read_text()


def test_empty_directory_runs_clean(tmp_path):
    proc = run_cli("run", "--dir", str(tmp_path))
    assert proc.returncode == 0
    assert "0/0" in proc.stdout


@pytest.mark.parametrize("command", ["run", "list"])
def test_missing_directory_is_rejected(tmp_path, command):
    # a misspelled path must not pass as an empty run
    proc = run_cli(command, "--dir", str(tmp_path / "missing"))
    assert proc.returncode == 2
    assert "missing" in proc.stderr
    assert "scenarios pass" not in proc.stdout


def test_corrupted_scenario_file(tmp_path):
    (tmp_path / "bad.scn").write_text("name M-broken\nfactor: Z9 1\n")
    proc = run_cli("run", "--dir", str(tmp_path))
    assert proc.returncode == 2
    assert "bad.scn" in proc.stderr


def test_unknown_scenario_name():
    proc = run_cli("run", "--scenario", "nope")
    assert proc.returncode == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_failing_expectation_gives_exit_one(tmp_path):
    doctored = M1_TEXT.replace("expect_fixed_dim: 72", "expect_fixed_dim: 71")
    (tmp_path / "m1x.scn").write_text(doctored)
    proc = run_cli("run", "--dir", str(tmp_path))
    assert proc.returncode == 1
    assert "[FAIL] fixed-dim" in proc.stdout
    # the run ends with a summary table mirroring the three-column structure
    assert "new algebra" in proc.stdout
    assert "A3,1 D7,3 G2,1" in proc.stdout


def test_json_report(tmp_path):
    doctored = M1_TEXT.replace("expect_h_norm: 2", "expect_h_norm: 5")
    (tmp_path / "m1x.scn").write_text(doctored)
    proc = run_cli("run", "--dir", str(tmp_path), "--json")
    assert proc.returncode == 1
    records = json.loads(proc.stdout)
    failed = [r for r in records if r["status"] == "fail"]
    assert failed and failed[0]["check"] == "h-norm"
    assert failed[0]["expected"] == "5" and failed[0]["actual"] == "2"


def test_stage_error_is_reported_apart_from_failures(monkeypatch, capsys):
    from orbifold24 import scenarios

    def broken(*args, **kwargs):
        raise RuntimeError("identification broke")

    monkeypatch.setattr(scenarios, "identify", broken)
    assert main(["run", "--scenario", "M1"]) == 3
    out = capsys.readouterr().out
    assert "scenario M1: ERROR" in out
    assert "  error: RuntimeError: identification broke" in out
    assert "0/1 scenarios pass" in out
    assert main(["run", "--scenario", "M1", "--json"]) == 3
    records = json.loads(capsys.readouterr().out)
    assert records[-1] == {
        "scenario": "M1", "check": "run", "expected": "completion",
        "actual": "RuntimeError: identification broke", "status": "error",
    }
    # the checks before the failing stage ran and passed; none after it ran
    assert all(r["status"] == "pass" for r in records[:-1])
    assert "identification" not in {r["check"] for r in records}


def test_failed_verification_step_is_not_a_pass_under_optimization():
    # under python -O, where assert statements are stripped, a verification
    # step that fails must still stop the run: here the weight-two
    # coefficient of the fitted character disagrees with the closed form
    code = (
        "import sys\n"
        "from orbifold24 import qseries\n"
        "from orbifold24.cli import main\n"
        "qseries.DIM_CONSTANT += 1\n"
        "sys.exit(main(['run']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "PASS" not in proc.stdout
    assert "QSeriesError: the fitted weight-two coefficient is not" in proc.stdout
    assert "0/5 scenarios pass" in proc.stdout


def test_trunc_is_not_an_option(capsys):
    # the series depth follows from the coefficients the dimension formula reads
    assert main(["run", "--trunc", "30"]) == 2
    assert "unrecognized arguments: --trunc" in capsys.readouterr().err


def test_repeated_table_weight_is_rejected(tmp_path, capsys):
    # a dict would keep the last count, so the line's claim 2:5 would go unchecked
    doctored = M1_TEXT.replace("expect_table_counts: 0:1 2:9 3:2", "expect_table_counts: 0:1 2:5 2:9 3:2")
    assert doctored != M1_TEXT
    with pytest.raises(ScenarioError, match="weight 2 twice"):
        parse_scenario(doctored)
    (tmp_path / "m1x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    assert "weight 2 twice" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,message", [
    # a negative maximum used to end the run with an internal error (exit 3)
    ("table_max_weight: 3", "table_max_weight: -1", "table weights must be nonnegative"),
    # a negative entry used to be dropped from the table without a word
    ("table_max_weight: 3", "table_weights: -1 2 3", "table weights must be nonnegative"),
    # an empty name used to report as "scenario : PASS"
    ("name: M1", "name:", "field 'name' is empty"),
])
def test_malformed_table_or_name_is_rejected(old, new, message, tmp_path, capsys):
    doctored = M1_TEXT.replace(old, new, 1)
    assert doctored != M1_TEXT
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(doctored)
    (tmp_path / "m1x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fixed", ["U(1)^-1", "U(1)^2 U(1)^-1", "A1,1^-2 U(1)", "U(1) A1,1^0"])
def test_shape_multiplicity_below_one_is_rejected(fixed, tmp_path, capsys):
    # each of these once printed as the true shape, so M2 passed
    text = (SCENARIOS / "m2.scn").read_text()
    doctored = text.replace("A1,3 U(1)\n", f"A1,3 {fixed}\n", 1)
    assert doctored != text
    with pytest.raises(ScenarioError, match="below 1"):
        parse_scenario(doctored)
    (tmp_path / "m2x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    assert "below 1" in capsys.readouterr().err


def test_lattice_checks_need_the_lattice_algebra(tmp_path, capsys):
    # the lattice checks are made for A4,5^2; on another algebra they would
    # pass without reading it
    doctored = M1_TEXT + "lattice: true\n"
    with pytest.raises(ScenarioError, match="not E6,3 G2,1 G2,1 G2,1"):
        parse_scenario(doctored)
    (tmp_path / "m1x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    assert "lattice: true needs the algebra A4,5 A4,5, not E6,3 G2,1 G2,1 G2,1" in capsys.readouterr().err


def test_rank_above_the_identification_cap_is_an_error(tmp_path, capsys):
    # one more factor takes M1 to rank 13, beyond the ideals identify enumerates
    lines = [
        line for line in M1_TEXT.splitlines(keepends=True)
        if not line.startswith(("base_weights", "expect_twisted_seed"))
    ]
    doctored = "".join(lines).replace("factor: G2 1\nh:", "factor: G2 1\nfactor: A1 1\nh:")
    doctored = doctored.replace("| 0 0\n", "| 0 0 | 0\n")
    assert parse_scenario(doctored).algebra.rank == 13
    (tmp_path / "m1x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 3
    assert "error: OrbifoldError: rank 13 exceeds the identification cap 12" in capsys.readouterr().out


def test_parse_scenario_errors():
    with pytest.raises(ScenarioError):
        parse_scenario("factor: A1 1\n")  # missing required fields
    with pytest.raises(ScenarioError):
        parse_scenario("name: x\nname: y\n")
    with pytest.raises(ScenarioError):
        parse_scenario("just a line without a colon")


def test_base_weights_require_expected_seed():
    text = M1_TEXT.replace("expect_twisted_seed: A3 1 12\n", "")
    with pytest.raises(ScenarioError):
        parse_scenario(text)


@pytest.mark.parametrize("line", [
    "base_weights:", "table_max_weight: 3\n", "expect_table_counts: 0:1 2:9 3:2\n",
])
def test_paired_fields_must_come_together(line):
    # without its partner, each of these would skip a check or raise mid-run
    text = "".join(l for l in M1_TEXT.splitlines(keepends=True) if not l.startswith(line))
    assert text != M1_TEXT
    with pytest.raises(ScenarioError, match="must be given together"):
        parse_scenario(text)


def test_scenario_h_length_mismatch():
    text = M1_TEXT.replace(
        "h: 1/2 0 0 0 0 -1/2 | 0 1/2 | 0 1/2 | 0 0",
        "h: 1/2 0 0 0 0 | 0 1/2 | 0 1/2 | 0 0",
    )
    with pytest.raises(ScenarioError):
        parse_scenario(text)


@pytest.mark.parametrize("scn,h,message", [
    # (h|alpha) = 1/3 on a root of E6; this used to run to an internal error
    # in the fixed-point stage (status ERROR, exit 3)
    ("m1.scn", "h: 1/3 0 0 0 0 -1/3 | 0 1/2 | 0 1/2 | 0 0", "(h|alpha) = -1/3 on a root of E6"),
    ("m5.scn", "h: 0 0 0 1/3 | 0 0 0 1/2", "(h|alpha) = -1/3 on a root of A4"),
    # every pairing integral: h is of order 1
    ("m1.scn", "h: 1 0 0 0 0 0 | 0 0 | 0 0 | 0 0", "is an integer on every root"),
    ("m1.scn", "h: 0 0 0 0 0 0 | 0 0 | 0 0 | 0 0", "is an integer on every root"),
])
def test_h_not_of_order_two_is_an_input_error(tmp_path, capsys, scn, h, message):
    text = (SCENARIOS / scn).read_text()
    doctored = "".join(h + "\n" if line.startswith("h:") else line
                       for line in text.splitlines(keepends=True))
    assert doctored != text
    with pytest.raises(ScenarioError, match="h is not of order 2"):
        parse_scenario(doctored)
    (tmp_path / scn).write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "h is not of order 2" in err and message in err


def test_order_two_check_fails_for_a_scenario_built_in_code():
    # parse_scenario rejects an h that is not of order 2, so only a Scenario
    # built in code reaches the check; h = 0 is integral on every root
    m1 = next(sc for sc in _bundled_scenarios() if sc.name == "M1")
    zero = [[0] * t.rank for t, _ in m1.algebra.factors]
    doctored_m1 = copy.copy(m1)
    doctored_m1.h = HVector.from_fundamental(m1.algebra, zero)
    report = run_scenario(doctored_m1)
    check = next(c for c in report.checks if c.name == "order-two-pairings")
    assert not check.ok and check.actual == "(h|alpha) is an integer on every root"
    assert not report.passed
    doctored = M1_TEXT.replace(
        "h: 1/2 0 0 0 0 -1/2 | 0 1/2 | 0 1/2 | 0 0", "h: 0 0 0 0 0 0 | 0 0 | 0 0 | 0 0")
    assert doctored != M1_TEXT
    with pytest.raises(ScenarioError, match="h is not of order 2"):
        parse_scenario(doctored)


def test_base_weights_factor_count_checked():
    text = M1_TEXT.replace(
        "base_weights: 0 0 0 0 0 0 | 0 0 | 0 0 | 0 0 ;",
        "base_weights: 0 0 0 0 0 0 | 0 0 | 0 0 ;",
    )
    assert text != M1_TEXT
    with pytest.raises(ScenarioError, match="one coefficient list per factor"):
        parse_scenario(text)


def test_base_weights_must_be_integral(tmp_path, capsys):
    # weights of untwisted modules have whole labels; a 1/2 label used to run
    # to an internal error (exit 3) whose text spelled out Fraction weights
    doctored = M1_TEXT.replace("base_weights: 0 0 0 0 0 0 |", "base_weights: 1/2 0 0 0 0 0 |", 1)
    assert doctored != M1_TEXT
    with pytest.raises(ScenarioError, match="base_weights must have integer labels"):
        parse_scenario(doctored)
    (tmp_path / "m1x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    assert "base_weights must have integer labels" in capsys.readouterr().err


def test_misspelled_key_is_rejected(tmp_path):
    # a typo in an optional key must not turn into a PASS that skips checks
    doctored = M1_TEXT.replace("table_max_weight:", "table_max_wieght:")
    (tmp_path / "m1x.scn").write_text(doctored)
    proc = run_cli("run", "--dir", str(tmp_path))
    assert proc.returncode == 2
    assert "table_max_wieght" in proc.stderr


def test_factor_line_needs_exactly_a_type_and_a_level(tmp_path, capsys):
    # an extra token would otherwise be dropped without a word
    doctored = M1_TEXT.replace("factor: G2 1\n", "factor: G2 1 junk\n", 1)
    assert doctored != M1_TEXT
    with pytest.raises(ScenarioError, match="'G2 1 junk'"):
        parse_scenario(doctored)
    with pytest.raises(ScenarioError, match="a type and a level"):
        parse_scenario(M1_TEXT.replace("factor: E6 3\n", "factor: E6\n"))
    (tmp_path / "m1x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    assert "G2 1 junk" in capsys.readouterr().err


def test_table_max_weight_and_table_weights_are_exclusive(tmp_path, capsys):
    # table_weights sets the maximum, so a second one would be silently replaced
    text = (SCENARIOS / "m4.scn").read_text()
    assert "table_weights: 2 3 4\n" in text
    doctored = text.replace("table_weights: 2 3 4\n", "table_weights: 2 3 4\ntable_max_weight: 9\n")
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(doctored)
    (tmp_path / "m4x.scn").write_text(doctored)
    assert main(["run", "--dir", str(tmp_path)]) == 2
    assert "not both" in capsys.readouterr().err


# h = Lambda_1/2 on E6 alone: the vacuum reaches twisted weight exactly 1/2,
# so nothing proves that the half-graded part vanishes
HALF_TEXT = """name: half
factor: E6 3
factor: G2 1
factor: G2 1
factor: G2 1
h: 1/2 0 0 0 0 0 | 0 0 | 0 0 | 0 0
expect_h_norm: 1
table_max_weight: 3
expect_table_counts: 0:1 2:9 3:2
expect_fixed: D5,3 G2,1^3 U(1)
expect_fixed_dim: 88
expect_new_dim: 168
expect_shape: E7,3 A5,1
"""


@pytest.mark.parametrize("text", [
    HALF_TEXT,
    # without a table no check bounds the twisted weights at all
    HALF_TEXT.replace("table_max_weight: 3\n", "").replace("expect_table_counts: 0:1 2:9 3:2\n", ""),
])
def test_dimension_formula_fails_unless_half_graded_part_is_proved_zero(text):
    from orbifold24.scenarios import run_scenario

    rep = run_scenario(parse_scenario(text))
    assert rep.status == "fail"
    checks = {c.name: c for c in rep.checks}
    if "twisted-weights-exclude-half" in checks:
        assert checks["twisted-weights-exclude-half"].actual == "minimum 1/2"
    dim = checks["dimension-formula"]
    # the formula's value matches the expectation, but it rests on an unproven
    # assumption, so the check must not pass
    assert not dim.ok
    assert dim.actual.startswith("unproven: 168 assumes dim V_1/2 = 0")


def test_lattice_value_must_be_true_or_false(tmp_path):
    # a typo in the value would otherwise skip every lattice check
    text = (SCENARIOS / "m5.scn").read_text()
    assert "lattice: true\n" in text
    (tmp_path / "m5x.scn").write_text(text.replace("lattice: true\n", "lattice: ture\n"))
    proc = run_cli("run", "--dir", str(tmp_path))
    assert proc.returncode == 2
    assert "'ture'" in proc.stderr
    for value in ("TRUE", "False"):
        assert parse_scenario(text.replace("lattice: true", f"lattice: {value}")).lattice == (
            value.lower() == "true"
        )


def _mutations(text):
    """(kind, key, text) for each key line dropped, duplicated and misspelled,
    and for a misspelled lattice value."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        key, sep, _ = line.partition(":")
        if not sep or line.startswith("#"):
            continue
        typo = key[1] + key[0] + key[2:] if len(key) > 1 else key * 2
        assert typo != key
        before, after = lines[:i], lines[i + 1 :]
        yield "drop", key, "".join(before + after)
        yield "duplicate", key, "".join(before + [line, line] + after)
        yield "misspell", key, "".join(before + [typo + line[len(key) :]] + after)
    if "\nlattice: true\n" in text:
        yield "value", "lattice", text.replace("\nlattice: true\n", "\nlattice: ture\n")
    else:
        yield "value", "lattice", text + "lattice: ture\n"


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.name)
def test_mutated_scenario_never_passes_with_skipped_checks(path, scenario_reports):
    # a mutation is rejected (exit 2) or runs to a report that does not pass;
    # only an assumption or note line may be dropped or repeated, and then the
    # same checks must run and pass
    from orbifold24.scenarios import run_scenario

    text = path.read_text()
    base = scenario_reports[parse_scenario(text).name]
    for kind, key, mutated in _mutations(text):
        harmless = key in ("assume", "note") and kind in ("drop", "duplicate")
        try:
            sc = parse_scenario(mutated, path.name)
        except ScenarioError:
            assert not harmless, (kind, key)
            continue
        rep = run_scenario(sc)
        if harmless:
            assert rep.status == "pass", (kind, key)
            assert [c.name for c in rep.checks] == [c.name for c in base.checks]
        else:  # a failed check, not an internal error
            assert rep.status == "fail", (kind, key, rep.error)


# -- hypothesis mutations of the values -------------------------------------------

SCN_PATHS = sorted(SCENARIOS.glob("*.scn"))
NON_NUMERIC = ["x", "1/0", "nan", "inf", "1//2", "half", "0x1", "--1", "1/2/3"]
# value keys: a value is groups (';') of parts ('|') of tokens
ARITY_KEYS = ("h", "base_weights", "factor")
WEIGHT_KEYS = ("h", "base_weights", "table_weights", "table_max_weight")


@st.composite
def value_mutations(draw):
    """(file name, key, mutated text): one value of a bundled scenario given
    the wrong number of entries (h, base_weights, factor) or a non-numeric
    weight (h, base_weights, table_weights, table_max_weight, a factor level)."""
    path = draw(st.sampled_from(SCN_PATHS))
    lines = path.read_text().splitlines(keepends=True)
    keys = [line.partition(":")[0] for line in lines]
    key = draw(st.sampled_from([k for k in ARITY_KEYS + WEIGHT_KEYS if k in keys]))
    i = draw(st.sampled_from([j for j, k in enumerate(keys) if k == key]))
    value = lines[i].partition(":")[2]
    groups = [[part.split() for part in g.split("|")] for g in value.split(";")]
    group = draw(st.sampled_from(groups))
    toks = draw(st.sampled_from(group))
    kinds = ["arity", "non-numeric"] if key in ARITY_KEYS else ["non-numeric"]
    if draw(st.sampled_from(kinds)) == "non-numeric":
        j = 1 if key == "factor" else draw(st.integers(0, len(toks) - 1))
        toks[j] = draw(st.sampled_from(NON_NUMERIC))
    elif key == "factor" or draw(st.booleans()):  # one entry more or fewer in a list
        if draw(st.booleans()):
            toks.pop(draw(st.integers(0, len(toks) - 1)))
        else:
            extra = draw(st.sampled_from(["0", "1/2", "1", "junk"]))
            toks.insert(draw(st.integers(0, len(toks))), extra)
    elif draw(st.booleans()) and len(group) > 1:  # one factor fewer
        group.remove(toks)
    else:  # one factor more
        group.insert(draw(st.integers(0, len(group))), list(toks))
    value = " ; ".join(" | ".join(" ".join(t) for t in g) for g in groups)
    mutated = "".join(lines[:i] + [f"{key}: {value}\n"] + lines[i + 1 :])
    return path.name, key, mutated


@settings(max_examples=150, deadline=None)
@given(value_mutations())
def test_mutated_values_are_rejected_or_fail(case):
    # a malformed value is a parse error (exit 2) or a failed report: never an
    # internal error, and never a pass
    from orbifold24.scenarios import run_scenario

    name, key, mutated = case
    try:
        sc = parse_scenario(mutated, name)
    except ScenarioError:
        return
    rep = run_scenario(sc)
    assert rep.status == "fail", (name, key, rep.error)
