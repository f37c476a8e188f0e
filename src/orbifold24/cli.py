"""Command-line verification harness.

Subcommands:
    run          execute scenarios (bundled by default) and report per check
    list         list available scenarios
    dump-tables  print the module tables in the golden-file format

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
parse error, 3 a scenario stage raised an internal error (its report says
"error" and the checks after that stage did not run).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .affine import ProductAlgebra, conformal_weight, enumerate_modules, integral_spectrum_table
from .rootsys import SimpleType
from .scenarios import Scenario, ScenarioError, parse_scenario, run_scenario

MODULE_TABLES = [
    ("e6_3", "E6", 3),
    ("g2_1", "G2", 1),
    ("g2_2", "G2", 2),
    ("d7_3", "D7", 3),
    ("a3_1", "A3", 1),
    ("e7_3", "E7", 3),
    ("a5_1", "A5", 1),
    ("c5_3", "C5", 3),
    ("a1_1", "A1", 1),
]

PRODUCT_TABLES = [
    ("t_e63_g21_3", (("E6", 3), ("G2", 1), ("G2", 1), ("G2", 1)), 3, None),
    ("t_d73_a31_g21", (("D7", 3), ("A3", 1), ("G2", 1)), 3, None),
    ("t_e73_a51", (("E7", 3), ("A5", 1)), 3, None),
    ("t_c53_g22_a11", (("C5", 3), ("G2", 2), ("A1", 1)), 4, (2, 3, 4)),
]


def module_table_text(type_name: str, level: int) -> str:
    lines = []
    for m in enumerate_modules(SimpleType.parse(type_name), level):
        w = conformal_weight(m)
        lines.append(" ".join(map(str, m.coeffs)) + f"\t{w.numerator}/{w.denominator}")
    return "\n".join(lines) + "\n"


def product_table_text(factors, max_weight, weights) -> str:
    a = ProductAlgebra.of(*factors)
    wset = frozenset(weights) if weights else None
    lines = []
    for lbl, w in integral_spectrum_table(a, max_weight, wset):
        coeffs = " | ".join(" ".join(map(str, cs)) for cs in lbl.coeffs)
        lines.append(coeffs + f"\t{w.numerator}/{w.denominator}")
    return "\n".join(lines) + "\n"


def _scenarios_in(root, label) -> list[Scenario]:
    """The .scn files of a directory in name order, each parsed under the
    name label(file) that its errors carry."""
    files = sorted((e for e in root.iterdir() if e.name.endswith(".scn")), key=lambda e: e.name)
    return [parse_scenario(e.read_text(), label(e)) for e in files]


def _bundled_scenarios() -> list[Scenario]:
    return _scenarios_in(resources.files("orbifold24") / "scenarios", lambda e: e.name)


def _load_scenarios(args) -> list[Scenario]:
    if not args.dir:
        scenarios = _bundled_scenarios()
    elif Path(args.dir).is_dir():
        scenarios = _scenarios_in(Path(args.dir), str)
    else:
        raise ScenarioError(f"no scenario directory {args.dir!r}")
    if getattr(args, "scenario", None):
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            raise ScenarioError(f"no scenario named {args.scenario!r}")
    return scenarios


def _summary_table(scenarios, reports):
    rows = [("scenario", "ambient", "fixed points", "new algebra", "status")]
    for sc, rep in zip(scenarios, reports):
        by_name = {c.name: c.actual for c in rep.checks}
        new = by_name.get("identification", "-").removeprefix("unique ")
        rows.append(
            (sc.name, str(sc.algebra), by_name.get("fixed-shape", "-"), new,
             "pass" if rep.passed else rep.status.upper())
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def cmd_run(args) -> int:
    scenarios = _load_scenarios(args)
    reports = [run_scenario(sc) for sc in scenarios]
    if args.json:
        records = [r for rep in reports for r in rep.records()]
        print(json.dumps(records, indent=2))
    else:
        for rep in reports:
            for line in rep.lines(verbose=args.verbose):
                print(line)
        if reports:
            print()
            for line in _summary_table(scenarios, reports):
                print(line)
        passed = sum(r.passed for r in reports)
        print(f"{passed}/{len(reports)} scenarios pass")
    if any(r.status == "error" for r in reports):
        return 3
    return 0 if all(r.passed for r in reports) else 1


def cmd_list(args) -> int:
    for sc in _load_scenarios(args):
        kind = "lattice+algebra" if sc.lattice else "algebra"
        print(f"{sc.name}\t{sc.algebra}\t-> {sc.expect_shape}\t[{kind}]")
    return 0


def cmd_dump_tables(args) -> int:
    chunks = []
    for name, tname, level in MODULE_TABLES:
        chunks.append((name, module_table_text(tname, level)))
    for name, factors, maxw, weights in PRODUCT_TABLES:
        chunks.append((name, product_table_text(factors, maxw, weights)))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in chunks:
            (outdir / f"{name}.tbl").write_text(text)
        print(f"wrote {len(chunks)} tables to {outdir}")
    else:
        for name, text in chunks:
            print(f"== {name} ==")
            print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orbifold24", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run scenario verifications")
    runp.add_argument("--dir", help="directory of .scn files (default: bundled)")
    runp.add_argument("--scenario", help="run a single scenario by name")
    runp.add_argument("--json", action="store_true", help="machine-readable report")
    runp.add_argument("-v", "--verbose", action="store_true", help="show passing checks")
    runp.set_defaults(func=cmd_run)

    listp = sub.add_parser("list", help="list scenarios")
    listp.add_argument("--dir", help="directory of .scn files (default: bundled)")
    listp.set_defaults(func=cmd_list)

    dumpp = sub.add_parser("dump-tables", help="dump module tables in golden format")
    dumpp.add_argument("--out", help="write one .tbl file per table to this directory")
    dumpp.set_defaults(func=cmd_dump_tables)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
