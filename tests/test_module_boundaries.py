"""Each module of the package uses only the public names of its siblings."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbifold24"


def private_sibling_imports(path):
    """(line, module, name) for each underscore-prefixed name the file imports
    from the package or one of its modules, relatively or by the package's
    name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 1:
            module = parts[0]
        elif node.level == 0 and parts[0] == "orbifold24":
            module = ".".join(parts[1:])
        else:
            continue
        found += [(node.lineno, module or ".", a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    assert (PACKAGE / "lattice.py").is_file()
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := private_sibling_imports(path))
    }
    assert offenders == {}


def test_private_import_check_sees_both_import_forms(tmp_path):
    # the check itself: a relative and an absolute import of a private name
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .rootsys import SimpleType, _to_integral\n"
        "from orbifold24.lattice import _block\n"
        "from . import lattice, _cache\n"
        "from fractions import _gcd\n"
    )
    assert private_sibling_imports(probe) == [
        (1, "rootsys", "_to_integral"), (2, "lattice", "_block"), (3, ".", "_cache"),
    ]
