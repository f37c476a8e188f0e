"""Each module loads only what it runs: the package root loads no submodule
and exports no names, the lattice module needs no other module of the
package, the orbifold module needs only the root systems, the dimension
formula needs nothing, and no module loads `dataclasses` or the `inspect`
it imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbifold24

SRC = Path(__file__).resolve().parents[1] / "src"

def loaded_after(statement):
    """The names in sys.modules after a fresh interpreter runs the statement."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return set(json.loads(proc.stdout))


def package_modules(modules):
    return {m for m in modules if m.startswith("orbifold24.")}


def test_package_import_loads_no_submodule():
    modules = loaded_after("import orbifold24")
    assert "orbifold24" in modules
    assert package_modules(modules) == set()


@pytest.mark.parametrize("statement", ["import orbifold24.lattice", "from orbifold24 import lattice"])
def test_lattice_loads_no_other_package_module_and_no_dataclasses(statement):
    modules = loaded_after(statement)
    assert package_modules(modules) == {"orbifold24.lattice"}
    assert "dataclasses" not in modules


@pytest.mark.parametrize("module", ["cli", "rootsys", "affine", "orbifold", "qseries", "scenarios"])
def test_module_loads_no_dataclasses_or_inspect(module):
    modules = loaded_after(f"import orbifold24.{module}")
    assert f"orbifold24.{module}" in modules
    assert not {"dataclasses", "inspect"} & modules


def test_qseries_is_closed_form_only():
    # the dimension formula needs no other package module and no Fractions
    modules = loaded_after("import orbifold24.qseries")
    assert package_modules(modules) == {"orbifold24.qseries"}
    assert "fractions" not in modules


def test_orbifold_loads_only_the_root_systems():
    modules = loaded_after("import orbifold24.orbifold")
    assert package_modules(modules) == {"orbifold24.orbifold", "orbifold24.rootsys"}


def test_root_exports_nothing():
    """Every name is imported from its home module; the root holds no aliases."""
    assert not hasattr(orbifold24, "identify")
    with pytest.raises(ImportError):
        from orbifold24 import identify  # noqa: F401
