from fractions import Fraction
from pathlib import Path

import pytest

from orbifold24.cli import _bundled_scenarios
from orbifold24.scenarios import run_scenario

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def scenario_reports():
    """Run the five bundled scenarios once for the whole session."""
    return {sc.name: run_scenario(sc) for sc in _bundled_scenarios()}


@pytest.fixture(scope="session")
def golden():
    def load(name):
        return (DATA / f"{name}.tbl").read_text()

    return load


@pytest.fixture
def refuse_fraction_arithmetic(monkeypatch):
    """A function that, once called, makes every Fraction +, -, * and /
    raise for the rest of the test, reflected forms included.  Fractions
    may still be built, compared and hashed."""

    def refuse(*args):
        raise AssertionError("Fraction arithmetic reached")

    def start():
        for op in ("add", "sub", "mul", "truediv"):
            for name in (f"__{op}__", f"__r{op}__"):
                monkeypatch.setattr(Fraction, name, refuse)

    return start
