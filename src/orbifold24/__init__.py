"""Exact-arithmetic order-2 orbifold computations for holomorphic vertex
algebras of central charge 24: affine module spectra, inner twists, the
genus-zero dimension formula, Lie algebra identification, and the glued
A4^6 lattice case.

The namespace is lazy (PEP 562): `import orbifold24` loads no submodule,
and each name below is imported from its home module on first access, so
a process loads only the modules it uses.
"""

from importlib import import_module

# each exported name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "AffineLabel", "HVector", "ProductAlgebra", "ProductLabel", "conformal_weight",
        "enumerate_modules", "integral_spectrum_table", "product_twisted_lowest",
        "spectrum_half_integral", "twisted_positivity_certificate",
    ), "affine"),
    **dict.fromkeys((
        "SeedSubalgebra", "SemisimpleShape", "assemble_root_subsystem", "embeds",
        "fixed_subalgebra", "identify", "twisted_sector_roots", "verlinde_simple_current",
    ), "orbifold"),
    **dict.fromkeys((
        "QSeries", "character_fit", "dimension_identities", "eta24", "hauptmodul",
        "hauptmodul_S_power", "t_transform",
    ), "qseries"),
    **dict.fromkeys((
        "RootDatum", "RootSystemError", "SimpleType", "build_root_datum", "min_pairing",
        "weight_support",
    ), "rootsys"),
}
_SUBMODULES = frozenset(_HOMES.values())

__all__ = sorted([*_HOMES, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
