"""Exact-arithmetic order-2 orbifold computations for holomorphic vertex
algebras of central charge 24: affine module spectra, inner twists, the
genus-zero dimension formula, Lie algebra identification, and the glued
A4^6 lattice case."""

from .affine import (
    AffineLabel,
    HVector,
    ProductAlgebra,
    ProductLabel,
    conformal_weight,
    enumerate_modules,
    integral_spectrum_table,
    product_twisted_lowest,
    spectrum_half_integral,
    twisted_positivity_certificate,
)
from .orbifold import (
    SeedSubalgebra,
    SemisimpleShape,
    assemble_root_subsystem,
    embeds,
    fixed_subalgebra,
    identify,
    twisted_sector_roots,
    verlinde_simple_current,
)
from .qseries import (
    QSeries,
    character_fit,
    dimension_identities,
    eta24,
    hauptmodul,
    hauptmodul_S_power,
    t_transform,
)
from .rootsys import (
    RootDatum,
    RootSystemError,
    SimpleType,
    build_root_datum,
    min_pairing,
    weight_support,
    weyl_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
