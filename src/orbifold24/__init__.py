"""Exact-arithmetic order-2 orbifold computations for holomorphic vertex
algebras of central charge 24: affine module spectra, inner twists, the
genus-zero dimension formula, Lie algebra identification, and the glued
A4^6 lattice case.

The package root exports no names and `import orbifold24` loads no
submodule: each name is imported from its home module (`rootsys`,
`affine`, `orbifold`, `qseries`, `lattice`, `scenarios`, `cli`), so a
process loads only the modules it uses.
"""

__version__ = "0.1.0"
