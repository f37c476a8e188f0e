"""The dimension formula of the order-2 orbifold, in closed form.

For a holomorphic V of central charge 24 with an order-2 inner twist g,
fixed weight-one algebra g_1 = V^g_1 and half-integral twisted-sector
weight space of dimension dim_half, the orbifold V~ has

    dim V~_1 = 3 dim g_1 - dim V_1 + 24 (1 - dim_half)
    dim V^g_2 = 98580 + 2^11 dim_half

(arXiv:1501.05094; van Ekeren-Möller-Scheithauer, arXiv:1507.08142).  Both
come from the genus-zero fit of the fixed-point character as a Laurent
polynomial in the hauptmodul of Gamma_0(2), Z = f + c0 + c_{-1} f^-1 +
2^23 f^-2, with c0 = dim g_1 + 24 and c_{-1} = 2^11 (dim_half + 48): the
first is the constant term of Z(tau) + Z(S tau) + Z(ST tau) - dim V_1,
the second the q^1 coefficient of Z.  That series route is affine in the
three dimensions, and `tests/test_qseries.py` proves it equal to these
closed forms by checking affinity and four affinely independent points
against the series oracle in `tests/qseries_oracle.py`.
"""

# comb(24, 2) + 24 * 2^12: the weight-two constant 98580
DIM_CONSTANT = 276 + 24 * 2**12


class QSeriesError(ValueError):
    pass


def dimension_identities(dim_V1: int, dim_g1: int, dim_half: int) -> tuple[int, int]:
    """(dim of the new weight-one space, dim of the fixed-point weight-two
    space) for the order-2 orbifold, by the closed forms above."""
    if min(dim_V1, dim_g1, dim_half) < 0:
        raise QSeriesError("dimensions must be nonnegative")
    return 3 * dim_g1 - dim_V1 + 24 * (1 - dim_half), DIM_CONSTANT + 2**11 * dim_half
