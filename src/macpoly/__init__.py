"""Exact combinatorics of modified Macdonald polynomials.

Everything is computed over the integers from explicit fillings of Young
diagrams: the polynomials themselves, their monomial and Schur expansions,
q,t-Kostka tables, LLT polynomials of tuples of skew shapes, Jack and
Hall-Littlewood degenerations, and the sign-flipping involutions and crystal
operators used to verify the identities relating them.
"""

from .crystal import (
    crystal_lower,
    crystal_raise,
    filling_lower,
    filling_raise,
    is_yamanouchi,
    rectify,
    rsk,
    two_column_kostka,
)
from .fillings import (
    ORDER1,
    ORDER2,
    Filling,
    descent_cells,
    fillings,
    format_filling,
    inv,
    maj,
    parse_filling,
    standardize,
    super_fillings,
)
from .involutions import attack_involution, row_bound_involution
from .llt import llt_poly, llt_super_poly
from .macdonald import (
    kostka_table,
    macdonald,
    macdonald_in_x,
    one_minus_u_coeffs,
    plethysm_q_minus_one,
    plethysm_t_minus_one,
)
from .qtring import QT
from .shapes import (
    SkewShape,
    conjugate,
    format_partition,
    parse_partition,
    partitions,
    ribbon_from_descents,
    ribbon_tuple,
)
from .special import (
    cocharge,
    hall_littlewood_schur,
    integral_form_in_x,
    integral_form_m_vec,
    jack_alpha_m_vec,
    jack_limit,
)
from .symfunc import XPoly, kostka, schur_expand, syt_count, to_m_basis

__version__ = "0.1.0"

__all__ = [
    "Filling",
    "ORDER1",
    "ORDER2",
    "QT",
    "SkewShape",
    "XPoly",
    "attack_involution",
    "cocharge",
    "conjugate",
    "crystal_lower",
    "crystal_raise",
    "descent_cells",
    "filling_lower",
    "filling_raise",
    "fillings",
    "format_filling",
    "format_partition",
    "hall_littlewood_schur",
    "integral_form_in_x",
    "integral_form_m_vec",
    "inv",
    "is_yamanouchi",
    "jack_alpha_m_vec",
    "jack_limit",
    "kostka",
    "kostka_table",
    "llt_poly",
    "llt_super_poly",
    "macdonald",
    "macdonald_in_x",
    "maj",
    "one_minus_u_coeffs",
    "parse_filling",
    "parse_partition",
    "partitions",
    "plethysm_q_minus_one",
    "plethysm_t_minus_one",
    "rectify",
    "ribbon_from_descents",
    "ribbon_tuple",
    "row_bound_involution",
    "rsk",
    "schur_expand",
    "standardize",
    "super_fillings",
    "syt_count",
    "to_m_basis",
    "two_column_kostka",
]
