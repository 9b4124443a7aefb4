"""Exact arithmetic for shuffle and bubble lattices.

Builds the lattices of shuffle words, computes their M-triangles,
H-triangles, and reverse characteristic polynomials by independent
methods, and verifies the identities relating them with machine-checked
equality of exact integer polynomials.
"""

from .lattices import (
    BubbleCover,
    DegreeTriple,
    bubble_covers,
    build_shuffle_lattice,
    degree_statistics,
)
from .polyalg import (
    ONE,
    Q,
    T,
    ZERO,
    BivarPoly,
    NonUnitConstantTerm,
    TruncatedSeries2,
)
from .poset import (
    CycleDetected,
    NoBottom,
    NotGraded,
    Poset,
    build_poset,
)
from .triangles import (
    BRUTE_SIZE_CAP,
    adjudicate_series_cross_term,
    char_poly_brute,
    char_poly_formula,
    h_triangle_brute,
    h_triangle_formula,
    m_series,
    m_triangle_brute,
    m_triangle_composition_sum,
    m_triangle_formula,
    m_triangle_interval,
)
from .identities import (
    IdentityVerdict,
    inner_sum_lhs,
    inner_sum_rhs,
    r_sum_sides,
    run_suites,
    vandermonde_step,
    verify_char_from_h,
    verify_h_to_m,
)
from .words import (
    DEFAULT_SIZE_CAP,
    DuplicateLetter,
    IndexOutOfRange,
    Letter,
    OrderViolation,
    SizeLimitExceeded,
    enumerate_shuffle_words,
    format_word,
    parse_word,
    rank,
    shuffle_word_count,
    validate,
)

__version__ = "0.1.0"
