"""Exact-arithmetic index iteration, common-index-jump tuples, and
Morse-theoretic counting for closed geodesics."""

from .scalars import Exact, Lattice, ceil_mult, floor_mult, frac_mult, is_near_lattice
from .normal_forms import (
    D,
    N1,
    N2,
    R,
    SymplecticClass,
    crossing_sum,
    m_check,
    nullity,
    splitting_numbers,
)
from .iteration import PathClass, index_iterate, mean_index, path_nullity
from .engine import (
    CijtTuple,
    NotFoundWithinBound,
    SelectionProblem,
    VertexSpec,
    delta_zero,
    find_tuple,
    m_bar_for_geodesics,
    opposite_tuple,
    verify_tuple,
)
from .loop_homology import (
    CohomologyShape,
    alternating_betti_sum,
    betti,
    betti_partial_sum,
    epsilon_correction,
    resonance_constant,
)
from .morse import (
    GeodesicDataset,
    GeodesicRecord,
    HypothesisRejected,
    gamma_invariant,
    jump_census,
    morse_type_numbers,
    resonance_check,
    verify_theorem_1_1,
    verify_theorem_1_5,
    verify_theorem_1_8,
)

__version__ = "0.1.0"
