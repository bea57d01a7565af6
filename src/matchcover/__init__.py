"""Exact analysis of feasible edge sets in matching-covered graphs.

A graph is matching-covered when it is connected and every edge lies in
some perfect matching.  An edge set X is feasible when two perfect
matchings meet X with different parities; this package classifies edge
sets, decides switching-equivalence with explicit witnesses, decides
whether every non-feasible set is switching-equivalent to the empty or
full edge set, searches for ear decompositions, and builds certified
instances of several infinite graph families.
"""

from .errors import (
    BudgetExhaustedError,
    ColoringMismatchError,
    CrossCheckError,
    DimensionMismatch,
    EdgeNotInGraphError,
    Graph6MultigraphError,
    InvalidParameterError,
    MatchcoverError,
    NoPerfectMatchingError,
    NotEquivalentError,
    NotMatchingCoveredError,
    ParseError,
)
from .graph import (
    EdgeSet,
    Graph,
    VertexSet,
    boundary,
    is_bipartite,
    is_connected,
    vertex_connectivity_at_least,
)
from .gf2 import Gf2Subspace, subspace_equal, subspace_sum
from .matching import (
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_matching_covered,
    is_nice_subgraph,
    max_matching,
)
from .feasibility import (
    is_feasible,
    is_switch_equiv,
    is_switch_equiv_empty,
    is_switch_equiv_full,
    nf_star_report,
    parity_spaces,
)
from .ears import (
    EarDecomposition,
    LastEar,
    classify_nf_star,
    find_ear_decomposition,
    find_single_ear_decomposition,
    last_ear,
    validate_decomposition,
)
from .constructions import (
    ChainPart,
    ConstructionCertificate,
    CyclePart,
    StarPart,
    build_chain,
    build_cycle_cl,
    build_qr,
    build_qr_family,
    build_star_xs,
    chromatic_index_exact,
    petersen,
    splice,
    star_part_from_certificate,
    verify_certificate,
)
from .formats import read_graph, write_graph

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
