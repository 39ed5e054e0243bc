"""Approximate minimum 2-connected, m-fold dominating sets of biconnected
graphs, via a two-phase potential-function greedy, with exhaustive oracles
and randomized structural checks at small scale."""

from .graph import (
    EarDecompositionError,
    Graph,
    articulation_report,
    closed_components,
    ear_decomposition,
    induced_components,
    is_biconnected,
    new_graph,
    restricted_shortest_path,
    split_counts,
)
from .potential import (
    Color,
    GainBreakdown,
    PotentialSnapshot,
    color_map,
    color_of,
    gain,
    snapshot,
)
from .oracle import (
    ENUMERATION_CAP,
    ExactResult,
    LemmaCheck,
    TooLargeError,
    check_lemma_inequality,
    exact_min_cds,
    naive_snapshot,
)
from .generator import GenerationFailed, GenSpec, default_radius, generate
from .solver import (
    InfeasibleError,
    NotBiconnectedInputError,
    Solution,
    SolveConfig,
    TraceStep,
    greedy_phase1,
    phase2_merge,
    solve,
)
from .verify import Certificate, RatioReport, ratio_report, verify_certificate
from .fileio import (
    format_dot,
    format_edge_list,
    read_edge_list,
    write_dot,
    write_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Color",
    "ENUMERATION_CAP",
    "EarDecompositionError",
    "ExactResult",
    "GainBreakdown",
    "GenSpec",
    "GenerationFailed",
    "Graph",
    "InfeasibleError",
    "LemmaCheck",
    "NotBiconnectedInputError",
    "PotentialSnapshot",
    "RatioReport",
    "SolveConfig",
    "Solution",
    "TooLargeError",
    "TraceStep",
    "articulation_report",
    "check_lemma_inequality",
    "closed_components",
    "color_map",
    "color_of",
    "default_radius",
    "ear_decomposition",
    "exact_min_cds",
    "format_dot",
    "format_edge_list",
    "gain",
    "generate",
    "greedy_phase1",
    "induced_components",
    "is_biconnected",
    "naive_snapshot",
    "new_graph",
    "phase2_merge",
    "ratio_report",
    "read_edge_list",
    "restricted_shortest_path",
    "snapshot",
    "solve",
    "split_counts",
    "verify_certificate",
    "write_dot",
    "write_edge_list",
]
