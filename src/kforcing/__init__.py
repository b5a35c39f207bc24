"""k-forcing processes on graphs.

A colored vertex with at most k uncolored neighbors colors all of them; a
k-forcing set is an initial coloring that eventually colors every vertex.
The package provides the process simulator, a greedy set construction with
provable size guarantees, an exact minimum-set solver, exact-rational
bound evaluators, and a corpus verification harness.
"""

from .bounds import (
    BoundsReport,
    BoundValue,
    all_bounds,
    bound_acdp_thm4,
    bound_acdp_thm5,
    bound_cor1,
    bound_cor2,
    bound_cor3,
    bound_prop1_thm2_cases,
    bound_thm2_iii,
    thm2iii_value,
)
from .corpus import CorpusSpec, default_corpus, load_corpus, circulant_corpus
from .errors import (
    BudgetExceededError,
    KForcingError,
)
from .exact import ExactResult, exact_all_minimum_sets, exact_f_k
from .forcing import (
    ColorState,
    ForcingEvent,
    ForcingTrace,
    closure,
    is_k_forcing_set,
    stalled_frontier,
)
from .generators import FamilySpec, generate, is_bipartite
from .graph import (
    DegreeSummary,
    Graph,
    build_graph,
    connected_components,
    degrees,
    is_connected,
    is_k_connected,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
)
from .greedy import GreedyResult, greedy_k_forcing_set, greedy_per_component
from .verify import VerifyReport, run_corpus

__version__ = "0.1.0"

__all__ = [
    "BoundValue",
    "BoundsReport",
    "BudgetExceededError",
    "ColorState",
    "CorpusSpec",
    "DegreeSummary",
    "ExactResult",
    "FamilySpec",
    "ForcingEvent",
    "ForcingTrace",
    "Graph",
    "GreedyResult",
    "KForcingError",
    "VerifyReport",
    "all_bounds",
    "bound_acdp_thm4",
    "bound_acdp_thm5",
    "bound_cor1",
    "bound_cor2",
    "bound_cor3",
    "bound_prop1_thm2_cases",
    "bound_thm2_iii",
    "build_graph",
    "closure",
    "connected_components",
    "default_corpus",
    "degrees",
    "exact_all_minimum_sets",
    "exact_f_k",
    "generate",
    "greedy_k_forcing_set",
    "greedy_per_component",
    "is_bipartite",
    "is_connected",
    "is_k_connected",
    "is_k_forcing_set",
    "load_corpus",
    "circulant_corpus",
    "parse_edge_list",
    "parse_graph6",
    "run_corpus",
    "serialize_edge_list",
    "serialize_graph6",
    "stalled_frontier",
    "thm2iii_value",
]
