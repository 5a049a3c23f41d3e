"""Local search for packing weighted sets of size two and three.

Sets of cardinality three weigh 2, sets of cardinality two weigh 1, and the
goal is a maximum-weight pairwise-disjoint sub-collection.  The package
bundles the bounded local-improvement solver with its color-coding binocular
phase, the hereditary tau=10 variant with an exact 4/3 guarantee, an exact
branch-and-bound oracle, an instance normalizer, and a ratio-audit CLI.
"""

from .instance import (FormatError, Instance, Packing, PackSet, embed_3dm,
                       generate_random, parse_instance, serialize_instance)
from .conflict import (ConflictGraph, assert_claw_structure, build_conflict_graph,
                       neighborhood)
from .local_search import (Improvement, RunStats, SearchParams, apply_improvement,
                           find_improvement, is_local_improvement, solve)
from .search_graph import (LabeledBinocular, SearchEdge, SearchGraph,
                           enumerate_search_edges, extract_improvement,
                           is_improving_binocular)
from .color_coding import (Coloring, colorful_subgraph, find_colorful_binocular,
                           make_colorings, search_improving_binocular)
from .hereditary import (HereditaryInstance, hereditary_closure, is_hereditary,
                         solve_hereditary)
from .oracle import OracleResult, solve_exact

__all__ = [name for name in dir() if not name.startswith("_")]
