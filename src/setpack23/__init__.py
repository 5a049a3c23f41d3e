"""Local search for packing weighted sets of size two and three.

Sets of cardinality three weigh 2, sets of cardinality two weigh 1, and the
goal is a maximum-weight pairwise-disjoint sub-collection.  The package
exports the solve path: instances and their I/O, the conflict graph, the
bounded local-improvement solver with its color-coding binocular phase, the
hereditary tau=10 variant with an exact 4/3 guarantee and the exact
branch-and-bound oracle.  The ``setpack`` CLI lives in ``setpack23.cli``;
``setpack23.normalize``, the analysis-tuple transform behind
``setpack normalize``, loads only when imported.
"""

from .instance import (FormatError, Instance, Packing, PackSet, embed_3dm,
                       generate_random, parse_instance, serialize_instance)
from .conflict import build_conflict_graph
from .local_search import (Improvement, RunStats, SearchParams, apply_improvement,
                           find_improvement, is_local_improvement, solve)
from .hereditary import hereditary_closure, is_hereditary, solve_hereditary
from .oracle import OracleResult, solve_exact

__all__ = [
    "FormatError", "Instance", "Packing", "PackSet", "embed_3dm", "generate_random",
    "parse_instance", "serialize_instance",
    "build_conflict_graph",
    "Improvement", "RunStats", "SearchParams", "apply_improvement", "find_improvement",
    "is_local_improvement", "solve",
    "hereditary_closure", "is_hereditary", "solve_hereditary",
    "OracleResult", "solve_exact",
]
