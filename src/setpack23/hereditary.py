"""Hereditary instances: closure, validation, and the tau=10 solver.

An instance is hereditary when every 3-set has all three of its 2-element
subsets present as well.  On such instances, any solution with no local
improvement of size at most ten is already within a factor 4/3 of optimal,
so the solver runs the plain improvement loop with tau=10 and never needs
the binocular phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .instance import Instance, PackSet, Packing
from .local_search import RunStats, SearchParams, solve


@dataclass(frozen=True)
class HereditaryInstance:
    base: Instance


def _missing_pairs(instance: Instance) -> Iterator[tuple[int, ...]]:
    """The 2-subsets of 3-sets that the instance lacks, in closure order: by
    set id (its position 0..m-1, as ``Instance`` checks), then sorted pairs, once each."""
    keys = {s.key for s in instance.sets}
    for s in instance.sets:
        if s.weight != 2:
            continue
        for pair in combinations(sorted(s.elements), 2):
            if frozenset(pair) not in keys:
                keys.add(frozenset(pair))
                yield pair


def is_hereditary(instance: Instance) -> bool:
    return next(_missing_pairs(instance), None) is None


def hereditary_closure(instance: Instance) -> HereditaryInstance:
    """Add the missing 2-subsets of every 3-set; idempotent and minimal."""
    m = len(instance.sets)
    new_sets = instance.sets + tuple(
        PackSet(m + i, pair) for i, pair in enumerate(_missing_pairs(instance)))
    return HereditaryInstance(Instance(new_sets, instance.universe_size))


def solve_hereditary(instance: Instance | HereditaryInstance, seed: int = 0,
                     tau: int = 10) -> tuple[Packing, RunStats]:
    """Local search with improvements of size at most tau >= 10, no binoculars.

    The returned packing satisfies 4 * w(ALG) >= 3 * w(OPT) on hereditary
    instances by the local-optimality guarantee.
    """
    base = instance.base if isinstance(instance, HereditaryInstance) else instance
    if not is_hereditary(base):
        raise ValueError("instance is not hereditary; close it first")
    params = SearchParams(tau=tau, mode="hereditary", seed=seed)
    return solve(base, params)
