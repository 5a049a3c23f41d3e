"""Set-system data model, validation, serialization and instance generators.

An instance is a collection of sets of cardinality 2 or 3 over a finite
universe.  The weight of a set is its cardinality minus one, so 2-sets weigh
1 and 3-sets weigh 2.  Set ids are positions 0..m-1; ``Instance`` is the one
place that checks it.  Elements are interned to dense integer ids in order
of first appearance; every construction path in this module produces such a
canonical instance, which is what makes ``parse(serialize(x)) == x`` hold.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Sequence


class FormatError(ValueError):
    """Raised for malformed input or invariant-violating set systems."""


@dataclass(frozen=True)
class PackSet:
    """A single candidate set: its id (its position) and 2 or 3 distinct element ids."""

    id: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise FormatError(f"set {self.id}: duplicate element within a set")
        if len(self.elements) not in (2, 3):
            raise FormatError(f"set {self.id}: cardinality must be 2 or 3, got {len(self.elements)}")
        if any(e < 0 for e in self.elements):
            raise FormatError(f"set {self.id}: negative element id")

    @property
    def weight(self) -> int:
        return len(self.elements) - 1

    @property
    def key(self) -> frozenset[int]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class Instance:
    """An immutable 2-3-set system over ``universe_size`` interned elements; ``sets[i].id == i``."""

    sets: tuple[PackSet, ...]
    universe_size: int

    def __post_init__(self) -> None:
        seen_keys: set[frozenset[int]] = set()
        for i, s in enumerate(self.sets):
            if s.id != i:
                raise FormatError(f"set at position {i} has id {s.id}; ids must be positions 0..m-1")
            key = s.key
            if key in seen_keys:
                raise FormatError(f"duplicate set {sorted(s.elements)}")
            seen_keys.add(key)
            if any(e >= self.universe_size for e in s.elements):
                raise FormatError(f"set {s.id}: element id beyond universe of size {self.universe_size}")

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class Packing:
    """A pairwise-disjoint sub-collection, referenced by set ids."""

    members: frozenset[int] = field(default_factory=frozenset)

    def weight(self, instance: Instance) -> int:
        """Total weight; the members must be valid set ids (see ``validate_packing``)."""
        return sum(instance.sets[i].weight for i in self.members)


def validate_packing(instance: Instance, packing: Packing) -> None:
    """Raise ``FormatError`` unless the members are set ids and pairwise disjoint."""
    used: set[int] = set()
    for i in sorted(packing.members):
        if not 0 <= i < len(instance.sets):  # sets[-1] would wrap silently
            raise FormatError(f"packing references unknown set id {i}")
        elems = set(instance.sets[i].elements)
        if used & elems:
            raise FormatError(f"packing not disjoint at set {i}")
        used |= elems


def _build(raw_sets: Sequence[Sequence[object]]) -> Instance:
    ids: dict[object, int] = {}  # element token -> dense id, first appearance first
    sets = []
    for idx, tokens in enumerate(raw_sets):
        sets.append(PackSet(idx, tuple(ids.setdefault(t, len(ids)) for t in tokens)))
    return Instance(tuple(sets), len(ids))


def parse_instance(data: bytes | str, format: str = "text") -> Instance:
    """Parse an instance from ``text`` or ``json`` input.

    Text format: one set per line, whitespace-separated element tokens,
    ``#`` starts a comment line.  JSON format: ``{"sets": [[t, t, t], ...]}``
    with string or integer tokens.  Weights are never part of the input;
    they are derived from cardinality.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if format == "text":
        raw: list[Sequence[object]] = []
        for line in data.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            raw.append(line.split())
        return _build(raw)
    if format == "json":
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "sets" not in doc or not isinstance(doc["sets"], list):
            raise FormatError('JSON instance must be an object with a "sets" list')
        for s in doc["sets"]:
            # bool is an int subclass, so true would alias the token 1
            if not isinstance(s, list) or not all(type(t) in (str, int) for t in s):
                raise FormatError("each set must be a list of string or integer tokens")
        return _build(doc["sets"])
    raise FormatError(f"unknown format {format!r}")


def serialize_instance(instance: Instance, format: str = "text") -> str:
    """Serialize to the text or JSON wire format (tokens are the dense ids)."""
    if format == "text":
        return "".join(" ".join(str(e) for e in s.elements) + "\n" for s in instance.sets)
    if format == "json":
        return json.dumps({"sets": [list(s.elements) for s in instance.sets]})
    raise FormatError(f"unknown format {format!r}")


def generate_random(universe_n: int, m: int, p3: float, seed: int) -> Instance:
    """Generate ``m`` distinct random sets over a universe of ``universe_n`` elements.

    Each set is independently a 3-set with probability ``p3``, else a 2-set;
    its elements are drawn uniformly without replacement.  Pure function of
    the arguments.  Elements are re-interned afterwards, so the result is
    canonical (ids dense in first-appearance order).
    """
    if universe_n < 3:
        raise FormatError("universe must have at least 3 elements")
    if m < 1:
        raise FormatError("need at least one set")
    if not 0.0 <= p3 <= 1.0:
        raise FormatError("p3 must be a probability")
    cap3, cap2 = comb(universe_n, 3), comb(universe_n, 2)
    limit = (cap3 if p3 == 1.0 else cap2 if p3 == 0.0 else cap2 + cap3)
    if m > limit:
        raise FormatError(f"cannot draw {m} distinct sets, only {limit} exist")

    rng = random.Random(seed)
    chosen: list[tuple[int, ...]] = []
    keys: set[frozenset[int]] = set()
    n3 = n2 = 0
    attempts = 0
    while len(chosen) < m:
        attempts += 1
        if attempts > 10_000 + 200 * m:
            raise FormatError("random generation stalled; universe too saturated")
        k = 3 if rng.random() < p3 else 2
        if k == 3 and n3 == cap3:
            k = 2
        elif k == 2 and n2 == cap2:
            k = 3
        elems = tuple(rng.sample(range(universe_n), k))
        if frozenset(elems) in keys:
            continue
        keys.add(frozenset(elems))
        chosen.append(elems)
        if k == 3:
            n3 += 1
        else:
            n2 += 1
    return _build(chosen)


def embed_3dm(triples: Sequence[tuple[object, object, object]]) -> Instance:
    """Embed a 3-dimensional matching instance as an all-3-set instance.

    Every triple over the disjoint parts X, Y, Z becomes a 3-set of weight 2,
    so an optimal packing of the result is an optimal matching with weights
    scaled by two.
    """
    xs = {t[0] for t in triples}
    ys = {t[1] for t in triples}
    zs = {t[2] for t in triples}
    if xs & ys or ys & zs or xs & zs:
        raise FormatError("parts of the 3DM instance must be disjoint")
    return _build([tuple(t) for t in triples])

