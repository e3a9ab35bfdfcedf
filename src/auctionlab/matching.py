"""Deterministic maximum bipartite matching (Kuhn's augmenting paths).

Used by the transversal-matroid oracle, basis exchange bijections, and the
threshold matching between tentative winners and displaced agents.  The
adjacency lists are consumed in the order given, so callers control
tie-breaking by pre-sorting.
"""
from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence


def maximum_bipartite_matching(
    left: Sequence[Hashable],
    adjacency: Mapping[Hashable, Iterable[Hashable]],
) -> dict[Hashable, Hashable]:
    """Return a maximum matching as a left -> right mapping.

    First pass matches each left vertex to its first free neighbour, then
    augmenting paths grow the matching; both passes scan in input order, so
    the result is deterministic.
    """
    match_left: dict[Hashable, Hashable] = {}
    match_right: dict[Hashable, Hashable] = {}

    for u in left:
        for v in adjacency.get(u, ()):
            if v not in match_right:
                match_left[u] = v
                match_right[v] = u
                break

    def augment(u, visited: set) -> bool:
        for v in adjacency.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            if v not in match_right or augment(match_right[v], visited):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in left:
        if u not in match_left:
            augment(u, set())

    return match_left
