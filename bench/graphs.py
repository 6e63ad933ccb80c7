"""Fixed graph shapes the workloads are built from, and seeded labellings."""

from __future__ import annotations

import random
import string

# The 34 graphs on 5 vertices up to isomorphism, each in the labelling that is
# lexicographically least over all vertex permutations (selftest.py re-derives
# the list).  Search cost in pas and labelcover depends on the labelling, so
# the labelling is fixed and the seed only renames vertices in order.
FIVE_VERTEX_CLASSES = (
    (),
    ((0, 1),),
    ((0, 1), (0, 2)),
    ((0, 1), (2, 3)),
    ((0, 1), (0, 2), (0, 3)),
    ((0, 1), (0, 2), (1, 2)),
    ((0, 1), (0, 2), (1, 3)),
    ((0, 1), (0, 2), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2)),
    ((0, 1), (0, 2), (0, 3), (1, 4)),
    ((0, 1), (0, 2), (1, 2), (3, 4)),
    ((0, 1), (0, 2), (1, 3), (2, 3)),
    ((0, 1), (0, 2), (1, 3), (2, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4)),
    ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4)),
    ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
    ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
)

# Two disjoint edges and an isolated vertex: its value-oracle search alone runs
# about 30 s and its layered-value search about 17 s, longer than a whole run,
# so gap_oracles leaves it out.
SLOW_CLASS = ((0, 1), (2, 3))

# 2-colourable shapes on 5-6 vertices for nested_k32: (vertex count, edges).
NESTED_SHAPES = (
    (5, ((0, 1), (1, 2), (2, 3), (3, 4))),  # path P5
    (5, ((0, 1), (1, 2), (2, 3), (3, 0))),  # C4 plus an isolated vertex
    (5, tuple((a, b) for a in (0, 1) for b in (2, 3, 4))),  # K2,3
    (5, ((0, 1), (0, 2), (0, 3), (0, 4))),  # star K1,4
    (5, ((0, 1), (2, 3))),  # two edges and an isolated vertex
    (5, ((0, 1), (1, 2), (3, 4))),  # P3 plus an edge
    (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),  # path P6
    (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))),  # cycle C6
    (6, tuple((a, b) for a in (0, 1, 2) for b in (3, 4, 5))),  # K3,3
    (6, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))),  # star K1,5
    (6, ((0, 1), (2, 3), (4, 5))),  # perfect matching 3K2
    (6, ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5))),  # binary tree
    (6, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5))),  # C4 plus an edge
    (6, ((0, 1), (1, 2), (2, 3), (4, 5))),  # P4 plus an edge
)


def fresh_names(rng: random.Random, count: int) -> list:
    """count distinct five-letter variable names in sorted order; equal length
    keeps artifact sizes independent of the seed."""
    names = set()
    while len(names) < count:
        names.add("v" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    return sorted(names)
