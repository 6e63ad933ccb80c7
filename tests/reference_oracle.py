"""An independent value oracle: a backtracking search over (layer, subset)
slots that compares projections of partial-solution sets directly, with no
layered instance in between.  Tests use it as the reference for
pcspkit.csp_value_oracle, which must give the same answer wherever this one
finishes within its budget."""

import itertools
from typing import Sequence

from pcspkit.core import DEFAULT_BUDGET, Instance, RelationalStructure, all_solutions
from pcspkit.errors import InputError, ResourceError
from pcspkit.pas import _proj


def csp_value_oracle(
    phi: Instance,
    side: RelationalStructure,
    k: Sequence[int],
    d: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Exact decision: does a consistent sequence with arities `k`, entries
    drawn from partial solutions of phi, and entry sizes at most d exist?

    Enumerates candidate sequences by backtracking over (position, subset)
    slots in layer-major order, pruning a branch as soon as some fully decided
    chain admits no agreeing pair.
    """
    k = tuple(int(x) for x in k)
    if any(a < b for a, b in zip(k, k[1:])):
        raise InputError(f"arities {list(k)} must be non-increasing")
    v = phi.variables
    if k[0] > len(v):
        raise InputError("top arity exceeds the number of variables")

    partials = {}
    for size in sorted(set(k)):
        for u in itertools.combinations(v, size):
            sols = all_solutions(phi.induced(u), side, budget=budget)
            partials[u] = tuple(tuple(s.mapping[x] for x in u) for s in sols)

    slots = []
    for i, size in enumerate(k):
        for u in itertools.combinations(v, size):
            slots.append((i, u))

    candidates = []
    for i, u in slots:
        pool = partials[u]
        if not pool:
            return False
        options = [
            frozenset(combo)
            for size in range(1, min(d, len(pool)) + 1)
            for combo in itertools.combinations(pool, size)
        ]
        if len(options) > budget:
            raise ResourceError(f"value oracle slot with over {budget} candidate entries")
        candidates.append(options)

    slot_index = {su: n for n, su in enumerate(slots)}
    chains = []
    r = len(k) - 1

    def build(prefix):
        if len(prefix) == r + 1:
            chains.append(tuple(prefix))
            return
        pool = v if not prefix else prefix[-1]
        for u in itertools.combinations(pool, k[len(prefix)]):
            build(prefix + [u])

    build([])
    # A chain can only be judged once its last slot (layer-major order) is set.
    finish_at = {}
    for chain in chains:
        last = max(slot_index[(i, u)] for i, u in enumerate(chain))
        finish_at.setdefault(last, []).append(chain)

    chosen = [None] * len(slots)
    visited = [0]

    def consistent_chain(chain) -> bool:
        for i in range(len(chain)):
            gi = chosen[slot_index[(i, chain[i])]]
            for j in range(i + 1, len(chain)):
                gj = chosen[slot_index[(j, chain[j])]]
                down = {_proj(g, chain[i], chain[j]) for g in gi}
                if down & gj:
                    return True
        return False

    def search(n) -> bool:
        if n == len(slots):
            return True
        for option in candidates[n]:
            visited[0] += 1
            if visited[0] > budget:
                raise ResourceError(
                    f"value oracle visited over {budget} candidate entries"
                )
            chosen[n] = option
            if all(consistent_chain(c) for c in finish_at.get(n, ())):
                if search(n + 1):
                    return True
        chosen[n] = None
        return False

    return search(0)
