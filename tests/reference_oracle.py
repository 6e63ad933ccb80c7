"""An independent value oracle: a backtracking search over (layer, subset)
slots that compares projections of partial-solution sets directly, with no
layered instance in between.  Tests use it as the reference for
pcspkit.csp_value_oracle, which must give the same answer wherever this one
finishes within its budget.

`check_consistent` is the consistency check as it was before it walked
chains depth first, unchanged: it enumerates every nested subset chain and
tests every pair of its members.  Tests require the same verdict and the
same first failing chain from pcspkit.check_consistent.

`_chain_order` is the chain search's variable order as it was before it kept
its counts up to date, unchanged: it scores every unplaced variable from its
chains at every step.  Tests require the same order and the same judged
chains from pcspkit.core.completion_order over the chains, as the chain
search calls it.

`enumerate_chains` and `chain_search` are the chain enumeration and the chain
search as they were before the search ran on integers, unchanged: the one
tests every variable of the next layer against every chain, and the other
reads a label cover's names and labels and sums each option's image from its
atoms.  `layered_value` runs that search at widths 1 to max_d, as the layered
value did.  Tests require the same chains, the same value and witness, and
the same budget refusal from pcspkit."""

import itertools
from typing import Mapping, Optional, Sequence

from pcspkit.core import DEFAULT_BUDGET, Instance, RelationalStructure, all_solutions, backtrack
from pcspkit.errors import InputError, ResourceError
from pcspkit.labelcover import DAssignment, LayeredValueResult, LlcInstance, _width_options
from pcspkit.pas import ConsistencyResult, PasSequence, _proj


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


def check_consistent(seq: PasSequence) -> ConsistencyResult:
    """For every nested subset chain there must be a pair i < j whose entries
    meet under projection.  Returns a violating chain on failure."""
    systems = seq.systems
    arities = seq.arities
    v = systems[0].variables

    def chains(prefix):
        i = len(prefix)
        if i == len(systems):
            yield tuple(prefix)
            return
        pool = v if i == 0 else prefix[-1]
        for u in itertools.combinations(pool, arities[i]):
            yield from chains(prefix + [u])

    for chain in chains([]):
        if not _chain_has_agreement(systems, chain):
            return ConsistencyResult(False, chain)
    return ConsistencyResult(True, None)


def _chain_has_agreement(systems, chain) -> bool:
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            ui, uj = chain[i], chain[j]
            down = {_proj(g, ui, uj) for g in systems[i].entries[ui]}
            if down & systems[j].entries[uj]:
                return True
    return False


def _chain_order(inst: LlcInstance, sizes: Mapping) -> tuple:
    """The search order, fixed before the search starts, and per step the
    chains whose last variable is set there.

    Next comes the variable that completes the most chains among those already
    placed; ties go to the one touching the most partly placed chains, then to
    the fewest options (`sizes`), then to layer order.
    """
    names = [x for layer in inst.layers for x in layer]
    chains = enumerate_chains(inst)
    member_of = {x: [c for c in chains if x in c] for x in names}
    placed = dict.fromkeys(chains, 0)

    def priority(n):
        mine = member_of[names[n]]
        completes = sum(placed[c] == len(c) - 1 for c in mine)
        touches = sum(placed[c] > 0 for c in mine)
        return completes, touches, -sizes[names[n]], -n

    left = set(range(len(names)))
    order, judged_at = [], []
    while left:
        n = max(left, key=priority)
        left.remove(n)
        for c in member_of[names[n]]:
            placed[c] += 1
        order.append(names[n])
        judged_at.append([c for c in member_of[names[n]] if placed[c] == len(c)])
    return order, judged_at


def enumerate_chains(inst: LlcInstance) -> tuple:
    """All cross-layer tuples with every pairwise constraint present, in
    lexicographic layer order."""
    chains = [()]
    for layer in inst.layers:
        chains = [
            c + (x,) for c in chains for x in layer if all((p, x) in inst.constraints for p in c)
        ]
    return tuple(chains)


def layered_value(inst: LlcInstance, max_d: int, budget: int = DEFAULT_BUDGET):
    """Smallest d <= max_d admitting a d-assignment that weakly satisfies every
    chain, found by exhaustive backtracking."""
    if inst.has_empty_domain:
        return LayeredValueResult(None, None)
    for d in range(1, max_d + 1):
        chosen = chain_search(inst, d, budget)
        if chosen is not None:
            return LayeredValueResult(d, DAssignment(chosen))
    return LayeredValueResult(None, None)


def chain_search(inst: LlcInstance, d: int, budget: int) -> Optional[dict]:
    """A d-assignment weakly satisfying every chain, or None.

    `core.backtrack` sets the variables, those with fewer options first among
    ties, tries each variable's options in order, and judges a chain as soon
    as its last variable is set.  Options are bitmasks over domain indices;
    per constraint, each source option maps to the bitmask of its image.
    """
    names = list(inst.domains)  # in layer order
    item = {x: i for i, x in enumerate(names)}
    widths = {n: _width_options(n, d, budget) for n in set(map(len, inst.domains.values()))}
    options = [widths[len(inst.domains[x])] for x in names]  # shared by equal sizes
    images = {}
    for (x, y), psi in inst.constraints.items():
        bit = {b: 1 << i for i, b in enumerate(inst.domains[y])}
        to = [bit[psi[a]] for a in inst.domains[x]]
        images[x, y] = {
            opt: sum({t for a, t in enumerate(to) if opt >> a & 1}) for opt in options[item[x]]
        }
    checks = [
        (tuple(map(item.__getitem__, chain)), _weakly(chain, images))
        for chain in enumerate_chains(inst)
    ]
    picked = next(
        backtrack(options, checks, budget, "chain search", lambda i: -len(options[i])), None
    )
    if picked is None:
        return None
    return {
        x: {a for i, a in enumerate(inst.domains[x]) if opt >> i & 1}
        for x, opt in zip(names, picked)
    }


def _weakly(chain: tuple, images: Mapping):
    """The test of a chain on the options picked along it: does some
    constraint along it carry its source option's image into its target's?"""
    steps = itertools.combinations(enumerate(chain), 2)
    pairs = [(i, images[a, b], j) for (i, a), (j, b) in steps]

    def test(picks) -> bool:
        for i, image, j in pairs:
            if image[picks[i]] & picks[j]:
                return True
        return False

    return test
