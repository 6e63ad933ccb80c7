"""The long-code step built the long way: one cloud per subset variable over
all of C, one cloud per constraint over the constraint's graph, and a string
union-find that merges each variable-cloud position with the matching
projection position of every constraint cloud.  Tests use it as the reference
for pcspkit.longcode_reduce, whose output must be the same instance up to a
renaming of variables.

`merge_reps` is the integer union-find that longcode_reduce ran before the
layout derived its merge classes itself; tests compare the derived classes
with it, position name by position name.

`emit_every_cloud` is the emission loop longcode_reduce ran before it emitted
from the top clouds alone: it walks every cloud's matrices, lower clouds
included, and drops the repeated scopes.  Tests require the same instance
text from both, byte for byte.

`lift_every_cloud` is the loop lift_strict_solution ran before it lifted
through the top clouds alone: it sets every cloud, lower clouds included, to
the evaluation map at the encoded partial solution.  It checks every cloud's
restriction before it fills any class, as lift_strict_solution checks every
top's, so a non-solution is refused naming its first failing cloud, which is
always a top.  Tests require the same assignment, or the same refusal, from
both.  Its evaluation maps come from `reference_minion.dictator`, the
minor-route builder, so the comparison does not rest on the block-built
`pcspkit.dictator`."""

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from pcspkit.core import DEFAULT_BUDGET, Assignment, Constraint, Instance, PcspTemplate
from pcspkit.errors import InputError, InvariantError, ResourceError
from pcspkit.minion import _blocks, _minor_index, _row_index_sets
from pcspkit.reduction import AuxiliaryInstance, CloudLayout as DerivedLayout
from reference_minion import dictator


@dataclass(frozen=True)
class Cloud:
    id: str
    kind: str  # "variable" or "constraint"
    ref: str  # psi variable name, or "u>w" for a constraint
    index_labels: tuple  # coordinates of the positions: C labels or graph pairs

    def size(self, alphabet: int) -> int:
        return alphabet ** len(self.index_labels)


@dataclass(frozen=True)
class CloudLayout:
    """The clouds and the union-find representatives of merged positions."""

    target: PcspTemplate
    aux: Optional[AuxiliaryInstance]
    clouds: tuple
    reps: dict  # position name -> representative, identity entries omitted
    padding: tuple  # variables added to reach the top arity
    gadget: bool = False
    gadget_reason: str = ""

    def rep(self, position: str) -> str:
        return self.reps.get(position, position)

    def cloud_by_ref(self, kind: str, ref: str) -> Cloud:
        for cloud in self.clouds:
            if cloud.kind == kind and cloud.ref == ref:
                return cloud
        raise KeyError((kind, ref))

    def position(self, cloud: Cloud, index: int) -> str:
        width = len(str(cloud.size(len(self.target.strict.domain)) - 1))
        return f"{cloud.id}p{index:0{width}d}"


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x: str) -> str:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def _function_index(digits: Sequence[int], base: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def longcode_reduce(
    aux: AuxiliaryInstance,
    target: PcspTemplate,
    budget: int = DEFAULT_BUDGET,
    padding: Sequence[str] = (),
) -> tuple:
    """Emit the long-code instance of the target promise CSP plus its layout.

    Per variable cloud (positions: functions C -> A) and per constraint cloud
    (positions: functions on the constraint's graph) and per target relation,
    one constraint for every matrix of relation tuples indexed by the cloud's
    coordinates: the scope collects the positions given by the matrix rows.
    Merges identify each variable-cloud position f with the constraint-cloud
    position f composed with the corresponding graph projection; scopes then
    reference the lexicographically least member of each merge class.
    """
    a1 = target.strict.domain
    base = len(a1)
    digit = {atom: i for i, atom in enumerate(a1)}

    vwidth = len(str(max(len(aux.variables) - 1, 0)))
    ewidth = len(str(max(len(aux.constraints) - 1, 0)))
    clouds = []
    cloud_of_var = {}
    cloud_of_con = {}
    for n, var in enumerate(aux.variables):
        cloud = Cloud(
            id=f"u{n:0{vwidth}d}", kind="variable", ref=var.name, index_labels=aux.c_labels
        )
        clouds.append(cloud)
        cloud_of_var[var.name] = cloud
    for n, con in enumerate(aux.constraints):
        cloud = Cloud(
            id=f"e{n:0{ewidth}d}",
            kind="constraint",
            ref=f"{con.u}>{con.w}",
            index_labels=tuple(sorted((a, b) for a, b in con.cmap.items())),
        )
        clouds.append(cloud)
        cloud_of_con[(con.u, con.w)] = cloud

    total_positions = 0
    total_matrices = 0
    for cloud in clouds:
        size = cloud.size(base)
        total_positions += size
        for rel in target.strict.relations.values():
            total_matrices += len(rel.tuples) ** len(cloud.index_labels)
    if total_positions > budget or total_matrices > budget:
        raise ResourceError(
            f"cloud enumeration needs {total_positions} positions and "
            f"{total_matrices} matrices, over the budget of {budget}"
        )

    layout_stub = CloudLayout(
        target=target,
        aux=aux,
        clouds=tuple(clouds),
        reps={},
        padding=tuple(padding),
    )

    uf = _UnionFind()
    cpos = {c: i for i, c in enumerate(aux.c_labels)}
    for con in aux.constraints:
        econ = cloud_of_con[(con.u, con.w)]
        graph = econ.index_labels
        for side_idx, varname in ((0, con.u), (1, con.w)):
            vcloud = cloud_of_var[varname]
            perm = [cpos[pair[side_idx]] for pair in graph]
            for fidx, fdigits in enumerate(
                itertools.product(range(base), repeat=len(aux.c_labels))
            ):
                gidx = _function_index([fdigits[p] for p in perm], base)
                uf.union(
                    layout_stub.position(vcloud, fidx), layout_stub.position(econ, gidx)
                )

    emitted = set()
    for cloud in clouds:
        nlabels = len(cloud.index_labels)
        for rel_name, rel in sorted(target.strict.relations.items()):
            cols = rel.sorted_tuples
            for matrix in itertools.product(cols, repeat=nlabels):
                scope = []
                for row in range(rel.arity):
                    digits = [digit[matrix[c][row]] for c in range(nlabels)]
                    pos = layout_stub.position(cloud, _function_index(digits, base))
                    scope.append(uf.find(pos))
                emitted.add((rel_name, tuple(scope)))

    roots = set()
    for cloud in clouds:
        size = cloud.size(base)
        for idx in range(size):
            roots.add(uf.find(layout_stub.position(cloud, idx)))

    reps = {x: uf.find(x) for x in uf.parent}
    reps = {x: r for x, r in reps.items() if x != r}
    layout = CloudLayout(
        target=target,
        aux=aux,
        clouds=tuple(clouds),
        reps=reps,
        padding=tuple(padding),
    )
    instance = Instance(
        sorted(roots),
        [Constraint(scope, rel_name) for rel_name, scope in sorted(emitted)],
    )
    return instance, layout


def merge_reps(aux: AuxiliaryInstance, target: PcspTemplate) -> dict:
    """Position name -> the least position name of its merge class, identity
    entries omitted.  One cloud per subset variable over its own labels, and
    a constraint u -> w identifies position g of w with position g o pi of u."""
    base = len(target.strict.domain)
    width = len(str(max(len(aux.variables) - 1, 0)))
    offset = {}
    names = []
    for n, var in enumerate(aux.variables):
        size = base ** len(var.labels())
        offset[var.name] = len(names)
        names.extend(f"u{n:0{width}d}p{i:0{len(str(size - 1))}d}" for i in range(size))

    parent = list(range(len(names)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    labels = {var.name: var.labels() for var in aux.variables}
    for con in aux.constraints:
        if con.u == con.w:  # two layers of one arity: the identity map identifies nothing
            continue
        u, w = offset[con.u], offset[con.w]
        for gidx, fidx in enumerate(_minor_index(base, labels[con.u], con.cmap, labels[con.w])):
            ru, rw = find(u + fidx), find(w + gidx)
            if ru != rw:
                parent[max(ru, rw)] = min(ru, rw)

    roots = [find(x) for x in range(len(names))]
    return {names[x]: names[r] for x, r in enumerate(roots) if x != r}


def emit_every_cloud(aux: AuxiliaryInstance, target: PcspTemplate) -> Instance:
    """The long-code instance from every cloud's matrices: per cloud and per
    target relation, the scope of each matrix of relation tuples is its rows'
    class numbers (`pcspkit.CloudLayout.classes`, every cloud filled), kept once."""
    layout = DerivedLayout(target=target, aux=aux, padding=())
    scopes, none = {rel_name: {} for rel_name in target.strict.relations}, itertools.repeat(None)
    for cloud, start, end in zip(layout.clouds, layout.offsets, layout.offsets[1:]):
        position = layout.classes[start:end].tolist().__getitem__
        for rel_name, _, head, tail in _row_index_sets(target, len(cloud.index_labels)):
            for rows in _blocks(head, tail):
                scopes[rel_name].update(zip(zip(*[map(position, r) for r in rows]), none))
    relation_names, sorted_scopes = [], []
    for rel_name in sorted(scopes):
        relation_names += [rel_name] * len(scopes[rel_name])
        sorted_scopes += sorted(scopes[rel_name])
    return Instance._of(layout.names, tuple(relation_names), tuple(sorted_scopes))


def lift_every_cloud(h, layout: DerivedLayout) -> Assignment:
    """The canonical strict solution from every cloud: each cloud's positions,
    in classes (`pcspkit.CloudLayout.classes`, every cloud filled), take the
    evaluation map at the restriction of h to the cloud's subset."""
    if layout.gadget:
        raise InputError("cannot lift through a gadget layout")
    aux, hmap = layout.aux, dict(h)
    for x in aux.source.variables:
        if x not in hmap:
            raise InputError(
                f"the strict solution is missing variable {x!r}; it must cover the source "
                f"and the padding variables listed in layout.padding {list(layout.padding)}"
            )
    coordinates = []
    for var in aux.variables:  # every cloud is checked before any class is filled
        restriction = tuple(hmap[x] for x in var.subset)
        if restriction not in var.solutions:
            raise InputError(f"assignment is not a partial solution on {var.name}")
        coordinates.append(var.solutions.index(restriction))
    values, names, a1 = {}, layout.names, layout.target.strict.domain
    for var, c, start, end in zip(aux.variables, coordinates, layout.offsets, layout.offsets[1:]):
        evaluation = dictator(var.labels(), a1, c)
        for number, value in zip(layout.classes[start:end], evaluation.table):
            if values.setdefault(names[number], value) != value:
                raise InvariantError("merge classes received clashing lifted values")
    return Assignment._of(values, side="strict")
