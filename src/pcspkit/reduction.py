"""Instance-level reductions between promise CSPs.

The pipeline has two stages.  First the source instance is rewritten over its
bounded-size variable subsets: one variable per subset, labelled by the indices
of its partial solutions, so that the constraints become the restriction maps
between those indices.  Second comes the long-code step, emitted as a minor
condition: every subset variable gets a cloud of positions indexed by the
functions from its own labels to A, each cloud is constrained to behave like a
polymorphism of the target, and a constraint u -> w with map pi identifies
position g of w with position g o pi of u, so that the function at w is the
minor of the function at u along pi.

The decoder walks the same data backwards: cloud functions are checked
against the minor condition, re-indexed by partial solutions, pushed through
a set-valued chain-preserving table, and assembled into a sequence of partial
assignment systems from which the extraction machinery recovers a solution.
The subset instance is fixed by the padded source, the strict side and k, so
a layout records those and its reader rebuilds the instance with
`build_auxiliary`; decoding refuses a source or strict side that differs.
The identification classes are fixed by the subset instance and the target,
so the layout derives them once from the top-layer clouds and names each
once (`CloudLayout.names`); emission and lifting read the top clouds alone;
reading fills a lower cloud's classes (`CloudLayout.classes`) on demand.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property, partial
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .core import (
    Assignment,
    DEFAULT_BUDGET,
    Instance,
    PcspTemplate,
    RelationalStructure,
    _count_text,
    _payload_field,
    _restriction_maps,
    _subset_checks,
    brute_force_solve,
    evaluate,
    partial_solution_table,
)
from .errors import (
    InputError,
    InvariantError,
    PromiseViolationError,
    ResourceError,
    StructuralError,
)
from .minion import (
    FiniteFunction,
    LazyPolymorphismSlice,
    _blocks,
    _index_typecode,
    _minor_index,
    _row_index_sets,
    dictator,
    minor,
    tuple_label,
)
from .pas import (
    GapParameters,
    Pas,
    PasSequence,
    check_consistent,
    extract_solution,
    gap_parameters,
)

PAD_PREFIX = "~pad"


@dataclass(frozen=True)
class PsiVariable:
    name: str
    subset: tuple
    layers: tuple
    solutions: tuple  # partial solutions as value tuples, lexicographic

    def labels(self) -> tuple:
        """The variable's labels: the indices of its partial solutions."""
        return tuple(range(len(self.solutions)))


@dataclass(frozen=True)
class PsiConstraint:
    u: str
    w: str
    cmap: dict  # solution index on u -> index of its restriction on w


@dataclass(frozen=True)
class AuxiliaryInstance:
    """The subset instance: variables are subsets of the source variables,
    labelled by the indices of their partial solutions, and constraints are
    the restriction maps between those indices."""

    k: tuple
    source: Instance  # the (padded) source instance the subsets are taken from
    strict: RelationalStructure  # the strict side the partial solutions solve
    variables: tuple  # PsiVariable, first-occurrence order
    constraints: tuple  # PsiConstraint

    @cached_property
    def _by_name(self) -> dict:
        return {var.name: var for var in self.variables}

    def variable(self, name: str) -> PsiVariable:
        return self._by_name[name]


def build_auxiliary(
    phi: Instance,
    strict_side: RelationalStructure,
    k: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> AuxiliaryInstance:
    """Rewrite phi over its k_i-subsets, each labelled by the indices of its
    partial solutions, with the restriction maps between nested subsets
    (`core._restriction_maps`, shared with the label cover reduction) as
    constraints.  An empty partial-solution set is a broken promise and is
    rejected.
    """
    k = tuple(int(x) for x in k)
    solutions = partial_solution_table(phi, strict_side, k, budget=budget)
    for u, sols in solutions.items():
        if not sols:
            raise PromiseViolationError(
                f"no partial solution on subset {tuple_label(u)}; "
                "the strict side is unsolvable"
            )

    variables = {
        u: PsiVariable(
            name=tuple_label(u),
            subset=u,
            layers=tuple(i for i, ki in enumerate(k) if ki == len(u)),
            solutions=sols,
        )
        for u, sols in solutions.items()
    }

    maps = _restriction_maps(solutions, k)
    constraints = [
        PsiConstraint(variables[u].name, variables[w].name, dict(enumerate(maps[u, w])))
        for u, w in sorted(maps)
    ]

    return AuxiliaryInstance(
        k=k,
        source=phi,
        strict=strict_side,
        variables=tuple(variables.values()),
        constraints=tuple(constraints),
    )


# -- clouds and the long-code step ---------------------------------------------

LAYOUT_FORMAT = 5


@dataclass(frozen=True)
class Cloud:
    id: str
    ref: str  # subset variable name
    index_labels: tuple  # the variable's own labels, the coordinates of its positions

    def size(self, alphabet: int) -> int:
        return alphabet ** len(self.index_labels)


@dataclass(frozen=True)
class CloudLayout:
    """Everything the decoder needs: the subset instance and the target.

    The payload records only what the subset instance is built from (the
    padded source, the strict side and k); `from_payload` rebuilds it with
    `build_auxiliary` under the caller's budget, and prices every cloud's
    positions and matrices against that budget, since a decode checks every
    cloud's function for membership.  The clouds, their integer positions
    (`offsets`), the classes the minor conditions identify (`classes`) and
    one name per class (`names`) are derived.

    Every subset lies in a top-layer (k[0]) subset, restriction maps compose
    and the top clouds come first, so every class holds a top position, its
    least.  Top positions are joined only where a lower subset lies in two
    top subsets (never when the source has k[0] variables), a lower cloud
    reads its classes off its first top parent (`_minor_index`) when read,
    and constraints between two lower clouds identify nothing more.
    """

    target: PcspTemplate
    aux: Optional[AuxiliaryInstance]
    padding: tuple  # variables added to reach the top arity
    gadget: bool = False
    gadget_reason: str = ""

    @cached_property
    def clouds(self) -> tuple:
        """One cloud per subset variable, in the subset instance's order and
        indexed by the variable's own labels; none for a gadget."""
        variables = self.aux.variables if self.aux is not None else ()
        width = len(str(max(len(variables) - 1, 0)))
        return tuple(
            Cloud(id=f"u{n:0{width}d}", ref=var.name, index_labels=var.labels())
            for n, var in enumerate(variables)
        )

    @cached_property
    def offsets(self) -> tuple:
        """Each cloud's first integer position, then the total: the function
        with index i in a cloud sits at the cloud's offset plus i."""
        base = len(self.target.strict.domain)
        return tuple(itertools.accumulate((c.size(base) for c in self.clouds), initial=0))

    @cached_property
    def top_count(self) -> int:
        """How many top-layer (k[0]) clouds there are; they come first.  Read
        off the subset variables, so nothing is numbered to know it."""
        aux = self.aux
        return sum(len(var.subset) == aux.k[0] for var in aux.variables) if aux is not None else 0

    @cached_property
    def _numbering(self) -> tuple:
        """The top positions' classes and the least position of each, then per
        lower cloud its first top parent's positions and the index map's thunk."""
        aux, base = self.aux, len(self.target.strict.domain)
        variables = aux.variables if aux is not None else ()
        tops = {var.name for var in variables[: self.top_count]}
        top = self.offsets[self.top_count]
        at = dict(zip((c.ref for c in self.clouds), map(range, self.offsets, self.offsets[1:])))
        reads = {}  # a lower variable -> per top subset holding it, its cloud and index map
        for con in aux.constraints if variables else ():
            if con.u in tops and con.w not in tops:
                args = aux.variable(con.u).labels(), con.cmap, aux.variable(con.w).labels()
                reads.setdefault(con.w, []).append((at[con.u], partial(_minor_index, base, *args)))
        parent = {}  # a joined top position -> a smaller one; roots are absent

        def find(x: int) -> int:
            while x in parent:  # path halving: x points at its grandparent, then moves there
                parent[x] = x = parent.get(parent[x], parent[x])
            return x

        for (u, index), *others in reads.values():  # a lower subset in several tops joins them
            first = index() if others else ()
            for v, other in others:
                for a, b in zip(map(u.__getitem__, first), map(v.__getitem__, other())):
                    a, b = find(a), find(b)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        # kept with the layout: the narrowest unsigned ints that hold every class number
        classes, least = array(_index_typecode(top), range(top)), range(top)
        if parent:  # the roots in order, then each joined position after its smaller parent
            least = [x for x in least if x not in parent]
            for number, x in enumerate(least):
                classes[x] = number
            for x in sorted(parent):
                classes[x] = classes[parent[x]]
        return classes, least, [reads[ref][0] for ref in list(at)[self.top_count :]]

    @cached_property
    def classes(self) -> array:
        """Per integer position, the number of its identification class, numbered
        in the order of the classes' least positions.  A constraint u -> w with
        map pi identifies position g of w with g o pi of u, the index `minor` reads.
        Lower clouds are filled here, on the first read by a reader
        (`read_cloud_functions`, `reps`), never by the reduction or the lift."""
        top, _, lower = self._numbering
        classes = array(top.typecode, top) if lower else top  # no lower cloud, no copy
        for u, index in lower:
            classes.extend(map(top[u.start : u.stop].__getitem__, index()))
        return classes

    @cached_property
    def names(self) -> tuple:
        """One name per class, its least position's: an instance or an
        assignment names only these.  Made once per layout.  A cloud whose
        every position is the least of its class (the first top cloud, and
        every top cloud the join leaves alone) is named from numeral blocks
        (`_numerals`).  Any other cloud formats each kept name on its own: a
        lower cloud keeps none of its positions (on the r=2 layouts, none of
        65,536) and a joined top cloud only part, so the whole cloud's
        numerals would be made mostly for nothing."""
        names = []
        for prefix, width, start, end, kept in self._positions():
            if len(kept) == end - start:
                names += _numerals(prefix, width, end - start)
            else:
                fmt = f"{prefix}%0{width}d"
                names += map(fmt.__mod__, map(operator.sub, kept, itertools.repeat(start)))
        return tuple(names)

    @property
    def reps(self) -> Mapping:
        """Position name -> its class's least position, identity entries omitted."""
        names, classes, reps = self.names, self.classes, {}
        for prefix, width, start, end, kept in self._positions():
            if len(kept) < end - start:  # else every position is the least of its class
                fmt = f"{prefix}%0{width}d"
                for x in itertools.filterfalse(set(kept).__contains__, range(start, end)):
                    reps[fmt % (x - start)] = names[classes[x]]
        return MappingProxyType(reps)

    def _positions(self):
        """Per cloud, its name prefix and index width, first and end positions
        and least positions of classes."""
        least = self._numbering[1]
        for cloud, start, end in zip(self.clouds, self.offsets, self.offsets[1:]):
            kept = least[bisect_left(least, start) : bisect_left(least, end)]
            yield f"{cloud.id}p", len(str(end - start - 1)), start, end, kept

    def to_payload(self) -> dict:
        payload = {
            "format": LAYOUT_FORMAT,
            "target": self.target.to_payload(),
            "gadget": self.gadget,
            "gadget_reason": self.gadget_reason,
            "padding": list(self.padding),
        }
        if self.aux is not None:
            payload["aux"] = {
                "source": self.aux.source.to_payload(),
                "strict": self.aux.strict.to_payload(),
                "k": list(self.aux.k),
            }
        return payload

    @staticmethod
    def from_payload(payload: Mapping, budget: int = DEFAULT_BUDGET) -> "CloudLayout":
        # Older layouts carried the subset instance itself, clouds over a
        # global label set, its size, or the merge classes; reading one as
        # this format would misplace positions or pass over a stored field.
        found = payload.get("format") if isinstance(payload, Mapping) else None
        if found != LAYOUT_FORMAT:
            raise InputError(
                f"layout format {found!r} is not the supported format {LAYOUT_FORMAT}; "
                "write the layout again with reduce pcsp"
            )
        field = partial(_payload_field, payload, "")
        target = PcspTemplate.from_payload(field("target", Mapping))
        padding = field("padding", list)
        gadget, gadget_reason = field("gadget", bool), field("gadget_reason", str)
        aux = None
        if not gadget or "aux" in payload:  # only a gadget has no subset instance
            aux_field = partial(_payload_field, field("aux", Mapping), "aux")
            phi = Instance.from_payload(aux_field("source", Mapping), "aux.source")
            strict = RelationalStructure.from_payload(aux_field("strict", Mapping), "aux.strict")
            k = aux_field("k", list)
            if not k or not all(type(x) is int and x > 0 for x in k):
                raise InputError("aux.k: expected a nonempty list of positive integers")
            _price_lattice(phi, strict, k, budget)
            try:
                aux = build_auxiliary(phi, strict, k, budget=budget)
            except (PromiseViolationError, StructuralError) as exc:
                raise InputError(f"aux does not build a subset instance: {exc}") from exc
        layout = CloudLayout(target, aux, tuple(padding), gadget, gadget_reason)
        _price_clouds(layout, budget, walked=len(layout.clouds))  # a decode checks every cloud
        return layout


@cache
def _tails(width: int) -> tuple:
    """Every numeral of `width` digits, zero-padded, in order; at most 1,000."""
    return tuple("%0*d" % (width, i) for i in range(10**width))


def _numerals(prefix: str, width: int, count: int) -> itertools.islice:
    """`f"{prefix}%0{width}d" % i` for i in range(count), at most 10**width:
    a head per thousand, formatted once, joined in C with each tail of up
    to three digits from `_tails`."""
    if width <= 3:
        heads = [prefix]
    else:
        heads = ["%s%0*d" % (prefix, width - 3, q) for q in range(-(-count // 1000))]
    return itertools.islice(map("".join, itertools.product(heads, _tails(min(width, 3)))), count)


def _price_clouds(layout: CloudLayout, budget: int, walked: int) -> None:
    """Refuse a layout whose clouds hold more positions, or whose first
    `walked` clouds more matrices of strict relation tuples, than the budget
    admits.  `classes` fills every cloud.  `longcode_reduce` builds the top
    clouds' matrices alone, but a decode checks every cloud's function for
    membership, and `is_polymorphism` walks all of that cloud's matrices."""
    relations = layout.target.strict.relations.values()
    total_matrices = sum(
        len(rel.tuples) ** len(cloud.index_labels)
        for cloud in layout.clouds[:walked]
        for rel in relations
    )
    if layout.offsets[-1] > budget or total_matrices > budget:
        raise ResourceError(
            f"cloud enumeration needs {_count_text(layout.offsets[-1])} positions and "
            f"{_count_text(total_matrices)} matrices, over the budget of {budget}"
        )


def longcode_reduce(
    aux: AuxiliaryInstance,
    target: PcspTemplate,
    budget: int = DEFAULT_BUDGET,
    padding: Sequence[str] = (),
) -> tuple:
    """Emit the long-code instance of the target promise CSP plus its layout.

    Every subset variable gets one cloud whose positions are the functions
    from its own labels to A, in mixed-radix order.  Per cloud and per target
    relation, one constraint for every matrix of relation tuples indexed by
    the cloud's labels: its scope is the positions of the matrix rows, the
    indices `is_polymorphism` looks up.  A constraint u -> w with map pi is
    the minor condition F_w = F_u minored along pi, which identifies
    positions of the two clouds (`CloudLayout.classes`).  The instance has
    one variable per identification class, named after its least position.
    """
    layout = CloudLayout(target=target, aux=aux, padding=tuple(padding))
    _price_clouds(layout, budget, walked=layout.top_count)

    # Only the top clouds, which come first, emit: the scope of a matrix M in
    # a lower cloud w is that of M o pi in w's first top parent u, whose rows
    # are M's minored along pi, in the same classes, and u emits M o pi too.
    # Scopes index the classes.  Integer positions sort as their names do:
    # cloud ids share one width and follow the offsets, and indices are
    # zero-padded within a cloud, so the class names are sorted.  Each
    # relation's scopes are kept in the order `_blocks` makes them, the
    # matrices' mixed-radix order, so the sort below meets long sorted runs.
    # Repeats, which joined top positions make, are dropped as they come: as
    # dict keys paired with None, with no second dict per block.
    classes = layout._numbering[0]  # the top clouds' classes, lower ones unfilled
    scopes, none = {rel_name: {} for rel_name in target.strict.relations}, itertools.repeat(None)
    tops = layout.clouds[: layout.top_count]
    for cloud, start, end in zip(tops, layout.offsets, layout.offsets[1:]):
        position = classes[start:end].tolist().__getitem__  # scopes share its ints
        for rel_name, _, head, tail in _row_index_sets(target, len(cloud.index_labels)):
            for rows in _blocks(head, tail):
                scopes[rel_name].update(zip(zip(*[map(position, r) for r in rows]), none))

    relation_names, sorted_scopes = [], []
    for rel_name in sorted(scopes):
        relation_names += [rel_name] * len(scopes[rel_name])
        sorted_scopes += sorted(scopes[rel_name])
    instance = Instance._of(layout.names, tuple(relation_names), tuple(sorted_scopes))
    return instance, layout


# -- the full pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    instance: Instance
    layout: CloudLayout
    params: GapParameters


def _pad_instance(phi: Instance, up_to: int) -> tuple:
    if len(phi.variables) >= up_to:
        return phi, ()
    pads = tuple(f"{PAD_PREFIX}{i}" for i in range(up_to - len(phi.variables)))
    for p in pads:
        if p in phi.variables:
            raise InputError(f"variable {p!r} collides with padding names")
    return phi._onto(tuple(sorted(phi.variables + pads))), pads


def find_unsolvable_gadget(
    target: PcspTemplate, budget: int = DEFAULT_BUDGET
) -> Optional[Instance]:
    """Smallest instance of the target with an unsolvable relaxed side, if one
    exists among instances with at most two variables and three constraints."""
    for nvars in (1, 2):
        variables = [f"z{i}" for i in range(nvars)]
        pool = [
            (scope, name)
            for name, rel in sorted(target.strict.relations.items())
            for scope in itertools.product(variables, repeat=rel.arity)
        ]
        for count in (1, 2, 3):
            for combo in itertools.combinations(pool, count):
                inst = Instance(variables, combo)
                if brute_force_solve(inst, target.relaxed, budget=budget) is None:
                    return inst
    return None


def _pipeline_params(source: PcspTemplate, dr_table, phi: Instance) -> GapParameters:
    """The record both stages use, for the relaxed source domain, m the largest
    source arity and the table's (d, r): compact when phi has at most its k[0]
    variables, the only sources compact arities are shown to decode, else
    conservative, whose extension search always has room (`gap_parameters`)."""
    m = max(rel.arity for rel in source.strict.relations.values())
    record = (len(source.relaxed.domain), m, (dr_table.d,) * (dr_table.r + 1))
    params = gap_parameters(*record)
    return params if len(phi.variables) <= params.k[0] else gap_parameters(*record, "conservative")


def _price_lattice(phi: Instance, strict: RelationalStructure, k: Sequence, budget: int) -> None:
    """Refuse the k_i-subsets of phi padded to k[0] when the candidates that
    `partial_solution_table` tries, |A|^s on each of C(n, s) subsets per arity
    s, exceed the budget; a count stops once past it, so any k prices at once."""
    n, total = max(len(phi.variables), k[0]), 0
    for s in dict.fromkeys(k):
        count = len(strict.domain) ** min(s, budget.bit_length())  # |A|**s, or a power past it
        for j in range(min(s, n - s)):  # times C(n, s), a factor at a time
            if count > budget:
                break
            count = count * (n - j) // (j + 1)
        total += count
    if total > budget:
        raise ResourceError(
            f"the subset lattice of {n} variables at k={list(k)} exceeds the budget of {budget}"
        )


def pipeline_reduce(
    phi: Instance,
    source: PcspTemplate,
    target: PcspTemplate,
    dr_table,
    budget: int = DEFAULT_BUDGET,
) -> PipelineResult:
    """Reduce an instance of the source promise CSP to one of the target.

    The arity sequence comes from the extraction parameters for the relaxed
    source domain at the table's (d, r), in the mode phi's size picks
    (`_pipeline_params`), which the layout's `aux.k` records.  Instances
    smaller than the top arity are padded with unconstrained variables, and
    the subset lattice is priced before it is built.  A detected promise
    violation (the strict side has no partial solutions at some subset)
    certifies the input as a no-instance, which is mapped to a fixed
    relaxed-unsolvable gadget of the target.  A table that does not fit the
    templates is refused by its `fits`, an InputError.
    """
    dr_table.fits(source, target)
    params = _pipeline_params(source, dr_table, phi)
    _price_lattice(phi, source.strict, params.k, budget)
    padded, pads = _pad_instance(phi, params.k[0])
    try:
        aux = build_auxiliary(padded, source.strict, params.k, budget=budget)
    except PromiseViolationError as exc:
        gadget = find_unsolvable_gadget(target, budget=budget)
        if gadget is None:
            raise InputError(
                "the input is a no-instance but the target has no small "
                "relaxed-unsolvable gadget to map it to"
            ) from exc
        layout = CloudLayout(target, None, pads, gadget=True, gadget_reason=str(exc))
        return PipelineResult(gadget, layout, params)
    instance, layout = longcode_reduce(aux, target, budget=budget, padding=pads)
    return PipelineResult(instance, layout, params)


# -- decoding --------------------------------------------------------------------


def read_cloud_functions(
    assignment: Mapping[str, str], layout: CloudLayout, out_domain: Sequence[str]
) -> dict:
    """Collect, per subset variable, the function its cloud spells out under an
    assignment of the long-code instance."""
    if layout.gadget:
        raise InputError("a gadget layout has no clouds to read")
    try:
        values = list(map(assignment.__getitem__, layout.names))  # per class
    except KeyError as exc:
        raise InputError(f"assignment is missing position {exc.args[0]!r}") from None
    a1, out = layout.target.strict.domain, {}
    for cloud, start, end in zip(layout.clouds, layout.offsets, layout.offsets[1:]):
        table = [values[number] for number in layout.classes[start:end]]
        out[cloud.ref] = FiniteFunction(cloud.index_labels, a1, out_domain, table)
    return out


def lift_strict_solution(h, layout: CloudLayout) -> Assignment:
    """The canonical strict solution of the long-code instance induced by a
    strict solution of the (padded) source: every cloud becomes the evaluation
    map at the encoded partial solution.  Only the top clouds, which come
    first, are walked, on their top-layer classes: every class holds a top
    position, and a partial solution on a top subset restricts to one on
    each lower subset, whose evaluation map is the minor of the top one's.
    Every top's restriction is checked before any class is filled, so an
    assignment that is no partial solution is refused naming the first top
    that fails: every lower subset lies in a top and has fewer constraints."""
    if layout.gadget:
        raise InputError("cannot lift through a gadget layout")
    aux = layout.aux
    hmap = dict(h)
    for x in aux.source.variables:
        if x not in hmap:
            raise InputError(
                f"the strict solution is missing variable {x!r}; it must cover the source "
                f"and the padding variables listed in layout.padding {list(layout.padding)}"
            )
    tops, coordinates = aux.variables[: layout.top_count], []
    for var in tops:
        restriction = tuple(hmap[x] for x in var.subset)
        if restriction not in var.solutions:
            raise InputError(f"assignment is not a partial solution on {var.name}")
        coordinates.append(var.solutions.index(restriction))
    values, names, classes = {}, layout.names, layout._numbering[0]  # top clouds' classes
    a1 = layout.target.strict.domain
    for var, c, start, end in zip(tops, coordinates, layout.offsets, layout.offsets[1:]):
        evaluation = dictator(var.labels(), a1, c)
        for number, value in zip(classes[start:end], evaluation.table):
            if values.setdefault(names[number], value) != value:
                raise InvariantError("merge classes received clashing lifted values")
    # Classes are numbered by their least positions, met here in that order,
    # and their names sort as those positions do: `values` is in name order.
    return Assignment._of(values, side="strict")


def decode_relaxed_solution(
    s: Mapping[str, FiniteFunction],
    layout: CloudLayout,
    dr_table,
    phi: Instance,
    source: PcspTemplate,
) -> PasSequence:
    """Turn a solution of the subset instance over the lifted side into a
    sequence of partial assignment systems for the relaxed source.

    Every step the construction promises is re-verified here: each subset
    variable's function lives on its own labels and is a polymorphism of the
    target, every constraint holds as a minor, each decoded entry solves the
    subset's constraints (`_subset_checks`, on integer scopes), the value bound
    holds, and the final sequence is consistent.  Any breach aborts loudly.
    """
    if layout.gadget:
        raise InputError("a gadget layout cannot be decoded")
    aux = layout.aux
    padded, pads = _pad_instance(phi, aux.k[0])
    if pads != layout.padding:
        raise InputError("instance does not match the layout's padding record")
    if padded != aux.source or source.strict != aux.strict:
        raise InputError("instance or strict source side does not match the layout")

    # Each function is checked for membership once; the memo dies with this call.
    contains = cache(LazyPolymorphismSlice(layout.target).contains)
    functions: dict = {}
    for var in aux.variables:
        if var.name not in s:
            raise InputError(f"solution is missing subset variable {var.name!r}")
        if s[var.name].arity_set != var.labels():
            raise InputError(f"the function at {var.name} is not on the variable's labels")
        if not contains(s[var.name]):
            raise InputError(f"the function at {var.name} is not a polymorphism of the target")
        # Re-index from solution indices to partial-solution labels: a
        # bijective minor of a member, so it stays in the polymorphisms.
        functions[var.name] = minor(s[var.name], dict(enumerate(map(tuple_label, var.solutions))))
    for con in aux.constraints:
        if minor(s[con.u], con.cmap, target=aux.variable(con.w).labels()) != s[con.w]:
            raise InputError(
                f"constraint {con.u}->{con.w} is not satisfied in the lifted relation"
            )

    # Push through the table and evaluate on the partial-solution matrices.
    entries = [{} for _ in aux.k]
    index = dict(zip(padded.variables, range(len(padded.variables))))
    for var in aux.variables:
        t = functions[var.name]
        images = dr_table.image(t)  # raises InputError when t is not covered
        # rows[x] maps each partial solution (as an arity label) to its value at x.
        rows = {
            x: {tuple_label(g): g[var.subset.index(x)] for g in var.solutions}
            for x in var.subset
        }
        produced = set()
        for q in images:
            if q.arity_set != t.arity_set:
                raise StructuralError("table image changes the arity set")
            produced.add(tuple(q.apply(rows[x]) for x in var.subset))
        if len(produced) > dr_table.d:
            raise InvariantError("entry exceeds the table's width bound")
        # Numbered as in the sub-instance the subset induces.
        checks = _subset_checks(padded, source.relaxed, tuple(map(index.__getitem__, var.subset)))
        for x_tuple in produced:
            at = x_tuple.__getitem__
            check = [n for n, (scope, ok) in enumerate(checks) if tuple(map(at, scope)) not in ok]
            if check:
                raise InvariantError(
                    f"decoded entry at {var.name} violates relaxed constraints {check}"
                )
        for layer in var.layers:
            entries[layer][var.subset] = frozenset(produced)

    systems = [Pas(padded.variables, source.relaxed.domain, k, e) for k, e in zip(aux.k, entries)]
    seq = PasSequence(systems)
    cons = check_consistent(seq)
    if not cons:
        raise InvariantError(f"decoded sequence is inconsistent on chain {cons.chain}")
    return seq


def recover_source_solution(
    assignment: Mapping[str, str],
    layout: CloudLayout,
    dr_table,
    phi: Instance,
    source: PcspTemplate,
) -> Assignment:
    """Full completeness path: read the clouds of a relaxed solution of the
    long-code instance, decode them to a sequence of systems, extract an
    assignment, and verify it solves the relaxed source.  The parameter
    record is `pipeline_reduce`'s, picked by phi's size.  A table that does
    not fit the templates, or a layout whose `aux.k` is not that record's k
    (a table of another r, say), is refused before any cloud is read."""
    dr_table.fits(source, layout.target)
    params = _pipeline_params(source, dr_table, phi)
    if layout.aux is not None and layout.aux.k != params.k:
        raise InputError(
            f"layout k={list(layout.aux.k)} is not the pipeline's k={list(params.k)} for this table"
        )
    s = read_cloud_functions(assignment, layout, layout.target.relaxed.domain)
    seq = decode_relaxed_solution(s, layout, dr_table, phi, source)
    extraction = extract_solution(seq, params, params.m)
    solution = Assignment(extraction.assignment.restrict(phi.variables).mapping, side="relaxed")
    if evaluate(phi, source.relaxed, solution):
        raise InvariantError("recovered assignment fails the relaxed source instance")
    return solution
