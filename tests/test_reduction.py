"""The subset instance, the long-code step, the pipeline, and the decoder."""

import collections
import hashlib
import math
import itertools
import json
import re
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pcspkit as pk
from pcspkit import jsonio
from pcspkit.errors import InputError, InvariantError, PromiseViolationError, ResourceError
from pcspkit.reduction import _numerals, _pad_instance

import reference_longcode
from conftest import (
    ALLOWED_SETS,
    bipartite_instance,
    cycle_instance,
    triangle_instance,
    unary_instance,
)


@pytest.fixture(scope="module")
def ident22(t22):
    return pk.IdentityDrTable(t22, r=1)


def edge_instance():
    return pk.Instance(["x", "y"], [(("x", "y"), "neq")])


def path_instance():
    return pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq")])


def fork_instance():
    # x=y is forced, so the 2-subset solutions with x!=y extend to no 3-superset
    return pk.Instance(["x", "y", "z"], [(("x", "z"), "neq"), (("y", "z"), "neq")])


class TestBuildAuxiliary:
    def test_edge_at_minimal_arities(self, k2, t22):
        aux = pk.build_auxiliary(edge_instance(), k2, (2, 1))
        names = [v.name for v in aux.variables]
        assert set(names) == {"x,y", "x", "y"}
        top = aux.variable("x,y")
        assert top.solutions == (("0", "1"), ("1", "0"))
        assert [len(aux.variable(n).solutions) for n in ("x", "y")] == [2, 2]
        pairs = {(c.u, c.w) for c in aux.constraints}
        assert pairs == {("x,y", "x"), ("x,y", "y")}

    def test_constraint_maps_are_the_restrictions(self, k2):
        aux = pk.build_auxiliary(edge_instance(), k2, (2, 1))
        top = aux.variable("x,y")
        for con in aux.constraints:
            wvar = aux.variable(con.w)
            idx = top.subset.index(wvar.subset[0])
            for n, g in enumerate(top.solutions):
                assert con.cmap[n] == wvar.solutions.index((g[idx],))

    def test_equal_arities_give_reflexive_pair(self, k2):
        phi = pk.Instance(["a", "b"], [(("a", "b"), "neq")])
        aux = pk.build_auxiliary(phi, k2, (2, 2))
        assert [(c.u, c.w) for c in aux.constraints] == [("a,b", "a,b")]
        assert all(a == b for a, b in aux.constraints[0].cmap.items())

    def test_promise_violation_raises(self, k2):
        with pytest.raises(PromiseViolationError):
            pk.build_auxiliary(triangle_instance(), k2, (3, 2))

    def test_labels_are_the_solution_indices(self, k2):
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        aux = pk.build_auxiliary(phi, k2, (2, 1))
        assert aux.variable("x,y").labels() == (0, 1)
        assert aux.variable("x,z").labels() == (0, 1, 2, 3)  # unconstrained


class TestLongCode:
    def test_cloud_sizes(self, k2, t22):
        aux = pk.build_auxiliary(edge_instance(), k2, (2, 1))
        out, layout = pk.longcode_reduce(aux, t22)
        sizes = {c.ref: c.size(2) for c in layout.clouds}
        assert sizes["x,y"] == 4
        assert sizes["x"] == 4

    def test_the_returned_layout_keeps_its_position_names(self, k2, t22):
        # lifting and reading the returned layout reuse the names formatted
        # during the reduction instead of formatting them again
        _, layout = pk.longcode_reduce(pk.build_auxiliary(path_instance(), k2, (3, 2)), t22)
        assert "names" in vars(layout)
        assert layout.reps

    def test_strict_solution_restricted_to_cloud_is_a_polymorphism(self, k2, t22, ident22):
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        padded, _ = _pad_instance(path_instance(), result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, result.layout)
        assert pk.evaluate(result.instance, k2, lift) == []
        fns = pk.read_cloud_functions(lift.mapping, result.layout, k2.domain)
        assert all(pk.is_polymorphism(f, t22) for f in fns.values())

    def test_merge_classes_respect_minor_semantics(self, k2, t22, ident22):
        # under any strict solution the function at w is the minor of the
        # function at u along the constraint's map: at the pipeline's (4,4)
        # the only constraint is the identity self-constraint, at (3,2) the
        # 2-subsets sit below the 3-subset
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        nested = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)[1]
        padded, _ = _pad_instance(phi, result.params.k[0])
        for layout, source in ((result.layout, padded), (nested, phi)):
            h = pk.brute_force_solve(source, k2)
            lift = pk.lift_strict_solution(h, layout)
            fns = pk.read_cloud_functions(lift.mapping, layout, k2.domain)
            for con in layout.aux.constraints:
                target = layout.aux.variable(con.w).labels()
                assert pk.minor(fns[con.u], con.cmap, target=target) == fns[con.w]

    def test_output_is_brute_force_solvable_when_source_is(self, k2, t22, ident22):
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        assert pk.brute_force_solve(result.instance, k2) is not None

    @pytest.mark.parametrize("phi, k", [(edge_instance(), (2, 1)), (path_instance(), (3, 2))])
    def test_scopes_are_the_same_when_walked_block_by_block(self, monkeypatch, k2, t22, phi, k):
        # no desk input has a cloud large enough to reach the lazily walked
        # leading coordinates, so the block size is shrunk to reach them
        aux = pk.build_auxiliary(phi, k2, k)

        def emitted():
            instance, layout = pk.longcode_reduce(aux, t22)
            return [jsonio.canonical_dumps(x.to_payload()) for x in (instance, layout)]

        whole = emitted()
        monkeypatch.setattr(pk.minion, "_BLOCK", 3)
        assert emitted() == whole


    @pytest.mark.parametrize("phi, k", [(path_instance(), (3, 2)), (path_instance(), (3, 3))])
    def test_emission_builds_no_constraint_objects(self, monkeypatch, k2, t22, phi, k):
        # the scopes go to the instance as integers; `constraints` is a view
        # built on demand, which the patch sees
        aux = pk.build_auxiliary(phi, k2, k)
        built = []
        original = pk.Constraint.__new__

        def counted(cls, *args):
            built.append(args)
            return original(cls, *args)

        monkeypatch.setattr(pk.Constraint, "__new__", staticmethod(counted))
        instance, _ = pk.longcode_reduce(aux, t22)
        assert built == [] and instance.scopes
        assert len(instance.constraints) == len(built) == len(instance.scopes)

    def test_a_self_constraint_stays_in_the_subset_instance(self, k2, t22):
        # two layers of one arity pair every subset with itself through the
        # identity map; emission skips it, and the subset instance keeps it
        aux = pk.build_auxiliary(path_instance(), k2, (3, 3))
        assert [(con.u, con.w) for con in aux.constraints] == [("x,y,z", "x,y,z")]
        instance, layout = pk.longcode_reduce(aux, t22)
        assert layout.reps == {}
        assert len(instance.variables) == 2 ** len(aux.variables[0].solutions)


class TestPipeline:
    def test_identity_table_over_another_template_is_refused(self, monkeypatch, t22, k3):
        # refused before any subset or long-code work, naming the table
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started work on a table it must refuse")

        monkeypatch.setattr(pk.reduction, "build_auxiliary", no_work)
        monkeypatch.setattr(pk.reduction, "longcode_reduce", no_work)
        table = pk.IdentityDrTable(pk.PcspTemplate(k3, k3), r=1)
        with pytest.raises(InputError, match="^the identity table's template is not the target"):
            pk.pipeline_reduce(path_instance(), t22, t22, table)

    def test_identity_table_off_the_source_domains_is_refused(self, monkeypatch, t22, k3):
        # the (K3,K3) identity used to emit 6,561 variables for the (K2,K2)
        # path, and a relaxed solution using colour 2 failed at decode as an
        # InvariantError
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started work on a table it must refuse")

        monkeypatch.setattr(pk.reduction, "build_auxiliary", no_work)
        monkeypatch.setattr(pk.reduction, "longcode_reduce", no_work)
        t33 = pk.PcspTemplate(k3, k3)
        with pytest.raises(InputError, match="^the identity table's images are not over the source"):
            pk.pipeline_reduce(path_instance(), t22, t33, pk.IdentityDrTable(t33, r=1))

    def test_decoding_through_an_identity_table_off_the_source_domains_is_refused(
        self, monkeypatch, k2, k3, t22
    ):
        t33 = pk.PcspTemplate(k3, k3)
        phi = path_instance()
        _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t33)
        lift = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout)
        recoloured = {pos: "2" if v == "1" else v for pos, v in lift.mapping.items()}

        def no_read(*args, **kwargs):
            raise AssertionError("decoding read a cloud through a table it must refuse")

        monkeypatch.setattr(pk.reduction, "read_cloud_functions", no_read)
        with pytest.raises(InputError, match="^the identity table's images are not over the source"):
            pk.recover_source_solution(recoloured, layout, pk.IdentityDrTable(t33), phi, t22)

    @pytest.mark.parametrize(
        "function, image, message",
        [
            ("012", "012", "^the explicit table's function of arity .* not over the target"),
            ("01", "012", "^an image of the explicit table's function .* not over the source"),
        ],
        ids=["function-off-the-target", "image-off-the-source"],
    )
    def test_explicit_table_off_the_templates_is_refused(
        self, monkeypatch, t22, function, image, message
    ):
        # a table of K3 functions used to emit the path's 16 variables and
        # fail only at decode, as a table that does not cover a function
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started work on a table it must refuse")

        monkeypatch.setattr(pk.reduction, "build_auxiliary", no_work)
        monkeypatch.setattr(pk.reduction, "longcode_reduce", no_work)
        t = pk.dictator(("x",), function, "x")
        table = pk.ExplicitDrTable(1, 1, {t: (pk.dictator(("x",), image, "x"),)})
        with pytest.raises(InputError, match=message):
            pk.pipeline_reduce(path_instance(), t22, t22, table)

    @pytest.mark.parametrize(
        "function, image, message",
        [
            ("012", "012", "^the explicit table's function of arity .* not over the target"),
            ("01", "012", "^an image of the explicit table's function .* not over the source"),
        ],
        ids=["function-off-the-target", "image-off-the-source"],
    )
    def test_decoding_through_a_table_off_the_templates_is_refused(
        self, monkeypatch, t22, ident22, function, image, message
    ):
        # the table is refused before any cloud is read, not as a decoded
        # function it "does not cover"
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        h = pk.brute_force_solve(result.layout.aux.source, t22.strict)
        lift = pk.lift_strict_solution(h, result.layout)

        def no_read(*args, **kwargs):
            raise AssertionError("decoding read a cloud through a table it must refuse")

        monkeypatch.setattr(pk.reduction, "read_cloud_functions", no_read)
        t = pk.dictator(("x",), function, "x")
        table = pk.ExplicitDrTable(1, 1, {t: (pk.dictator(("x",), image, "x"),)})
        with pytest.raises(InputError, match=message):
            pk.recover_source_solution(lift.mapping, result.layout, table, path_instance(), t22)

    def test_solvable_edge_end_to_end(self, k2, t22, ident22):
        result = pk.pipeline_reduce(edge_instance(), t22, t22, ident22)
        assert not result.layout.gadget
        padded, _ = _pad_instance(edge_instance(), result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, result.layout)
        assert pk.evaluate(result.instance, k2, lift) == []

    def test_unsolvable_source_maps_to_gadget(self, k2, t22, ident22):
        result = pk.pipeline_reduce(triangle_instance(), t22, t22, ident22)
        assert result.layout.gadget
        assert pk.brute_force_solve(result.instance, k2) is None

    def test_compact_parameters_refuse_a_source_past_the_top_arity(self, k2, t22, ident22):
        # every 4-subset of the 5-cycle is 2-colourable, but k=(4,4) cannot
        # decode a 5-variable source: the conservative k=(9,4) pads it to 9,
        # and its one top subset, the whole cycle, has no partial solution
        result = pk.pipeline_reduce(cycle_instance(5), t22, t22, ident22)
        assert result.params.k == (9, 4) and result.layout.gadget
        assert pk.brute_force_solve(result.instance, k2) is None

    def test_gadget_layout_refuses_decoding(self, t22, ident22):
        result = pk.pipeline_reduce(triangle_instance(), t22, t22, ident22)
        with pytest.raises(InputError):
            pk.read_cloud_functions({}, result.layout, ("0", "1"))

    def test_provenance_metadata(self, t22, ident22):
        result = pk.pipeline_reduce(edge_instance(), t22, t22, ident22)
        assert result.params.k == (4, 4)
        assert result.layout.padding == ("~pad0", "~pad1")
        assert [var.labels() for var in result.layout.aux.variables] == [tuple(range(8))]


@pytest.fixture(scope="module")
def unary_template(unary_side):
    return pk.PcspTemplate(unary_side, unary_side)


@st.composite
def unary_sources(draw):
    """A source of 1-7 variables over the unary template: each variable
    fixed to 0 or 1, or to both (a no-instance), and at most two left free,
    so that a top cloud, padding included, has at most 2**8 positions."""
    n = draw(st.integers(1, 7))
    allowed = draw(st.lists(st.sampled_from(ALLOWED_SETS[:3]), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        allowed[i] = ALLOWED_SETS[3]
    return unary_instance([f"x{i}" for i in range(n)], allowed)


def _fixed_unary_source(n: int, free: int = 0) -> pk.Instance:
    allowed = [ALLOWED_SETS[3]] * free + [ALLOWED_SETS[1 + i % 2] for i in range(free, n)]
    return unary_instance([f"x{i}" for i in range(n)], allowed)


class TestSourcesPastTheTopArity:
    """A source with more variables than compact k[0] runs at the
    conservative record, which the layout's `aux.k` records."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(phi=unary_sources())
    @example(phi=_fixed_unary_source(7, free=2))
    def test_unary_sources_reduce_and_recover(self, unary_side, unary_template, phi):
        # compact k=(3,2) up to 3 variables, conservative k=(5,2) past them;
        # the gadget exactly for the no-instances, and otherwise the lift of
        # a strict solution recovers to a relaxed one
        table = pk.IdentityDrTable(unary_template, r=1)
        result = pk.pipeline_reduce(phi, unary_template, unary_template, table)
        assert result.params.k == ((3, 2) if len(phi.variables) <= 3 else (5, 2))
        h = pk.brute_force_solve(phi, unary_side)
        assert result.layout.gadget == (h is None)
        if h is not None:
            assert result.layout.aux.k == result.params.k
            pads = dict.fromkeys(result.layout.padding, "0")
            lift = pk.lift_strict_solution({**h.mapping, **pads}, result.layout)
            solution = pk.recover_source_solution(
                lift.mapping, result.layout, table, phi, unary_template
            )
            assert set(solution.mapping) == set(phi.variables)
            assert pk.evaluate(phi, unary_side, solution) == []

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_classes_are_the_union_find_of_the_emission(self, unary_template, n):
        # from 6 variables on there are several top subsets (6 and 21), and
        # the 2-subsets they share join their positions
        table = pk.IdentityDrTable(unary_template, r=1)
        phi = _fixed_unary_source(n, free=2)
        result = pk.pipeline_reduce(phi, unary_template, unary_template, table)
        assert result.params.k == (5, 2) and result.params.mode == "conservative"
        layout = result.layout
        tops = math.comb(max(n, 5), 5)
        assert [len(var.subset) for var in layout.aux.variables].count(5) == tops
        if n >= 6:
            assert len(layout.names) < layout.offsets[tops]
            assert dict(layout.reps) == reference_longcode.merge_reps(layout.aux, unary_template)


def _refuse_the_lattice(monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("the subset lattice was built")

    monkeypatch.setattr(pk.reduction, "partial_solution_table", unbuilt)


def path30_layout_payload(t22, ident22) -> dict:
    """A layout payload holding the 30-vertex path at k=[9, 4]: 14,307,150
    nine-subsets, so 7.3 billion candidate partial solutions."""
    payload = pk.pipeline_reduce(path_instance(), t22, t22, ident22).layout.to_payload()
    payload["aux"].update(source=_path(30).to_payload(), k=[9, 4])
    return payload


class TestLatticePricedBeforeItIsBuilt:
    LATTICE = r"^the subset lattice of 30 variables at k=\[9, 4\] exceeds the budget of 10000000$"

    def test_through_the_pipeline(self, monkeypatch, t22, ident22):
        _refuse_the_lattice(monkeypatch)
        with pytest.raises(ResourceError, match=self.LATTICE):
            pk.pipeline_reduce(_path(30), t22, t22, ident22)

    def test_through_a_layout_payload(self, monkeypatch, t22, ident22):
        payload = path30_layout_payload(t22, ident22)
        _refuse_the_lattice(monkeypatch)
        with pytest.raises(ResourceError, match=self.LATTICE):
            pk.CloudLayout.from_payload(payload)

    def test_the_count_is_exact(self, monkeypatch, t22, ident22):
        # the 9-vertex path at k=(9,4): 2**9 + C(9,4) * 2**4 = 2,528
        # candidates; at that budget the lattice is built and its clouds refused
        with pytest.raises(ResourceError, match="^cloud enumeration needs"):
            pk.pipeline_reduce(_path(9), t22, t22, ident22, budget=2528)
        _refuse_the_lattice(monkeypatch)
        with pytest.raises(ResourceError, match="exceeds the budget of 2527$"):
            pk.pipeline_reduce(_path(9), t22, t22, ident22, budget=2527)


class TestMatricesPricedWhereBuilt:
    """Positions are counted over every cloud, since `classes` fills them all.
    Matrices are counted over the top clouds alone when reducing, the only
    ones `longcode_reduce` builds, and over every cloud when a layout is read
    for a decode, which checks every cloud's function for membership."""

    def test_the_path_into_k3k3_at_k32(self, k2):
        # one top cloud with 2 labels: 9 positions and 6**2 = 36 matrices; the
        # lower clouds add 9 + 81 + 9 positions and 36 + 1,296 + 36 matrices
        k3 = pk.complete_graph(3)
        t33 = pk.PcspTemplate(k3, k3)
        aux = pk.build_auxiliary(path_instance(), k2, (3, 2))
        instance, layout = pk.longcode_reduce(aux, t33, budget=200)
        assert (len(instance.variables), len(instance.scopes)) == (9, 36)
        with pytest.raises(ResourceError, match="^cloud enumeration needs 108 positions and 36 "):
            pk.longcode_reduce(aux, t33, budget=107)
        payload = layout.to_payload()
        assert len(pk.CloudLayout.from_payload(payload, budget=1404).classes) == 108
        refusal = "^cloud enumeration needs 108 positions and 1404 matrices, over the budget of 1403$"
        with pytest.raises(ResourceError, match=refusal):
            pk.CloudLayout.from_payload(payload, budget=1403)


class TestDecode:
    def test_lift_decodes_to_restriction_systems(self, k2, t22, ident22):
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        padded, _ = _pad_instance(phi, result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, result.layout)
        fns = pk.read_cloud_functions(lift.mapping, result.layout, k2.domain)
        seq = pk.decode_relaxed_solution(fns, result.layout, ident22, phi, t22)
        for system in seq.systems:
            assert system == pk.pas_from_assignment(
                h.mapping, padded.variables, k2.domain, system.arity
            )

    def test_recover_source_solution(self, k2, t22, ident22):
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        padded, _ = _pad_instance(phi, result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, result.layout)
        solution = pk.recover_source_solution(
            lift.mapping, result.layout, ident22, phi, t22
        )
        assert pk.evaluate(phi, k2, solution) == []

    def test_every_relaxed_output_solution_decodes(self, k2, t22, ident22):
        # small enough to enumerate every relaxed solution of the output
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        solutions = pk.all_solutions(result.instance, k2, budget=10**7)
        assert solutions
        for sol in solutions[:6]:
            recovered = pk.recover_source_solution(
                sol.mapping, result.layout, ident22, phi, t22
            )
            assert pk.evaluate(phi, k2, recovered) == []

    def test_layout_payload_round_trip(self, t22, ident22):
        result = pk.pipeline_reduce(edge_instance(), t22, t22, ident22)
        loaded = pk.CloudLayout.from_payload(result.layout.to_payload())
        assert loaded.aux == result.layout.aux
        assert loaded.reps == result.layout.reps
        assert loaded.clouds == result.layout.clouds

    @pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, "5"])
    def test_layout_of_another_format_is_rejected(self, t22, ident22, fmt):
        payload = pk.pipeline_reduce(edge_instance(), t22, t22, ident22).layout.to_payload()
        assert payload["format"] == 5
        if fmt is None:
            del payload["format"]
        else:
            payload["format"] = fmt
        with pytest.raises(InputError):
            pk.CloudLayout.from_payload(payload)

    def test_layout_records_only_what_the_subset_instance_is_built_from(self, t22, ident22):
        payload = pk.pipeline_reduce(path_instance(), t22, t22, ident22).layout.to_payload()
        assert set(payload) == {"format", "target", "gadget", "gadget_reason", "padding", "aux"}
        assert set(payload["aux"]) == {"source", "strict", "k"}
        assert payload["aux"]["source"]["variables"] == ["x", "y", "z", "~pad0"]

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda aux: aux.update(k=["3", 2]), "aux.k: expected"),
            (lambda aux: aux.update(k=[]), "aux.k: expected"),
            (lambda aux: aux["source"]["constraints"][0].update(relation="eq"), "unknown relation"),
        ],
    )
    def test_recorded_inputs_that_build_nothing_are_input_errors(
        self, t22, ident22, change, message
    ):
        payload = pk.pipeline_reduce(path_instance(), t22, t22, ident22).layout.to_payload()
        change(payload["aux"])
        with pytest.raises(InputError, match=message):
            pk.CloudLayout.from_payload(payload)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda aux: aux["source"].pop("variables"), "aux.source.variables: missing"),
            (
                lambda aux: aux["source"]["constraints"][1].update(scope="yz"),
                "aux.source.constraints[1].scope: expected a list",
            ),
            (lambda aux: aux["strict"].pop("domain"), "aux.strict.domain: missing"),
        ],
        ids=["source-variables", "source-scope", "strict-domain"],
    )
    def test_a_malformed_recorded_input_names_its_json_path(
        self, t22, ident22, change, message
    ):
        payload = pk.pipeline_reduce(path_instance(), t22, t22, ident22).layout.to_payload()
        change(payload["aux"])
        with pytest.raises(InputError, match=re.escape(message)):
            pk.CloudLayout.from_payload(payload)

    def test_a_layout_that_is_no_gadget_needs_its_subset_instance(self, t22, ident22):
        # without `aux` there are no clouds to read, which used to end in an
        # AttributeError on decoding
        payload = pk.pipeline_reduce(path_instance(), t22, t22, ident22).layout.to_payload()
        del payload["aux"]
        with pytest.raises(InputError, match="^aux: missing$"):
            pk.CloudLayout.from_payload(payload)
        gadget = pk.pipeline_reduce(triangle_instance(), t22, t22, ident22).layout.to_payload()
        assert "aux" not in gadget and pk.CloudLayout.from_payload(gadget).gadget

    def test_a_strict_side_other_than_the_recorded_one_is_refused(self, k2, t22, ident22):
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        lift = pk.lift_strict_solution(
            pk.brute_force_solve(result.layout.aux.source, k2), result.layout
        )
        # a source over other domains than the table's images is refused by the
        # table itself; one over the same domains reaches the layout's record
        k3 = pk.complete_graph(3)
        with pytest.raises(InputError, match="^the identity table's images are not over the source"):
            pk.recover_source_solution(
                lift.mapping, result.layout, ident22, phi, pk.PcspTemplate(k3, k3)
            )
        one_way = pk.structure("01", neq=(2, {("0", "1")}))
        with pytest.raises(InputError, match="does not match the layout"):
            pk.recover_source_solution(
                lift.mapping, result.layout, ident22, phi, pk.PcspTemplate(one_way, k2)
            )

    def test_nested_layers_end_to_end(self, k2, t22, ident22):
        # at k=(3,2) the w-clouds of the 2-subsets are merged into the cloud
        # of the 3-subset, so decoding runs through two distinct layers
        phi = path_instance()
        aux = pk.build_auxiliary(phi, k2, (3, 2))
        _, layout = pk.longcode_reduce(aux, t22)
        assert layout.reps
        lift = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout)
        loaded = pk.CloudLayout.from_payload(layout.to_payload())
        fns = pk.read_cloud_functions(lift.mapping, loaded, k2.domain)
        seq = pk.decode_relaxed_solution(fns, loaded, ident22, phi, t22)
        extraction = pk.extract_solution(seq, pk.gap_parameters(2, 1, (1, 1)), 1)
        colouring = extraction.assignment.restrict(phi.variables)
        assert pk.evaluate(phi, k2, colouring) == []

    def test_absent_position_is_input_error_naming_it(self, k2, t22):
        phi = path_instance()
        _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)
        lift = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout)
        absent = layout.names[layout.classes[-1]]
        partial = {pos: v for pos, v in lift.mapping.items() if pos != absent}
        with pytest.raises(InputError, match=f"missing position '{absent}'"):
            pk.read_cloud_functions(partial, layout, k2.domain)

    def test_uncovered_decoded_function_is_input_error(self, k2, t22):
        # an explicit table that covers none of the decoded functions
        phi = path_instance()
        _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)
        lift = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout)
        fns = pk.read_cloud_functions(lift.mapping, layout, k2.domain)
        with pytest.raises(InputError, match="does not cover"):
            pk.decode_relaxed_solution(fns, layout, pk.ExplicitDrTable(1, 1, {}), phi, t22)


    @pytest.mark.parametrize("h, missing", [({"x": "0"}, "y"), ({"x": "0", "y": "1"}, "~pad0")])
    def test_lift_names_a_missing_variable(self, t22, h, missing):
        # the padded source of the path x-y at k=(4,4) is x, y, ~pad0, ~pad1
        result = pk.pipeline_reduce(edge_instance(), t22, t22, pk.IdentityDrTable(t22, r=1))
        assert result.layout.padding == ("~pad0", "~pad1")
        with pytest.raises(InputError, match=f"missing variable '{missing}'.*layout.padding"):
            pk.lift_strict_solution(h, result.layout)

    def test_recover_takes_the_lifted_assignment_itself(self, k2, t22, ident22):
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        lift = pk.lift_strict_solution(
            pk.brute_force_solve(result.layout.aux.source, k2), result.layout
        )
        solution = pk.recover_source_solution(lift, result.layout, ident22, phi, t22)
        assert pk.evaluate(phi, k2, solution) == []

    def test_recovery_builds_no_induced_instance(self, monkeypatch, t22, ident22, unary_side):
        # the path over (K2,K2) decodes at k=(4,4); a unary source, m=1, at k=(3,2)
        unary = pk.PcspTemplate(unary_side, unary_side)
        pinned = pk.Instance(["x", "y", "z"], [(("x",), "only0"), (("z",), "only1")])
        runs = []
        for phi, source in ((path_instance(), t22), (pinned, unary)):
            result = pk.pipeline_reduce(phi, source, t22, ident22)
            h = pk.brute_force_solve(result.layout.aux.source, source.strict)
            runs.append((phi, source, result, pk.lift_strict_solution(h, result.layout)))
        assert [result.params.k for _, _, result, _ in runs] == [(4, 4), (3, 2)]

        def induced(self, subset):
            raise AssertionError("decoding built an induced sub-instance")

        monkeypatch.setattr(pk.Instance, "induced", induced)
        for phi, source, result, lift in runs:
            solution = pk.recover_source_solution(lift, result.layout, ident22, phi, source)
            assert pk.evaluate(phi, source.relaxed, solution) == []

    def test_a_constant_image_names_the_constraints_as_the_induced_instance_does(
        self, k2, t22
    ):
        # the first top subset a,b,c holds phi's constraints 1 and 2, which
        # are 0 and 1 in the sub-instance it induces
        phi = pk.Instance(
            list("abcd"), [(("c", "d"), "neq"), (("a", "b"), "neq"), (("b", "c"), "neq")]
        )
        _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)
        lift = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout)
        fns = pk.read_cloud_functions(lift.mapping, layout, k2.domain)
        constant = SimpleNamespace(d=1, r=1, image=lambda t: (
            pk.FiniteFunction(t.arity_set, t.in_domain, k2.domain, ["0"] * len(t.table)),
        ))
        u = layout.aux.variables[0].subset
        expected = pk.evaluate(phi.induced(u), k2, dict.fromkeys(u, "0"))
        assert u == ("a", "b", "c") and expected == [0, 1]
        message = f"at a,b,c violates relaxed constraints {expected}"
        with pytest.raises(InvariantError, match=re.escape(message)):
            pk.decode_relaxed_solution(fns, layout, constant, phi, t22)

    def test_a_parameter_record_off_the_pipeline_is_refused_before_any_cloud_is_read(
        self, monkeypatch, k2, t22, ident22
    ):
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        h = pk.brute_force_solve(result.layout.aux.source, k2)
        lift = pk.lift_strict_solution(h, result.layout)

        def unread(*args, **kwargs):
            raise AssertionError("a cloud was read")

        monkeypatch.setattr(pk.reduction, "read_cloud_functions", unread)
        # at r=2 the pipeline's record for the path is k=(10,10,4), not (4,4)
        message = r"layout k=\[4, 4\] is not the pipeline's k=\[10, 10, 4\]"
        with pytest.raises(InputError, match=message):
            pk.recover_source_solution(lift, result.layout, pk.IdentityDrTable(t22, r=2), phi, t22)


def _nested_path_functions(k2, t22):
    phi = path_instance()
    _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)
    lift = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout)
    return phi, layout, pk.read_cloud_functions(lift.mapping, layout, k2.domain)


class TestDecodeRefusesBrokenClouds:
    """Each subset variable's function is checked once: present, on the
    variable's own labels, and a polymorphism of the target; and each
    constraint once, as a minor along its map."""

    def test_a_missing_subset_variable(self, k2, t22, ident22):
        phi, layout, fns = _nested_path_functions(k2, t22)
        del fns["x,z"]
        with pytest.raises(InputError, match="missing subset variable 'x,z'"):
            pk.decode_relaxed_solution(fns, layout, ident22, phi, t22)

    def test_a_function_on_another_arity_set(self, k2, t22, ident22):
        phi, layout, fns = _nested_path_functions(k2, t22)
        fn = fns["x,y"]
        fns["x,y"] = pk.minor(fn, {n: n + 1 for n in fn.arity_set})
        with pytest.raises(InputError, match="not on the variable's labels"):
            pk.decode_relaxed_solution(fns, layout, ident22, phi, t22)

    def test_a_function_over_other_domains(self, k2, t22, ident22):
        # no member of the target's polymorphisms; it used to escape the
        # decoder as a StructuralError that named no variable
        phi, layout, fns = _nested_path_functions(k2, t22)
        arity = fns["x,y"].arity_set
        fns["x,y"] = pk.dictator(arity, ("0", "1", "2"), arity[0])
        message = "^the function at x,y is not a polymorphism of the target$"
        with pytest.raises(InputError, match=message):
            pk.decode_relaxed_solution(fns, layout, ident22, phi, t22)

    def test_a_non_polymorphism(self, k2, t22, ident22):
        phi, layout, fns = _nested_path_functions(k2, t22)
        fn = fns["x,y"]
        constant = ["0"] * len(fn.table)
        fns["x,y"] = pk.FiniteFunction(fn.arity_set, fn.in_domain, fn.out_domain, constant)
        with pytest.raises(InputError, match="not a polymorphism"):
            pk.decode_relaxed_solution(fns, layout, ident22, phi, t22)

    def test_a_member_that_is_no_minor_of_its_top_cloud(self, k2, t22, ident22):
        # the lift puts the dictator on label 0, (x,z)=(0,0), at x,z; the one
        # on label 3, (1,1), is a member too, but not the minor of x,y,z's
        phi, layout, fns = _nested_path_functions(k2, t22)
        arity = fns["x,z"].arity_set
        assert fns["x,z"] == pk.dictator(arity, k2.domain, 0)
        fns["x,z"] = pk.dictator(arity, k2.domain, 3)
        assert pk.LazyPolymorphismSlice(t22).contains(fns["x,z"])
        message = "^constraint x,y,z->x,z is not satisfied in the lifted relation$"
        with pytest.raises(InputError, match=message):
            pk.decode_relaxed_solution(fns, layout, ident22, phi, t22)


class TestRelabelledMinorCondition:
    """Relabelled by partial solutions, the decoded functions satisfy the
    restriction-map minor condition along every constraint."""

    @staticmethod
    def _check(layout, assignments, k2):
        aux, label = layout.aux, pk.minion.tuple_label
        for assignment in assignments:
            fns = pk.read_cloud_functions(assignment, layout, k2.domain)
            relabelled = {
                var.name: pk.minor(fns[var.name], dict(enumerate(map(label, var.solutions))))
                for var in aux.variables
            }
            for con in aux.constraints:
                uvar, wvar = aux.variable(con.u), aux.variable(con.w)
                idx = [uvar.subset.index(x) for x in wvar.subset]
                restriction = {label(g): label(tuple(g[p] for p in idx)) for g in uvar.solutions}
                target = relabelled[con.w].arity_set
                assert pk.minor(relabelled[con.u], restriction, target=target) == relabelled[con.w]

    def test_pipeline_case_at_k44(self, k2, t22, ident22):
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        assert result.params.k == (4, 4)
        solutions = pk.all_solutions(result.instance, k2, budget=10**7)
        self._check(result.layout, [sol.mapping for sol in solutions[:6]], k2)

    def test_nested_path_at_k32(self, k2, t22):
        instance, layout = pk.longcode_reduce(pk.build_auxiliary(path_instance(), k2, (3, 2)), t22)
        solutions = pk.all_solutions(instance, k2, budget=10**7)
        self._check(layout, [sol.mapping for sol in solutions[:6]], k2)


class TestMembershipCheckedOnce:
    """One decode checks each distinct decoded function for membership once
    and checks nothing else, the table's images included, and keeps no answer
    for the next decode."""

    @staticmethod
    def _decode_twice(monkeypatch, fns, layout, table, phi, template):
        checked = collections.Counter()
        real = pk.minion.is_polymorphism

        def counting(t, tmpl):
            checked[t] += 1
            return real(t, tmpl)

        monkeypatch.setattr(pk.minion, "is_polymorphism", counting)
        pk.decode_relaxed_solution(fns, layout, table, phi, template)
        assert checked == collections.Counter(set(fns.values()))
        pk.decode_relaxed_solution(fns, layout, table, phi, template)
        assert set(checked.values()) == {2}

    def test_pipeline_case_at_k44(self, monkeypatch, k2, t22, ident22):
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        assert result.params.k == (4, 4)
        padded, _ = _pad_instance(phi, result.params.k[0])
        lift = pk.lift_strict_solution(pk.brute_force_solve(padded, k2), result.layout)
        fns = pk.read_cloud_functions(lift.mapping, result.layout, k2.domain)
        self._decode_twice(monkeypatch, fns, result.layout, ident22, phi, t22)

    def test_nested_path_at_k32(self, monkeypatch, k2, t22, ident22):
        phi = path_instance()
        _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)
        lift = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout)
        fns = pk.read_cloud_functions(lift.mapping, layout, k2.domain)
        self._decode_twice(monkeypatch, fns, layout, ident22, phi, t22)

    def test_k55_at_r2(self, monkeypatch, k2, t22, k55_r2):
        # 211 clouds decode to three distinct functions
        (result, table), phi = k55_r2, bipartite_instance(5)
        h = {x: "0" if x.startswith("a") else "1" for x in phi.variables}
        lift = pk.lift_strict_solution(h, result.layout)
        fns = pk.read_cloud_functions(lift.mapping, result.layout, k2.domain)
        assert len(fns) == 211 and len(set(fns.values())) == 3
        self._decode_twice(monkeypatch, fns, result.layout, table, phi, t22)


class TestLiftInNameOrder:
    """The lift's values arrive in name order and are kept without a second
    sort: its keys come out sorted, and it equals and hashes as the
    assignment the sorting constructor builds from them."""

    @staticmethod
    def _assert_sorted(lift):
        keys = list(lift.keys())
        assert keys == sorted(keys)
        again = pk.Assignment(lift.mapping, side="strict")
        assert lift == again and hash(lift) == hash(again)

    def test_pipeline_case_at_k44(self, k2, t22, ident22):
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t22, t22, ident22)
        assert result.params.k == (4, 4)
        padded, _ = _pad_instance(phi, result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        self._assert_sorted(pk.lift_strict_solution(h, result.layout))

    def test_nested_path_at_k32(self, k2, t22):
        phi = path_instance()
        _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)
        self._assert_sorted(pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout))

    def test_k55_at_r2(self, k55_r2):
        (result, _), phi = k55_r2, bipartite_instance(5)
        h = {x: "0" if x.startswith("a") else "1" for x in phi.variables}
        self._assert_sorted(pk.lift_strict_solution(h, result.layout))


class TestCloudReadValidates:
    def test_a_value_outside_the_relaxed_domain(self, k2, t22):
        # an assignment comes from outside: the functions read from it are
        # built by the validating constructor
        phi = path_instance()
        _, layout = pk.longcode_reduce(pk.build_auxiliary(phi, k2, (3, 2)), t22)
        values = pk.lift_strict_solution(pk.brute_force_solve(phi, k2), layout).mapping
        values[layout.names[-1]] = "2"
        with pytest.raises(InputError, match="^table value '2' outside the output domain$"):
            pk.read_cloud_functions(values, layout, k2.domain)


class PostCompositionTable:
    """t maps to {h o t} for a fixed homomorphism h between the relaxed sides;
    composing with a fixed unary map commutes with minors, so this is a valid
    width-1 table, evaluable at any arity."""

    d = 1
    r = 1

    def __init__(self, target_template, source_template, h):
        self.target_template = target_template
        self.source_template = source_template
        self.h = dict(h)

    def fits(self, source, target):
        if (source, target) != (self.source_template, self.target_template):
            raise InputError("the post-composition table is over other templates")

    def covers(self, t):
        try:
            return pk.is_polymorphism(t, self.target_template)
        except Exception:
            return False

    def image(self, t):
        composed = pk.FiniteFunction(
            t.arity_set,
            t.in_domain,
            self.source_template.relaxed.domain,
            [self.h[v] for v in t.table],
        )
        return (composed,)


class TestCrossTemplatePipeline:
    def test_k2k3_source_through_k2k2_target(self, k2, k3, t22, t23):
        # reduce a (K2, K3) promise instance to a (K2, K2) one and decode a
        # three-valued relaxed solution of the source back out
        table = PostCompositionTable(t22, t23, {"0": "0", "1": "1"})
        phi = path_instance()
        result = pk.pipeline_reduce(phi, t23, t22, table)
        assert result.params.domain_size == 3
        assert not result.layout.gadget
        padded, _ = _pad_instance(phi, result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, result.layout)
        assert pk.evaluate(result.instance, k2, lift) == []
        recovered = pk.recover_source_solution(
            lift.mapping, result.layout, table, phi, t23
        )
        assert recovered.mapping.keys() == {"x", "y", "z"}
        assert pk.evaluate(phi, k3, recovered) == []

    def test_unsolvable_cross_template_source(self, k2, t22, t23):
        # a self-loop is unsolvable even on the strict side, so the pipeline
        # emits the target's no-instance
        phi = pk.Instance(["x"], [(("x", "x"), "neq")])
        result = pk.pipeline_reduce(phi, t23, t22, PostCompositionTable(t22, t23, {"0": "0", "1": "1"}))
        assert result.layout.gadget
        assert pk.brute_force_solve(result.instance, k2) is None


class TestRowProjectionClaim:
    def test_minor_related_functions_commute_with_solution_matrices(self, t22, k2):
        # for the matrices whose columns are partial solutions: if q_j is the
        # restriction-map minor of q_i, then applying q_i to the bigger matrix
        # and projecting equals applying q_j to the smaller one
        u_big = ("x", "y")
        u_small = ("x",)
        d_big = (("0", "1"), ("1", "0"))
        d_small = (("0",), ("1",))
        restriction = {
            pk.minion.tuple_label(g): pk.minion.tuple_label((g[0],)) for g in d_big
        }
        big_labels = tuple(sorted(pk.minion.tuple_label(g) for g in d_big))
        small_labels = tuple(sorted(pk.minion.tuple_label(g) for g in d_small))
        rows_big = {
            x: {pk.minion.tuple_label(g): g[u_big.index(x)] for g in d_big}
            for x in u_big
        }
        rows_small = {
            x: {pk.minion.tuple_label(g): g[0] for g in d_small} for x in u_small
        }
        for q_big in pk.enumerate_polymorphisms(t22, big_labels):
            q_small = pk.minor(q_big, restriction, target=small_labels)
            assert pk.is_polymorphism(q_small, t22)
            applied_big = {x: q_big.apply(rows_big[x]) for x in u_big}
            applied_small = {x: q_small.apply(rows_small[x]) for x in u_small}
            assert applied_big["x"] == applied_small["x"]


@pytest.fixture(scope="module")
def k55_r2(t22):
    """K_{5,5} through the identity table at r=2: k=(10,10,4), one top cloud
    of 4 positions above 210 clouds of 4-subsets, 656,164 positions."""
    table = pk.IdentityDrTable(t22, r=2)
    return pk.pipeline_reduce(bipartite_instance(5), t22, t22, table), table


class TestChainLengthTwo:
    def test_the_lower_clouds_are_filled_from_the_one_top_cloud(self, k55_r2):
        result, _ = k55_r2
        assert result.params.k == (10, 10, 4)
        assert result.layout.offsets[-1] == 656164
        assert result.instance.variables == ("u000p0", "u000p1", "u000p2", "u000p3")
        assert len(result.layout.reps) == 656164 - 4

    def test_every_solution_of_the_emission_recovers_a_two_colouring(self, k2, t22, k55_r2):
        (result, table), phi = k55_r2, bipartite_instance(5)
        solutions = pk.all_solutions(result.instance, k2)
        assert len(solutions) == 4
        for solution in solutions:
            recovered = pk.recover_source_solution(solution.mapping, result.layout, table, phi, t22)
            assert pk.evaluate(phi, k2, recovered) == []

    def test_the_lift_of_a_two_colouring_solves_the_emission_and_recovers_it(
        self, k2, t22, k55_r2
    ):
        (result, table), phi = k55_r2, bipartite_instance(5)
        h = {x: "0" if x.startswith("a") else "1" for x in phi.variables}
        lift = pk.lift_strict_solution(h, result.layout)
        assert pk.evaluate(result.instance, k2, lift) == []
        loaded = pk.CloudLayout.from_payload(result.layout.to_payload())
        recovered = pk.recover_source_solution(lift.mapping, loaded, table, phi, t22)
        assert recovered.mapping == h

    def test_the_five_cycle_maps_to_the_gadget(self, t22):
        result = pk.pipeline_reduce(cycle_instance(5), t22, t22, pk.IdentityDrTable(t22, r=2))
        assert result.layout.gadget and result.params.k == (10, 10, 4)
        assert pk.brute_force_solve(result.instance, t22.relaxed) is None


class TestEmittedBytes:
    """The canonical bytes of emitted instances, layouts and lifts, pinned by sha256."""

    @staticmethod
    def _sha(artifact) -> str:
        return hashlib.sha256(jsonio.canonical_dumps(artifact.to_payload()).encode()).hexdigest()

    def test_path_through_the_pipeline(self, t22, ident22):
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        assert self._sha(result.instance) == (
            "f9f50cb07fa62460d84a471eb04b82a47f540d91c91440aa53a614550b4c0182"
        )

    def test_six_cycle_at_k32(self, k2, t22):
        instance, _ = pk.longcode_reduce(pk.build_auxiliary(cycle_instance(6), k2, (3, 2)), t22)
        assert self._sha(instance) == (
            "5ffbaa5b44a8e58a2b1665c9afee73dc52c6a1d0141da37b515378a72cff610e"
        )

    def test_the_six_cycle_pin_covers_both_name_paths(self, k2, t22):
        # a cloud whose every position is kept is named from numeral blocks,
        # one that keeps some of its positions name by name
        _, layout = pk.longcode_reduce(pk.build_auxiliary(cycle_instance(6), k2, (3, 2)), t22)
        named = collections.Counter(name.partition("p")[0] for name in layout.names)
        sizes = {cloud.id: cloud.size(2) for cloud in layout.clouds}
        assert any(named[c] == size for c, size in sizes.items())
        assert any(0 < named[c] < size for c, size in sizes.items())

    def test_the_65536_position_cloud(self, t22, ident22):
        # the empty 3-variable source at k=(4,4): one cloud of 2^16 positions,
        # whose 65,536 scopes are sorted as integer positions
        result = pk.pipeline_reduce(pk.Instance(["x", "y", "z"], []), t22, t22, ident22)
        assert result.params.k == (4, 4)
        lift = pk.lift_strict_solution({"x": "0", "y": "1", "z": "1", "~pad0": "0"}, result.layout)
        assert [self._sha(x) for x in (result.instance, result.layout, lift)] == [
            "361d7adf5fac48b30b04ff9396764ab0f29dfb52cba58ca1625fcf9c55965861",
            "170274957d96f654f44253c750b73a3dff88dffd0f6687df1ef913f64baab7ec",
            "a78df0460e18ea51565098d5cde151b4bf46d9dcdcc4c4194148c2caab5af0d1",
        ]


class TestNamesAndScopes:
    @pytest.mark.parametrize("width", range(1, 8))
    def test_block_numerals_are_the_formatted_ones(self, width):
        for count in (1, 9, 10, 11, 999, 1000, 1001, 65536):
            if count <= 10**width:
                expected = [f"u7p%0{width}d" % i for i in range(count)]
                assert list(_numerals("u7p", width, count)) == expected

    def test_emission_drops_repeated_scopes_as_they_come(self, t22, k55_r2):
        # the one top cloud makes the 4 scopes kept and no lower cloud is
        # filled; a list of the 656,164 scopes every cloud made peaked near 48 MB
        aux = k55_r2[0].layout.aux
        pk.longcode_reduce(aux, t22)  # the row index sets are built and cached
        tracemalloc.start()
        try:
            pk.longcode_reduce(aux, t22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestGadgetSearch:
    def test_k2_gadget_is_a_self_loop(self, t22):
        gadget = pk.find_unsolvable_gadget(t22)
        assert gadget is not None
        assert pk.brute_force_solve(gadget, t22.relaxed) is None

    def test_trivial_template_has_no_gadget(self):
        full = pk.structure(["0", "1"], any2=(2, set(itertools.product("01", repeat=2))))
        template = pk.PcspTemplate(full, full)
        assert pk.find_unsolvable_gadget(template) is None


def _renaming(old_layout, new_layout, base: int) -> dict:
    """Map each old merge class to the new class of its variable-cloud
    members, each restricted to that variable's own labels; fails if two
    members of one old class land in different new classes."""
    new_cloud = {cloud.ref: cloud for cloud in new_layout.clouds}
    new_start = dict(zip(new_cloud, new_layout.offsets))
    column = {label: i for i, label in enumerate(old_layout.aux.c_labels)}
    rename = {}
    for cloud in old_layout.clouds:
        if cloud.kind != "variable":
            continue
        new = new_cloud[cloud.ref]
        keep = [column[label] for label in new.index_labels]
        for idx, digits in enumerate(itertools.product(range(base), repeat=len(cloud.index_labels))):
            new_idx = 0
            for p in keep:
                new_idx = new_idx * base + digits[p]
            old_name = old_layout.rep(old_layout.position(cloud, idx))
            new_rep = new_layout.classes[new_start[cloud.ref] + new_idx]
            new_name = new_layout.names[new_rep]
            assert rename.setdefault(old_name, new_name) == new_name, old_name
    return rename


def assert_same_up_to_renaming(phi, k):
    k2 = pk.complete_graph(2)
    t22 = pk.PcspTemplate(k2, k2)
    aux = pk.build_auxiliary(phi, k2, k)
    # the reference indexes every cloud by one label set as large as the
    # largest solution set, whose first labels are each variable's own
    size = max(len(var.solutions) for var in aux.variables)
    view = SimpleNamespace(
        c_labels=range(size), variables=aux.variables, constraints=aux.constraints
    )
    old, old_layout = reference_longcode.longcode_reduce(view, t22)
    new, new_layout = pk.longcode_reduce(aux, t22)
    rename = _renaming(old_layout, new_layout, len(k2.domain))
    assert set(rename) == set(old.variables)
    assert sorted(rename.values()) == sorted(new.variables)
    renamed = {(c.relation, tuple(rename[x] for x in c.scope)) for c in old.constraints}
    assert renamed == {(c.relation, c.scope) for c in new.constraints}
    assert len(old.constraints) == len(new.constraints)


@st.composite
def graph_cases(draw, shapes=((2, 1), (3, 2), (3, 2, 1))):
    """A loop-free graph instance on at most 5 vertices with arities among
    `shapes` that fit, whose subsets all carry a strict partial solution."""
    n = draw(st.integers(2, 5))
    k = draw(st.sampled_from([k for k in shapes if k[0] <= n]))
    variables = [f"x{i}" for i in range(n)]
    pairs = list(itertools.combinations(variables, 2))
    scopes = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    phi = pk.Instance(variables, [(s, "neq") for s in scopes])
    try:
        pk.build_auxiliary(phi, pk.complete_graph(2), k)
    except PromiseViolationError:
        assume(False)
    return phi, k


@st.composite
def layout_cases(draw):
    """A K2 graph source on 2-4 variables whose subsets all carry a partial
    solution, at k=(2,1) or (3,2)."""
    n = draw(st.integers(2, 4))
    k = draw(st.sampled_from([k for k in ((2, 1), (3, 2)) if k[0] <= n]))
    variables = [f"x{i}" for i in range(n)]
    scopes = draw(
        st.lists(st.sampled_from(list(itertools.combinations(variables, 2))), unique=True)
    )
    phi = pk.Instance(variables, [(s, "neq") for s in scopes])
    try:
        aux = pk.build_auxiliary(phi, pk.complete_graph(2), k)
    except PromiseViolationError:
        assume(False)
    return aux


@settings(derandomize=True, max_examples=40, deadline=None)
@given(aux=layout_cases())
def test_layout_round_trip_rebuilds_the_same_layout(t22, aux):
    _, layout = pk.longcode_reduce(aux, t22)
    text = jsonio.canonical_dumps(layout.to_payload())
    loaded = pk.CloudLayout.from_payload(json.loads(text))
    assert jsonio.canonical_dumps(loaded.to_payload()) == text
    assert loaded.aux == layout.aux
    assert loaded.clouds == layout.clouds
    assert loaded.reps == layout.reps


def _subset_instance(case):
    phi, k = case
    return pk.build_auxiliary(phi, pk.complete_graph(2), k)


# two equal top layers (the pipeline's shape at r=2) and three layers under
# several top subsets, whose lower subsets join top positions
WIDE_SHAPES = ((2, 1), (3, 2), (3, 2, 1), (3, 3, 2), (4, 3, 2))


def _path(n: int) -> pk.Instance:
    edges = [((f"v{i}", f"v{i + 1}"), "neq") for i in range(n - 1)]
    return pk.Instance([f"v{i}" for i in range(n)], edges)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(aux=st.one_of(layout_cases(), graph_cases(WIDE_SHAPES).map(_subset_instance)))
@example(aux=_subset_instance((cycle_instance(5), (3, 3, 2))))
@example(aux=_subset_instance((cycle_instance(5), (4, 3, 2))))
@example(aux=_subset_instance((_path(5), (4, 3, 2))))
def test_derived_classes_are_the_union_find_of_the_emission(k2, t22, aux):
    # the classes the layout derives from the top layer, from the emitting
    # layout and from one rebuilt from its canonical text, are the ones the
    # union-find over every constraint's index map gives; lifting and reading
    # through either agree
    instance, layout = pk.longcode_reduce(aux, t22)
    loaded = pk.CloudLayout.from_payload(json.loads(jsonio.canonical_dumps(layout.to_payload())))
    expected = reference_longcode.merge_reps(aux, t22)
    assert dict(layout.reps) == expected
    assert dict(loaded.reps) == expected
    h = pk.brute_force_solve(aux.source, k2)
    if h is not None:
        assert pk.lift_strict_solution(h, loaded) == pk.lift_strict_solution(h, layout)
    # any assignment of the emitted variables reads back, a solution or not
    assignment = {x: "01"[n % 3 % 2] for n, x in enumerate(instance.variables)}
    assert pk.read_cloud_functions(assignment, loaded, k2.domain) == pk.read_cloud_functions(
        assignment, layout, k2.domain
    )


def _over_k2(phi, k):
    """The subset instance of phi, padded to k[0] as the pipeline pads, over K2."""
    k2 = pk.complete_graph(2)
    return pk.build_auxiliary(_pad_instance(phi, k[0])[0], k2, k), pk.PcspTemplate(k2, k2)


@st.composite
def emission_cases(draw):
    """A subset instance and a target: a graph on 2-7 vertices over K2 at
    k=(3,2), several top subsets from 4 vertices on, or at the pipeline's
    r=2 shape (3,3,2); or a unary source past compact k[0], through the
    pipeline at k=(5,2)."""
    if draw(st.booleans()):
        n, k = draw(st.integers(2, 7)), draw(st.sampled_from([(3, 2), (3, 3, 2)]))
        pairs = list(itertools.combinations([f"x{i}" for i in range(n)], 2))
        scopes = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
        phi = pk.Instance([f"x{i}" for i in range(n)], [(s, "neq") for s in scopes])
        try:
            return _over_k2(phi, k)
        except PromiseViolationError:
            assume(False)
    unary = pk.structure(["0", "1"], only0=(1, {("0",)}), only1=(1, {("1",)}))
    template = pk.PcspTemplate(unary, unary)
    phi = draw(unary_sources().filter(lambda phi: len(phi.variables) > 3))
    layout = pk.pipeline_reduce(phi, template, template, pk.IdentityDrTable(template)).layout
    assume(not layout.gadget)
    return layout.aux, template


class TestEmissionFromTheTopClouds:
    """`longcode_reduce` emits from the top clouds alone and leaves the lower
    clouds' classes unfilled; the instance is the one every cloud's matrices
    give (`reference_longcode.emit_every_cloud`)."""

    @staticmethod
    def assert_same_text(aux, target):
        instance, _ = pk.longcode_reduce(aux, target)
        expected = reference_longcode.emit_every_cloud(aux, target)
        assert jsonio.canonical_dumps(instance.to_payload()) == jsonio.canonical_dumps(
            expected.to_payload()
        )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=emission_cases())
    @example(case=_over_k2(_path(7), (3, 2)))
    @example(case=_over_k2(cycle_instance(6), (3, 3, 2)))
    def test_same_instance_text_as_every_cloud(self, case):
        self.assert_same_text(*case)

    def test_same_instance_text_on_k55_at_r2(self, t22, k55_r2):
        self.assert_same_text(k55_r2[0].layout.aux, t22)

    def test_the_reduction_builds_no_lower_index_map(self, monkeypatch, t22):
        # K_{5,5} at r=2 has one top subset, so nothing is joined: the 210
        # lower clouds' index maps are built only when `classes` is read
        built = []
        real_index = pk.reduction._minor_index

        def counting_index(base, arity_set, pi, target):
            built.append(tuple(target))
            return real_index(base, arity_set, pi, target)

        monkeypatch.setattr(pk.reduction, "_minor_index", counting_index)
        table = pk.IdentityDrTable(t22, r=2)
        result = pk.pipeline_reduce(bipartite_instance(5), t22, t22, table)
        assert built == []
        assert len(result.layout.classes) == 656164 and len(built) == 210


@st.composite
def lift_cases(draw):
    """A subset instance and a target from `emission_cases`, with a strict
    assignment of its (padded) source: a brute-force solution, a random
    total assignment, or one that misses a variable."""
    aux, target = draw(emission_cases())
    variables, domain = aux.source.variables, aux.strict.domain
    kind = draw(st.sampled_from(["solution", "random", "missing"]))
    h = pk.brute_force_solve(aux.source, aux.strict) if kind == "solution" else None
    if h is None:
        values = st.lists(st.sampled_from(domain), min_size=len(variables), max_size=len(variables))
        h = dict(zip(variables, draw(values)))
        if kind == "missing":
            del h[draw(st.sampled_from(variables))]
    return aux, target, h


class TestLiftFromTheTopClouds:
    """`lift_strict_solution` walks the top clouds alone and fills no lower
    cloud; it returns what every cloud's evaluation maps give
    (`reference_longcode.lift_every_cloud`), or refuses as that does."""

    @staticmethod
    def _outcome(lift, h, layout):
        try:
            return jsonio.canonical_dumps(lift(h, layout).to_payload())
        except (InputError, InvariantError) as exc:
            return type(exc), str(exc)

    def assert_same_outcome(self, aux, target, h):
        # separate layouts, so neither reads classes the other filled
        layouts = [pk.CloudLayout(target=target, aux=aux, padding=()) for _ in range(2)]
        top = self._outcome(pk.lift_strict_solution, h, layouts[0])
        assert top == self._outcome(reference_longcode.lift_every_cloud, h, layouts[1])
        return top

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=lift_cases())
    @example(case=(*_over_k2(_path(7), (3, 2)), {f"x{i}": "01"[i % 2] for i in range(7)}))
    @example(case=(*_over_k2(cycle_instance(6), (3, 3, 2)), {f"v{i}": "0" for i in range(6)}))
    def test_same_assignment_or_refusal_as_every_cloud(self, case):
        self.assert_same_outcome(*case)

    def test_k55_at_r2(self, t22, k55_r2):
        aux = k55_r2[0].layout.aux
        colouring = {x: "0" if x.startswith("a") else "1" for x in aux.source.variables}
        assert isinstance(self.assert_same_outcome(aux, t22, colouring), str)
        # a0 and b0 both 0 breaks the edge inside the one top subset
        refusal = (InputError, "assignment is not a partial solution on " + aux.variables[0].name)
        assert self.assert_same_outcome(aux, t22, {**colouring, "b0": "0"}) == refusal
        del colouring["a0"]
        kind, message = self.assert_same_outcome(aux, t22, colouring)
        assert kind is InputError
        assert message.startswith("the strict solution is missing variable 'a0'")

    def test_a_non_solution_is_refused_at_its_first_failing_top(self):
        # the tops x0,x1,x2 and x0,x1,x3 pass and are joined through x0,x2,x3's
        # lower subsets; all "1" breaks x2 != x3 inside x0,x2,x3, which is
        # named, before any class is filled with a clashing value
        phi = pk.Instance([f"x{i}" for i in range(4)], [(("x2", "x3"), "neq")])
        aux, target = _over_k2(phi, (3, 2))
        failing = next(v for v in aux.variables if v.subset == ("x0", "x2", "x3"))
        refusal = (InputError, "assignment is not a partial solution on " + failing.name)
        assert self.assert_same_outcome(aux, target, dict.fromkeys(phi.variables, "1")) == refusal

    def test_the_lift_builds_no_lower_index_map(self, monkeypatch, t22, k2):
        # after the reduction, the lift fills no lower cloud either; the 210
        # lower clouds' index maps are built only when `classes` is read
        built = []
        real_index = pk.reduction._minor_index

        def counting_index(base, arity_set, pi, target):
            built.append(tuple(target))
            return real_index(base, arity_set, pi, target)

        monkeypatch.setattr(pk.reduction, "_minor_index", counting_index)
        phi, table = bipartite_instance(5), pk.IdentityDrTable(t22, r=2)
        result = pk.pipeline_reduce(phi, t22, t22, table)
        pk.lift_strict_solution(pk.brute_force_solve(phi, k2), result.layout)
        assert built == []
        assert len(result.layout.classes) == 656164 and len(built) == 210


class TestMinorConditionAgainstReference:
    @pytest.mark.parametrize(
        "phi, k",
        [
            (edge_instance(), (2, 1)),
            (path_instance(), (3, 2)),
            (fork_instance(), (3, 2)),
            (fork_instance(), (3, 2, 1)),
            (cycle_instance(6), (3, 2)),
        ],
    )
    def test_same_instance_up_to_renaming(self, phi, k):
        assert_same_up_to_renaming(phi, k)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=graph_cases())
    def test_graphs_on_at_most_five_vertices(self, case):
        assert_same_up_to_renaming(*case)
