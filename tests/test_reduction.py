"""The subset instance, the long-code step, the pipeline, and the decoder."""

import itertools

import pytest

import pcspkit as pk
from pcspkit.errors import InputError, ParameterError, PromiseViolationError
from pcspkit.reduction import _pad_instance

from conftest import cycle_instance, triangle_instance


@pytest.fixture(scope="module")
def ident22(t22):
    return pk.IdentityDrTable(t22, r=1)


def edge_instance():
    return pk.Instance(["x", "y"], [(("x", "y"), "neq")])


def path_instance():
    return pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq")])


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
            for g in top.solutions:
                assert con.cmap[top.sigma[g]] == wvar.sigma[(g[idx],)]

    def test_equal_arities_give_reflexive_pair(self, k2):
        phi = pk.Instance(["a", "b"], [(("a", "b"), "neq")])
        aux = pk.build_auxiliary(phi, k2, (2, 2))
        assert [(c.u, c.w) for c in aux.constraints] == [("a,b", "a,b")]
        assert all(a == b for a, b in aux.constraints[0].cmap.items())

    def test_promise_violation_raises(self, k2):
        with pytest.raises(PromiseViolationError):
            pk.build_auxiliary(triangle_instance(), k2, (3, 2))

    def test_fitted_c_is_the_largest_solution_set(self, k2):
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        aux = pk.build_auxiliary(phi, k2, (2, 1))
        assert len(aux.c_labels) == 4  # the unconstrained pair x,z
        assert aux.uniform_c_size == 4

    def test_explicit_c_must_cover(self, k2):
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        with pytest.raises(ParameterError):
            pk.build_auxiliary(phi, k2, (2, 1), c_size=3)


class TestLongCode:
    def test_cloud_sizes(self, k2, t22):
        aux = pk.build_auxiliary(edge_instance(), k2, (2, 1))
        out, layout = pk.longcode_reduce(aux, t22)
        sizes = {c.ref: c.size(2) for c in layout.clouds if c.kind == "variable"}
        assert sizes["x,y"] == 4  # |C| = 2, positions are maps C -> {0,1}
        assert sizes["x"] == 4

    def test_strict_solution_restricted_to_cloud_is_a_polymorphism(self, k2, t22, ident22):
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        padded, _ = _pad_instance(path_instance(), result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, result.layout)
        assert pk.evaluate(result.instance, k2, lift) == []
        fns = pk.read_cloud_functions(lift.mapping, result.layout, k2.domain)
        assert all(pk.is_polymorphism(f, t22) for f in fns.values())

    def test_merge_classes_respect_minor_semantics(self, k2, t22, ident22):
        # the variable-cloud function is the projection minor of the
        # constraint-cloud function under any strict solution
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        layout = result.layout
        padded, _ = _pad_instance(path_instance(), result.params.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, layout).mapping
        base = len(k2.domain)
        for con in layout.aux.constraints:
            econ = layout.cloud_by_ref("constraint", f"{con.u}>{con.w}")
            table = [
                lift[layout.rep(layout.position(econ, i))]
                for i in range(econ.size(base))
            ]
            tcon = pk.FiniteFunction(
                [pk.minion.tuple_label(p) for p in econ.index_labels],
                k2.domain, k2.domain, table,
            )
            for side, name in ((0, con.u), (1, con.w)):
                vcloud = layout.cloud_by_ref("variable", name)
                vtable = [
                    lift[layout.rep(layout.position(vcloud, i))]
                    for i in range(vcloud.size(base))
                ]
                vfn = pk.FiniteFunction(vcloud.index_labels, k2.domain, k2.domain, vtable)
                pi = {
                    pk.minion.tuple_label(p): p[side] for p in econ.index_labels
                }
                assert pk.minor(tcon, pi, target=vcloud.index_labels) == vfn

    def test_output_is_brute_force_solvable_when_source_is(self, k2, t22, ident22):
        result = pk.pipeline_reduce(path_instance(), t22, t22, ident22)
        assert pk.brute_force_solve(result.instance, k2) is not None


class TestPipeline:
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

    def test_compact_parameters_refuse_a_source_past_the_top_arity(self, t22, ident22):
        # every 4-subset of the 5-cycle is 2-colourable, so no promise
        # violation shows, yet k=(4,4) cannot decode a 5-variable source
        with pytest.raises(ParameterError):
            pk.pipeline_reduce(cycle_instance(5), t22, t22, ident22)

    def test_gadget_layout_refuses_decoding(self, t22, ident22):
        result = pk.pipeline_reduce(triangle_instance(), t22, t22, ident22)
        with pytest.raises(InputError):
            pk.read_cloud_functions({}, result.layout, ("0", "1"))

    def test_provenance_metadata(self, t22, ident22):
        result = pk.pipeline_reduce(edge_instance(), t22, t22, ident22)
        assert result.params.k == (4, 4)
        assert result.layout.padding == ("~pad0", "~pad1")
        assert len(result.layout.aux.c_labels) == 8

    def test_params_mismatch_rejected(self, t22, ident22):
        wrong = pk.gap_parameters(2, 1, (1, 1))
        with pytest.raises(ParameterError):
            pk.pipeline_reduce(edge_instance(), t22, t22, ident22, params=wrong)


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
        assert loaded.aux.c_labels == result.layout.aux.c_labels
        assert loaded.reps == result.layout.reps
        assert loaded.clouds == result.layout.clouds


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


class TestGadgetSearch:
    def test_k2_gadget_is_a_self_loop(self, t22):
        gadget = pk.find_unsolvable_gadget(t22)
        assert gadget is not None
        assert pk.brute_force_solve(gadget, t22.relaxed) is None

    def test_trivial_template_has_no_gadget(self):
        full = pk.structure(["0", "1"], any2=(2, set(itertools.product("01", repeat=2))))
        template = pk.PcspTemplate(full, full)
        assert pk.find_unsolvable_gadget(template) is None
