"""Partial assignment systems: values, solutions, consistency, properties."""

import itertools
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import pcspkit as pk
from pcspkit.errors import InputError, ParameterError, StructuralError
from pcspkit.pas import LocalProperty, _proj

import reference_oracle
from conftest import deep_inconsistent_sequence

EXTEND = LocalProperty.EXTENSION
AVOID = LocalProperty.AVOIDANCE


def two_global_pas(variables, domain, arity, f, g):
    entries = {}
    for u in itertools.combinations(sorted(variables), arity):
        entries[u] = frozenset({tuple(f[x] for x in u), tuple(g[x] for x in u)})
    return pk.Pas(variables, domain, arity, entries)


def random_pas(rng, variables, domain, arity, max_entry=2):
    entries = {}
    for u in itertools.combinations(sorted(variables), arity):
        count = rng.randint(1, max_entry)
        group = set()
        while len(group) < count:
            group.add(tuple(rng.choice(domain) for _ in u))
        entries[u] = frozenset(group)
    return pk.Pas(variables, domain, arity, entries)


class TestPasValue:
    def test_singleton_entries(self):
        f = {"x": "0", "y": "1", "z": "0"}
        system = pk.pas_from_assignment(f, f, ["0", "1"], 2)
        assert pk.pas_value(system) == 1

    def test_max_of_entry_sizes(self):
        system = pk.Pas(
            ["x", "y"], ["0", "1"], 1,
            {("x",): {("0",), ("1",)}, ("y",): {("0",)}},
        )
        assert pk.pas_value(system) == 2

    def test_full_entries(self):
        entries = {
            u: set(itertools.product(["0", "1"], repeat=2))
            for u in itertools.combinations(["x", "y", "z"], 2)
        }
        system = pk.Pas(["x", "y", "z"], ["0", "1"], 2, entries)
        assert pk.pas_value(system) == 4

    def test_empty_entry_rejected(self):
        with pytest.raises(InputError):
            pk.Pas(["x", "y"], ["0"], 1, {("x",): set(), ("y",): {("0",)}})

    def test_missing_subset_rejected(self):
        with pytest.raises(InputError):
            pk.Pas(["x", "y"], ["0"], 1, {("x",): {("0",)}})


class TestMSolution:
    def test_restrictions_always_solve(self):
        f = {v: "0" for v in ["a", "b", "c", "d"]}
        system = pk.pas_from_assignment(f, f, ["0", "1"], 3)
        for m in (1, 2, 3):
            assert pk.is_m_solution(pk.Assignment(f), system, m)

    def test_wrong_value_fails(self):
        f = {"x": "0", "y": "0", "z": "0"}
        system = pk.pas_from_assignment(f, f, ["0", "1"], 2)
        g = pk.Assignment({"x": "1", "y": "0", "z": "0"})
        assert not pk.is_m_solution(g, system, 1)

    def test_m_larger_than_arity_rejected(self):
        f = {"x": "0", "y": "0"}
        system = pk.pas_from_assignment(f, f, ["0", "1"], 1)
        with pytest.raises(InputError):
            pk.is_m_solution(pk.Assignment(f), system, 2)

    def test_an_assignment_missing_a_variable_is_refused(self):
        system = pk.pas_from_assignment({"x": "0", "y": "1", "z": "0"}, "xyz", "01", 2)
        with pytest.raises(InputError, match="assignment is not total: missing 'y'"):
            pk.is_m_solution(pk.Assignment({"x": "0"}), system, 1)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected(self, m):
        # m = 0 used to be "verified" vacuously, and m = -1 reached
        # itertools.combinations with a negative size
        f = {"x": "0", "y": "0"}
        system = pk.pas_from_assignment(f, f, ["0", "1"], 1)
        with pytest.raises(InputError, match=f"m={m}"):
            pk.is_m_solution(pk.Assignment(f), system, m)


@st.composite
def pas_sequences(draw):
    """2-4 systems over 1-5 variables and 2-3 atoms.  Each entry holds 1-3
    value tuples, drawn from the restrictions of two global assignments and
    from all tuples, so both verdicts are common."""
    n = draw(st.integers(1, 5))
    variables = [f"v{i}" for i in range(n)]
    domain = "012"[: draw(st.integers(2, 3))]
    globals_ = draw(st.lists(st.text(domain, min_size=n, max_size=n), min_size=2, max_size=2))
    arities = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=4)), reverse=True)
    systems = []
    for k in arities:
        entries = {}
        for u in itertools.combinations(range(n), k):
            tuples = st.tuples(*[st.sampled_from(domain)] * k)
            restrictions = st.sampled_from([tuple(g[i] for i in u) for g in globals_])
            entries[tuple(variables[i] for i in u)] = draw(
                st.sets(st.one_of(restrictions, restrictions, tuples), min_size=1, max_size=3)
            )
        systems.append(pk.Pas(variables, list(domain), k, entries))
    return pk.PasSequence(systems)


def constant_systems(values, arities):
    """Per system, the restrictions of the constant assignment to its value."""
    return pk.PasSequence([
        pk.pas_from_assignment(dict.fromkeys("abcd", a), "abcd", "0123", k)
        for a, k in zip(values, arities)
    ])


class TestConsistency:
    @settings(max_examples=300, deadline=None)
    @given(pas_sequences())
    # at r = 2 and r = 3: only the first and the last member agree, or none do
    @example(constant_systems("010", (3, 2, 1)))
    @example(constant_systems("012", (3, 2, 1)))
    @example(constant_systems("0120", (3, 2, 2, 1)))
    @example(constant_systems("0123", (3, 2, 2, 1)))
    def test_same_verdict_and_chain_as_the_full_enumeration(self, seq):
        walked, enumerated = pk.check_consistent(seq), reference_oracle.check_consistent(seq)
        assert (walked.ok, walked.chain) == (enumerated.ok, enumerated.chain)

    def test_restrictions_of_one_assignment(self):
        f = {v: "0" for v in ["a", "b", "c"]}
        seq = pk.PasSequence(
            [pk.pas_from_assignment(f, f, ["0", "1"], k) for k in (2, 1)]
        )
        assert pk.check_consistent(seq)

    def test_disjoint_singletons_fail_with_chain(self):
        i0 = pk.Pas("xy", ["0", "1"], 1, {("x",): {("0",)}, ("y",): {("0",)}})
        i1 = pk.Pas("xy", ["0", "1"], 1, {("x",): {("1",)}, ("y",): {("0",)}})
        result = pk.check_consistent(pk.PasSequence([i0, i1]))
        assert not result
        assert result.chain == (("x",), ("x",))

    def test_only_outer_pair_agrees(self):
        # middle system comes from the flipped assignment, so only the
        # (first, last) pair can ever intersect
        variables = ["a", "b", "c", "d"]
        f = {v: "0" for v in variables}
        g = {v: "1" for v in variables}
        i0 = pk.pas_from_assignment(f, variables, ["0", "1"], 2)
        i1 = pk.pas_from_assignment(g, variables, ["0", "1"], 1)
        i2 = pk.pas_from_assignment(f, variables, ["0", "1"], 1)
        seq = pk.PasSequence([i0, i1, i2])
        assert pk.check_consistent(seq)
        # confirm the (0,1) and (1,2) pairs really never intersect
        for u0 in itertools.combinations(variables, 2):
            for u1 in itertools.combinations(u0, 1):
                down0 = {_proj(x, u0, u1) for x in i0.entries[u0]}
                assert not (down0 & i1.entries[u1])
                assert not (i1.entries[u1] & i2.entries[u1])

    def test_a_chain_past_the_recursion_limit_is_decided(self):
        seq = deep_inconsistent_sequence(sys.getrecursionlimit() + 100)
        result = pk.check_consistent(seq)
        assert not result and result.chain == (("x", "y"),) * len(seq)

    def test_increasing_arities_rejected(self):
        f = {"x": "0", "y": "0"}
        with pytest.raises(StructuralError):
            pk.PasSequence(
                [
                    pk.pas_from_assignment(f, f, ["0", "1"], 1),
                    pk.pas_from_assignment(f, f, ["0", "1"], 2),
                ]
            )


class TestProperties:
    def setup_method(self):
        self.variables = ["a", "b", "c", "d", "e"]
        self.f = {v: "0" for v in self.variables}
        self.system = pk.pas_from_assignment(self.f, self.variables, ["0", "1"], 3)

    def test_extension_holds_for_true_restriction(self):
        assert pk.has_property(self.system, ("a",), ("0",), 1, EXTEND).holds

    def test_avoidance_holds_for_wrong_value(self):
        assert pk.has_property(self.system, ("a",), ("1",), 1, AVOID).holds

    def test_extension_fails_for_wrong_value_with_witness(self):
        chk = pk.has_property(self.system, ("a",), ("1",), 1, EXTEND)
        assert not chk.holds
        assert chk.witness is not None

    def test_full_system_realizes_every_projection(self):
        entries = {
            u: set(itertools.product(["0", "1"], repeat=2))
            for u in itertools.combinations(self.variables, 2)
        }
        full = pk.Pas(self.variables, ["0", "1"], 2, entries)
        for value in ("0", "1"):
            assert pk.has_property(full, ("a",), (value,), 1, EXTEND).holds

    def test_quantifier_duality_against_independent_oracle(self):
        # the failing witness of each property is exactly a witness of its
        # negation; compare against a direct transcription of the quantifiers
        rng = random.Random(7)
        domain = ["0", "1"]
        for trial in range(30):
            variables = ["a", "b", "c", "d", "e"][: rng.randint(3, 5)]
            k = rng.randint(1, len(variables))
            system = random_pas(rng, variables, domain, k)
            l = rng.randint(1, k)
            xs = tuple(sorted(rng.sample(variables, rng.randint(1, k))))
            f = tuple(rng.choice(domain) for _ in xs)
            for which in (EXTEND, AVOID):
                got = pk.has_property(system, xs, f, l, which)
                want = _oracle_property(system, xs, f, l, which)
                assert got.holds == want, (trial, which)

    def test_extension_and_avoidance_exclusive_when_supersets_exist(self):
        # both properties quantify the same inner family; when every l-subset
        # has at least one valid superset they cannot both hold
        rng = random.Random(11)
        for _ in range(25):
            variables = ["a", "b", "c", "d", "e"][: rng.randint(3, 5)]
            k = rng.randint(2, len(variables))
            system = random_pas(rng, variables, ["0", "1"], k)
            xs = (rng.choice(variables),)
            f = (rng.choice(["0", "1"]),)
            l = rng.randint(1, k - 1)
            ext = pk.has_property(system, xs, f, l, EXTEND).holds
            avd = pk.has_property(system, xs, f, l, AVOID).holds
            assert not (ext and avd)


def _oracle_property(system, xs, f, l, which):
    variables = system.variables
    k = system.arity
    for w in itertools.combinations(variables, l):
        inner = False
        for u in itertools.combinations(variables, k):
            if not (set(xs) | set(w)) <= set(u):
                continue
            extends = any(_proj(g, u, xs) == f for g in system.entries[u])
            if which is EXTEND and extends:
                inner = True
            if which is AVOID and not extends:
                inner = True
        if not inner:
            return False
    return True


class TestFindExtendable:
    def test_recovers_the_unique_candidate(self):
        variables = ["a", "b", "c", "d", "e"]
        h = {v: ("1" if v in "bd" else "0") for v in variables}
        system = pk.pas_from_assignment(h, variables, ["0", "1"], 3)
        assert pk.find_extendable_assignment(system, ("b",), 1) == ("1",)

    def test_full_system_returns_lexicographic_first(self):
        variables = ["a", "b", "c", "d"]
        entries = {
            u: set(itertools.product(["0", "1"], repeat=3))
            for u in itertools.combinations(variables, 3)
        }
        system = pk.Pas(variables, ["0", "1"], 3, entries)
        assert pk.find_extendable_assignment(system, ("a",), 1) == ("0",)

    def test_randomized_output_postverified(self):
        rng = random.Random(3)
        for _ in range(10):
            variables = [f"v{i}" for i in range(6)]
            f = {v: rng.choice(["0", "1"]) for v in variables}
            system = pk.pas_from_assignment(f, variables, ["0", "1"], 3)
            xs = (rng.choice(variables),)
            got = pk.find_extendable_assignment(system, xs, 1)
            assert pk.has_property(system, xs, got, 1, EXTEND).holds

    def test_precondition_checked(self):
        f = {"x": "0", "y": "0"}
        system = pk.pas_from_assignment(f, f, ["0", "1"], 2)
        with pytest.raises(ParameterError):
            pk.find_extendable_assignment(system, ("x", "y"), 2)


class TestSolveValueOne:
    def test_constant_assignment(self):
        variables = ["a", "b", "c"]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 2)
        s = pk.solve_value_one(system, 1, f)
        assert s.mapping == f
        assert pk.is_m_solution(s, system, 1)

    def test_larger_arity_gives_larger_m(self):
        variables = [f"v{i}" for i in range(6)]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 4)
        s = pk.solve_value_one(system, 1, f)
        assert pk.is_m_solution(s, system, 2)

    def test_adversarial_value_one_postverified(self):
        # not the restriction system of any single assignment, but the
        # selector still verifies
        variables = ["a", "b", "c", "d"]
        entries = {}
        for u in itertools.combinations(variables, 3):
            value = "1" if "a" not in u else "0"
            entries[u] = frozenset({tuple(value if x == "d" else "0" for x in u)})
        system = pk.Pas(variables, ["0", "1"], 3, entries)
        selector = {v: "0" for v in variables}
        s = pk.solve_value_one(system, 1, selector)
        assert pk.is_m_solution(s, system, 1)

    def test_value_two_rejected(self):
        variables = ["a", "b", "c"]
        f = {v: "0" for v in variables}
        g = {v: "1" for v in variables}
        system = two_global_pas(variables, ["0", "1"], 2, f, g)
        with pytest.raises(StructuralError):
            pk.solve_value_one(system, 1, f)

    def test_unverifiable_selector_named(self):
        variables = ["a", "b", "c"]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 2)
        with pytest.raises(InputError, match="'a'"):
            pk.solve_value_one(system, 1, {"a": "1", "b": "0", "c": "0"})


class TestRefine:
    def test_restriction_of_restriction(self):
        variables = ["a", "b", "c", "d"]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 3)
        ex = {
            u: tuple(sorted(set(u) | {[v for v in variables if v not in u][0]}))
            for u in itertools.combinations(variables, 2)
        }
        refined = pk.refine(system, 2, ex)
        assert refined == pk.pas_from_assignment(f, variables, ["0", "1"], 2)

    def test_value_never_increases(self):
        rng = random.Random(19)
        variables = ["a", "b", "c", "d", "e"]
        for _ in range(15):
            system = random_pas(rng, variables, ["0", "1"], 3, max_entry=3)
            ex = {}
            for u in itertools.combinations(variables, 2):
                extras = [v for v in variables if v not in u]
                ex[u] = tuple(sorted(set(u) | {rng.choice(extras)}))
            refined = pk.refine(system, 2, ex)
            assert pk.pas_value(refined) <= pk.pas_value(system)

    def test_m_solutions_transfer(self):
        # every m-solution of the refinement is an m-solution of the original
        rng = random.Random(23)
        variables = ["a", "b", "c", "d"]
        for _ in range(20):
            system = random_pas(rng, variables, ["0", "1"], 3, max_entry=2)
            ex = {}
            for u in itertools.combinations(variables, 2):
                extras = [v for v in variables if v not in u]
                ex[u] = tuple(sorted(set(u) | {rng.choice(extras)}))
            refined = pk.refine(system, 2, ex)
            for values in itertools.product(["0", "1"], repeat=4):
                f = pk.Assignment(dict(zip(variables, values)))
                if pk.is_m_solution(f, refined, 1):
                    assert pk.is_m_solution(f, system, 1)

    def test_composition_of_refinements(self):
        variables = ["a", "b", "c", "d"]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 3)
        ex1 = {
            u: tuple(sorted(set(u) | {[v for v in variables if v not in u][0]}))
            for u in itertools.combinations(variables, 2)
        }
        mid = pk.refine(system, 2, ex1)
        ex2 = {
            u: tuple(sorted(set(u) | {[v for v in variables if v not in u][0]}))
            for u in itertools.combinations(variables, 1)
        }
        low = pk.refine(mid, 1, ex2)
        for u in itertools.combinations(variables, 1):
            composed = {_proj(g, ex2[u], u) for g in mid.entries[ex2[u]]}
            assert low.entries[u] == frozenset(composed)

    def test_missing_containment_rejected(self):
        variables = ["a", "b", "c"]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 2)
        with pytest.raises(InputError):
            pk.refine(system, 1, {u: ("b", "c") for u in itertools.combinations(variables, 1)})


class TestSplit:
    def test_degenerate_case_from_one_assignment(self):
        variables = [f"v{i}" for i in range(6)]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 4)
        selector = {(v,): ("0",) for v in variables}
        refined, singles = pk.split_to_value_one(system, 1, 1, 2, selector)
        assert singles == pk.pas_from_assignment(f, variables, ["0", "1"], 1)
        assert pk.check_consistent(pk.PasSequence([refined, singles]))

    def test_output_value_is_one(self):
        variables = [f"v{i}" for i in range(6)]
        f = {v: "0" for v in variables}
        g = {v: "1" for v in variables}
        system = two_global_pas(variables, ["0", "1"], 4, f, g)
        selector = {(v,): ("1",) for v in variables}
        refined, singles = pk.split_to_value_one(system, 1, 1, 2, selector)
        assert pk.pas_value(singles) == 1

    def test_random_value_two_postverified(self):
        rng = random.Random(31)
        variables = [f"v{i}" for i in range(7)]
        f = {v: rng.choice(["0", "1"]) for v in variables}
        g = {v: rng.choice(["0", "1"]) for v in variables}
        system = two_global_pas(variables, ["0", "1"], 5, f, g)
        selector = {(v,): (f[v],) for v in variables}
        refined, singles = pk.split_to_value_one(system, 1, 1, 2, selector)
        assert pk.check_consistent(pk.PasSequence([refined, singles]))

    def test_parameter_inequality_checked(self):
        variables = ["a", "b", "c"]
        f = {v: "0" for v in variables}
        system = pk.pas_from_assignment(f, variables, ["0", "1"], 2)
        with pytest.raises(ParameterError):
            pk.split_to_value_one(system, 2, 1, 2, {(v,): ("0",) for v in variables})


class TestValueOracle:
    def test_solvable_instance_has_value_one(self, k2):
        inst = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq")])
        assert pk.csp_value_oracle(inst, k2, (3, 2), 1)

    def test_unsolvable_subset_blocks_every_width(self, k2):
        from conftest import triangle_instance

        tri = triangle_instance()
        for d in (1, 2, 4):
            assert not pk.csp_value_oracle(tri, k2, (3, 2), d)

    def test_small_arities_miss_the_gap(self, k2):
        # with both arities below the instance size the triangle still admits
        # a consistent singleton family
        from conftest import triangle_instance

        assert pk.csp_value_oracle(triangle_instance(), k2, (2, 2), 1)

    def test_pas_file_round_trip(self):
        f = {"x": "0", "y": "1", "z": "0"}
        seq = pk.PasSequence(
            [pk.pas_from_assignment(f, f, ["0", "1"], k) for k in (2, 1)]
        )
        assert pk.PasSequence.from_payload(seq.to_payload()).systems == seq.systems

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("systems", 1, "entries", 2, "set"), None, "systems[1].entries[2].set: missing"),
            (
                ("systems", 0, "entries", 0, "assignments", 0, "x"),
                None,
                "systems[0].entries[0].assignments[0].x: missing",
            ),
            (("systems", 0, "arity"), "2", "systems[0].arity: expected an integer"),
            (("systems", 1, "variables", 0), 0, "systems[1].variables[0]: expected a string"),
            (("systems", 0, "arity"), True, "systems[0].arity: expected an integer"),
        ],
    )
    def test_a_malformed_pas_file_names_its_json_path(self, path, value, message):
        f = {"x": "0", "y": "1", "z": "0"}
        seq = pk.PasSequence([pk.pas_from_assignment(f, f, ["0", "1"], k) for k in (2, 1)])
        payload = seq.to_payload()
        *parents, key = path
        container = payload
        for name in parents:
            container = container[name]
        if value is None:
            del container[key]
        else:
            container[key] = value
        with pytest.raises(InputError, match=re.escape(message)):
            pk.PasSequence.from_payload(payload)

    def test_a_repeated_set_is_refused(self):
        # the later entry used to replace the earlier one without a word
        pas = pk.pas_from_assignment({"x": "0", "y": "1"}, "xy", ["0", "1"], 1)
        payload = pas.to_payload()
        payload["entries"].append({"set": ["x"], "assignments": [{"x": "1"}]})
        with pytest.raises(InputError, match=re.escape("entries[2]: repeats the set ['x']")):
            pk.Pas.from_payload(payload)
        with pytest.raises(InputError, match=re.escape("systems[1].entries[2]: repeats the set")):
            pk.PasSequence.from_payload({"systems": [pas.to_payload(), payload]})
