"""Finite functions, minors, polymorphisms, chain tables, lifted relations."""

import collections
import itertools
import json
import random
import re
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import pcspkit as pk
from pcspkit import jsonio
from pcspkit.errors import InputError, ResourceError, StructuralError
from pcspkit.minion import LazyDictatorSlice, dictator, restriction_to, tuple_label

import reference_minion
from reference_minion import compose_maps


def fn(arity, table, domain=("0", "1")):
    return pk.FiniteFunction(arity, domain, domain, table)


XOR = fn(("u", "w"), ("0", "1", "1", "0"))
MAJ = fn(("u", "v", "w"), ("0", "0", "0", "1", "0", "1", "1", "1"))


class TestMinor:
    def test_xor_collapse_is_constant_zero(self):
        s = pk.minor(XOR, {"u": "z", "w": "z"})
        assert s.table == ("0", "0")

    def test_majority_absorption(self):
        # identifying two coordinates of a majority leaves the repeated one
        s = pk.minor(MAJ, {"u": "a", "v": "a", "w": "b"})
        assert s == fn(("a", "b"), ("0", "0", "1", "1"))

    def test_identity_map_is_identity(self):
        pi = {x: x for x in XOR.arity_set}
        assert pk.minor(XOR, pi) == XOR

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_composition_law(self, data):
        arities = [("u",), ("u", "w"), ("u", "v", "w")]
        x = data.draw(st.sampled_from(arities))
        y = data.draw(st.sampled_from(arities))
        z = data.draw(st.sampled_from(arities))
        table = data.draw(
            st.tuples(*[st.sampled_from(("0", "1")) for _ in range(2 ** len(x))])
        )
        t = fn(x, table)
        pi = {a: data.draw(st.sampled_from(y)) for a in x}
        rho = {b: data.draw(st.sampled_from(z)) for b in y}
        left = pk.minor(pk.minor(t, pi, target=y), rho, target=z)
        right = pk.minor(t, compose_maps(pi, rho), target=z)
        assert left == right

    def test_missing_coordinate_rejected(self):
        with pytest.raises(InputError):
            pk.minor(XOR, {"u": "z"})


class TestIsPolymorphism:
    def test_dictators_always_pass(self, t22, t23):
        for template in (t22, t23):
            for c in ("u", "w"):
                d = pk.dictator(("u", "w"), template.strict.domain, c)
                lifted = pk.FiniteFunction(
                    d.arity_set, d.in_domain, template.relaxed.domain, d.table
                )
                assert pk.is_polymorphism(lifted, template)

    def test_xor_fails_on_disequality(self, t22):
        assert not pk.is_polymorphism(XOR, t22)

    def test_negation_preserves_disequality(self, t22):
        assert pk.is_polymorphism(fn(("u",), ("1", "0")), t22)

    def test_domain_mismatch_rejected(self, t23):
        bad = pk.FiniteFunction(("u",), ("0", "1", "2"), ("0", "1", "2"), ("0", "1", "2"))
        with pytest.raises(StructuralError):
            pk.is_polymorphism(bad, t23)

    def test_the_lazy_slice_holds_no_function_over_other_domains(self, t22):
        # as in MinionSlice and LazyDictatorSlice; it used to raise StructuralError
        bad = pk.FiniteFunction(("u",), ("0", "1", "2"), ("0", "1", "2"), ("0", "1", "2"))
        assert pk.LazyPolymorphismSlice(t22).contains(bad) is False


class TestEnumeration:
    def test_unary_k2_k2(self, t22):
        found = pk.enumerate_polymorphisms(t22, ("x",))
        assert {f.table for f in found} == {("0", "1"), ("1", "0")}

    def test_binary_k2_k2(self, t22):
        found = pk.enumerate_polymorphisms(t22, ("x", "y"))
        assert len(found) == 4

    def test_unary_k2_k3(self, t23):
        assert len(pk.enumerate_polymorphisms(t23, ("x",))) == 6

    def test_budget(self, t22):
        with pytest.raises(ResourceError):
            pk.enumerate_polymorphisms(t22, ("a", "b", "c", "d", "e"), budget=100)

    # Pol(K3) is essentially unary: the 3! permutations at each coordinate.
    @pytest.mark.parametrize("n, count", [(3, 18), (4, 24)])
    def test_k3_k3_closed_form(self, k3, n, count):
        found = pk.enumerate_polymorphisms(pk.PcspTemplate(k3, k3), LABELS[:n])
        assert len(found) == count
        assert [f.table for f in found] == sorted(f.table for f in found)

    def test_budget_below_the_node_count_raises(self, k3):
        # The search visits 1,218 nodes on K3->K3 at arity 3.
        t33 = pk.PcspTemplate(k3, k3)
        assert len(pk.enumerate_polymorphisms(t33, LABELS[:3], budget=1218)) == 18
        with pytest.raises(ResourceError, match="visited over 1217 nodes"):
            pk.enumerate_polymorphisms(t33, LABELS[:3], budget=1217)
        # nothing partial is kept either: the lazy slice caches no members
        lazy = pk.LazyPolymorphismSlice(t33, budget=1217)
        with pytest.raises(ResourceError):
            lazy.members(LABELS[:3])
        assert lazy._cache == {}

    def test_budget_caps_the_matrices(self, k3):
        # 6^3 matrices of K3's edges at arity 3 hold 432 row entries, refused
        # before any is built
        with pytest.raises(ResourceError, match="216 matrices takes 432 row entries"):
            pk.enumerate_polymorphisms(pk.PcspTemplate(k3, k3), LABELS[:3], budget=431)

    def test_large_arity_is_refused_before_any_row_is_built(self, t22, monkeypatch):
        monkeypatch.setattr(pk.minion, "_row_index_sets", None)
        labels = [f"x{i}" for i in range(24)]
        with pytest.raises(ResourceError, match="33554432 row entries"):
            pk.enumerate_polymorphisms(t22, labels)

    def test_budget_caps_the_tables_found(self, t22):
        # Pol(K2) at arity 10 has 2^512 members of 1,024 entries each: past
        # 97 tables they hold more than the budget, long before the nodes do
        labels = [f"x{i}" for i in range(10)]
        with pytest.raises(ResourceError, match="tables found hold over 100000 entries"):
            pk.enumerate_polymorphisms(t22, labels, budget=100_000)


class TestClosure:
    def test_enumerated_slices_are_closed(self, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y"), ("x", "y", "z")])
        assert pk.check_minor_closure(sl)

    def test_lone_xor_not_closed(self):
        sl = pk.MinionSlice(("0", "1"), ("0", "1"), {("u", "w"): (XOR,), ("z",): ()})
        result = pk.check_minor_closure(sl)
        assert not result
        t, pi, missing = result.counterexample
        assert missing.table in {("0", "0"), ("0", "1", "1", "0")}

    def test_single_unary_function_closed(self):
        neg = fn(("u",), ("1", "0"))
        sl = pk.MinionSlice(("0", "1"), ("0", "1"), {("u",): (neg,)})
        assert pk.check_minor_closure(sl)


def _chain_audit(xi, sl):
    """The minion-homomorphism check of xi: the chain audit at d = r = 1."""
    return pk.check_dr_homomorphism(pk.ExplicitDrTable(1, 1, {t: (xi[t],) for t in xi}), sl)


class TestMinionHomomorphism:
    def test_identity_map(self, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        xi = {t: t for t in sl.all_functions()}
        assert _chain_audit(xi, sl)

    def test_first_coordinate_collapse_is_not_a_homomorphism(self, t22):
        # sending everything to the first-coordinate projection breaks on any
        # map that moves the first coordinate
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        xi = {t: dictator(t.arity_set, ("0", "1"), t.arity_set[0]) for t in sl.all_functions()}
        result = _chain_audit(xi, sl)
        assert not result

    def test_depended_coordinate_map_is_a_homomorphism(self, t22):
        # mapping each function to the projection on the coordinate it depends
        # on commutes with minors on this slice
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        xi = {t: dictator(t.arity_set, ("0", "1"), _depended(t)[0]) for t in sl.all_functions()}
        assert _chain_audit(xi, sl)

    def test_negation_to_identity_fails_with_witness(self, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        ident = fn(("x",), ("0", "1"))
        xi = {}
        for t in sl.members(("x",)):
            xi[t] = ident
        for t in sl.members(("x", "y")):
            xi[t] = t
        result = _chain_audit(xi, sl)
        assert not result
        # the failing chain: a unary member, its minor and the map between them
        (t, s), (pi,) = result.counterexample
        assert pk.minor(xi[t], pi, target=s.arity_set) != xi[s]


def _depended(t):
    out = []
    for c in t.arity_set:
        i = t.arity_set.index(c)
        for args in t.inputs():
            flipped = list(args)
            flipped[i] = "0" if args[i] == "1" else "1"
            if t.apply(tuple(flipped)) != t.apply(args):
                out.append(c)
                break
    return out


class TestDrTables:
    def test_identity_agrees_with_minion_homomorphism(self, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        assert pk.check_dr_homomorphism(pk.IdentityDrTable(t22, r=1), sl)
        explicit = pk.ExplicitDrTable(1, 1, {t: (t,) for t in sl.all_functions()})
        assert pk.check_dr_homomorphism(explicit, sl)

    def test_explicit_and_identity_agree_on_small_maps(self, t22):
        # every (1,1) table that is a minion homomorphism passes, every one
        # that is not fails, matching the reference homomorphism check
        sl = pk.polymorphism_slice(t22, [("x",)])
        members = sl.members(("x",))
        for images in itertools.product(members, repeat=len(members)):
            xi = dict(zip(members, images))
            expect = bool(reference_minion.check_minion_homomorphism(xi, sl))
            assert bool(_chain_audit(xi, sl)) == expect

    def test_agreement_on_sampled_tables_over_the_full_slice(self, t22):
        # same agreement over the six-function slice, on seeded samples of the
        # 6^6 arity-preserving maps
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        rng = random.Random(99)
        for _ in range(120):
            xi = {
                t: rng.choice(sl.members(t.arity_set)) for t in sl.all_functions()
            }
            expect = bool(reference_minion.check_minion_homomorphism(xi, sl))
            assert bool(_chain_audit(xi, sl)) == expect

    def test_depended_coordinates_table(self, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        table = pk.ExplicitDrTable(
            1, 1,
            {t: (dictator(t.arity_set, ("0", "1"), _depended(t)[0]),) for t in sl.all_functions()},
        )
        assert pk.check_dr_homomorphism(table, sl)

    def test_each_function_checked_once_per_call(self, monkeypatch, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y"), ("x", "y", "z")])
        checked = collections.Counter()
        real = pk.minion.is_polymorphism

        def counting(t, tmpl):
            checked[t] += 1
            return real(t, tmpl)

        monkeypatch.setattr(pk.minion, "is_polymorphism", counting)
        assert pk.check_dr_homomorphism(pk.IdentityDrTable(t22, r=2), sl)
        # the identity images a member without testing it: no check at all
        assert not checked

    def test_each_minor_computed_once_per_call(self, monkeypatch, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y"), ("x", "y", "z")])
        indexed, built = collections.Counter(), []
        real_index, real_intern = pk.minion._minor_index, pk.minion._MinorGraph._intern

        def counting_index(base, arity_set, pi, target):
            indexed[tuple(arity_set), tuple(sorted(pi.items())), tuple(target)] += 1
            return real_index(base, arity_set, pi, target)

        def counting_intern(graph, key, fn=None):
            if fn is None:  # a minor table just built
                built.append(key)
            return real_intern(graph, key, fn)

        monkeypatch.setattr(pk.minion, "_minor_index", counting_index)
        monkeypatch.setattr(pk.minion._MinorGraph, "_intern", counting_intern)
        assert pk.check_dr_homomorphism(pk.IdentityDrTable(t22, r=2), sl)
        # one index per map between arities 1-3, of which there are 56
        assert len(indexed) == 56 and max(indexed.values()) == 1
        # the 644 (member, map) edges alone need 644 tables: none is built twice
        assert len(built) <= 644

    def test_chains_past_the_recursion_limit_are_decided(self, t22):
        sl = pk.polymorphism_slice(t22, [("a",)])
        table = pk.IdentityDrTable(t22, r=sys.getrecursionlimit() + 500)
        assert pk.check_dr_homomorphism(table, sl) == pk.minion.MinionCheck(True, None)

    def test_chain_pricing_reads_each_arity_set_once(self, t22):
        # pricing used to ask for the first arity set's members once per
        # arity shape, 2^7 times here
        sl = pk.polymorphism_slice(t22, [("a",), ("a", "b")])
        calls = itertools.count()

        def members(x):
            if next(calls) == 40:
                raise AssertionError("members asked for once per arity shape")
            return sl.members(x)

        view = types.SimpleNamespace(arity_sets=sl.arity_sets, members=members)
        assert pk.check_dr_homomorphism(pk.IdentityDrTable(t22, r=6), view)

    def test_an_all_empty_slice_holds_at_any_length(self, t22):
        # pricing walked every one of the 2^201 arity shapes of these chains
        sl = pk.MinionSlice("01", "01", {("a",): (), ("a", "b"): ()})
        table = pk.IdentityDrTable(t22, r=200)
        assert pk.check_dr_homomorphism(table, sl) == pk.minion.MinionCheck(True, None)

    def test_uncovered_chain_member_is_input_error(self, t22):
        sl = pk.polymorphism_slice(t22, [("x",), ("x", "y")])
        table = pk.ExplicitDrTable(1, 1, {t: (t,) for t in sl.members(("x",))})
        with pytest.raises(InputError, match="does not cover"):
            pk.check_dr_homomorphism(table, sl)

    def test_oversized_image_is_structural(self):
        neg = fn(("x",), ("1", "0"))
        ident = fn(("x",), ("0", "1"))
        with pytest.raises(StructuralError):
            pk.ExplicitDrTable(1, 1, {ident: (ident, neg)})

    def test_arity_change_is_structural(self):
        ident = fn(("x",), ("0", "1"))
        with pytest.raises(StructuralError):
            pk.ExplicitDrTable(1, 1, {ident: (XOR,)})

    @pytest.mark.parametrize(
        "t",
        [
            fn(("x",), ("1", "0")),
            fn(("x",), ("0", "0")),  # a constant function is no polymorphism of K2 -> K2
            pk.FiniteFunction(("x",), ("0", "1", "2"), ("0", "1"), ("0", "1", "0")),
        ],
        ids=["polymorphism", "non-polymorphism", "other-domains"],
    )
    def test_identity_image_is_the_function_itself(self, monkeypatch, t, t22):
        # membership is the decoder's check, made once per decoded function;
        # the image used to test it again and refuse a non-member
        def no_check(*args):
            raise AssertionError("the identity image tested membership")

        monkeypatch.setattr(pk.minion, "is_polymorphism", no_check)
        assert pk.IdentityDrTable(t22).image(t) == (t,)

    def test_payload_round_trip(self, t22):
        table = pk.IdentityDrTable(t22, r=2)
        loaded = pk.minion.dr_table_from_payload(table.to_payload())
        assert loaded.d == 1 and loaded.r == 2

    @pytest.mark.parametrize(
        "images, message",
        [
            ([], "images: expected one list per source function"),
            ([{}], "images[0]: expected a list"),
            ([[{}]], "images[0][0].arity_set: missing"),
        ],
    )
    def test_explicit_payload_names_its_json_path(self, images, message):
        ident = fn(("x",), ("0", "1"))
        payload = {**pk.ExplicitDrTable(1, 1, {ident: (ident,)}).to_payload(), "images": images}
        with pytest.raises(InputError, match=re.escape(message)):
            pk.minion.dr_table_from_payload(payload)

    @pytest.mark.parametrize("kind, key", [("identity", "r"), ("explicit", "d"), ("explicit", "r")])
    def test_a_boolean_width_or_length_is_refused(self, t22, kind, key):
        # true used to be read as 1
        ident = fn(("x",), ("0", "1"))
        table = pk.IdentityDrTable(t22) if kind == "identity" else pk.ExplicitDrTable(
            1, 1, {ident: (ident,)}
        )
        payload = {**table.to_payload(), key: True}
        with pytest.raises(InputError, match=f"^{key}: expected an integer$"):
            pk.minion.dr_table_from_payload(payload)

    @pytest.mark.parametrize(
        "d, message",
        [(7, "d: the identity table has width 1, got 7"), (None, "d: missing"),
         (True, "d: expected an integer")],
        ids=["seven", "missing", "bool"],
    )
    def test_an_identity_width_other_than_one_is_refused(self, t22, d, message):
        # the identity payload's d used to be ignored, so "d": 7 or no d at all
        # was read as a width-1 table without a word
        payload = {**pk.IdentityDrTable(t22).to_payload(), "d": d}
        if d is None:
            del payload["d"]
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            pk.minion.dr_table_from_payload(payload)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda t22: pk.IdentityDrTable(t22, r=True), "r must be a positive integer, got True"),
            (lambda t22: pk.IdentityDrTable(t22, r=2.0), "r must be a positive integer, got 2.0"),
            (lambda t22: pk.IdentityDrTable(t22, r=0), "r must be a positive integer, got 0"),
            (lambda t22: pk.ExplicitDrTable(True, 1, {}), "d must be a positive integer, got True"),
            (lambda t22: pk.ExplicitDrTable(1, 2.0, {}), "r must be a positive integer, got 2.0"),
            (lambda t22: pk.ExplicitDrTable(1, 0, {}), "r must be a positive integer, got 0"),
        ],
        ids=["identity-bool", "identity-float", "identity-zero", "explicit-bool",
             "explicit-float", "explicit-zero"],
    )
    def test_a_width_or_length_that_is_no_positive_integer_is_refused(self, t22, build, message):
        # r=True used to be written as "r": true, and r=2.0 failed in
        # gap_parameters with a TypeError
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build(t22)

    @pytest.mark.parametrize(
        "kind, message",
        [("cyclic", "unknown table kind 'cyclic'"), (1, "kind: expected a string"),
         (None, "kind: expected a string")],
    )
    def test_an_unknown_or_non_string_kind_is_refused(self, t22, kind, message):
        payload = {**pk.IdentityDrTable(t22).to_payload(), "kind": kind}
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            pk.minion.dr_table_from_payload(payload)

    def test_a_repeated_source_function_is_refused(self):
        # the later image set used to replace the earlier one without a word
        ident, neg = fn(("x",), ("0", "1")), fn(("x",), ("1", "0"))
        payload = pk.ExplicitDrTable(1, 1, {ident: (ident,), neg: (neg,)}).to_payload()
        payload["source"].append(payload["source"][0])
        payload["images"].append(payload["images"][1])
        message = "source[2]: repeats the function source[0]"
        with pytest.raises(InputError, match=re.escape(message)):
            pk.minion.dr_table_from_payload(payload)


class TestFreeRelations:
    def test_identity_graph_over_dictators(self):
        dicts = LazyDictatorSlice(("0", "1"))
        lift = pk.free_relation(("0", "1"), dicts, [("0", "0"), ("1", "1")])
        e0 = dictator(("0", "1"), ("0", "1"), "0")
        e1 = dictator(("0", "1"), ("0", "1"), "1")
        assert lift == frozenset({(e0, e0), (e1, e1)})

    def test_full_relation_gives_all_pairs(self):
        dicts = LazyDictatorSlice(("0", "1"))
        lift = pk.free_relation(("0", "1"), dicts, list(itertools.product("01", repeat=2)))
        assert len(lift) == 4

    def test_constant_graph_forces_second_component(self):
        dicts = LazyDictatorSlice(("0", "1"))
        lift = pk.free_relation(("0", "1"), dicts, [("0", "1"), ("1", "1")])
        e1 = dictator(("0", "1"), ("0", "1"), "1")
        assert {pair[1] for pair in lift} == {e1}

    def test_empty_relation_rejected(self):
        with pytest.raises(InputError):
            pk.free_relation(("0", "1"), LazyDictatorSlice(("0", "1")), [])

    def test_nonempty_over_polymorphisms(self, t22):
        pol = pk.LazyPolymorphismSlice(t22)
        for rel in ([("0", "1")], [("0", "0"), ("1", "1")], [("0", "1"), ("1", "0")]):
            assert pk.free_relation(("0", "1"), pol, rel)


class TestPartialMapDecode:
    def test_identity_on_dictators(self):
        dicts = LazyDictatorSlice(("0", "1"))
        e0 = dictator(("0", "1"), ("0", "1"), "0")
        pair = pk.decode_partial_map_constraint(
            e0, e0, ("0", "1"), ("0", "1"), {"0": "0", "1": "1"}, dicts
        )
        assert pair is not None
        assert pair[0] == e0 and pair[1] == e0

    def test_restriction_to_proper_subset(self):
        dicts = LazyDictatorSlice(("0", "1"))
        e0 = dictator(("0", "1"), ("0", "1"), "0")
        pair = pk.decode_partial_map_constraint(
            e0, e0, ("0",), ("0", "1"), {"0": "0"}, dicts
        )
        assert pair is not None
        t1, t2 = pair
        assert t1.arity_set == ("0",)
        assert pk.minor(t1, {"0": "0"}, target=("0", "1")) == t2

    def test_membership_equivalence_exhaustive(self, t22):
        # lifted-relation membership and decoder success agree for every pair
        # of carrier functions, every partial map, over both slices
        c = ("0", "1")
        for slice_ in (LazyDictatorSlice(c), pk.LazyPolymorphismSlice(t22)):
            members = slice_.members(c)
            for c1_size, c2_size in itertools.product((1, 2), repeat=2):
                for c1 in itertools.combinations(c, c1_size):
                    for c2 in itertools.combinations(c, c2_size):
                        for images in itertools.product(c2, repeat=len(c1)):
                            pi = dict(zip(c1, images))
                            graph = sorted({(a, pi[a]) for a in c1})
                            lifted = pk.free_relation(c, slice_, graph)
                            for s1, s2 in itertools.product(members, repeat=2):
                                member = (s1, s2) in lifted
                                decoded = pk.decode_partial_map_constraint(
                                    s1, s2, c1, c2, pi, slice_
                                )
                                assert member == (decoded is not None)

    def test_restriction_to_none_when_dependent(self):
        assert restriction_to(XOR, ("u",)) is None

    def test_function_payload_round_trip(self):
        assert pk.FiniteFunction.from_payload(XOR.to_payload()) == XOR


# -- the index-arithmetic kernel against the former one -------------------------

K3 = pk.complete_graph(3)
# a non-symmetric binary relation next to a unary one
ORDER = pk.PcspTemplate(
    pk.structure("01", lt=(2, {("0", "0"), ("0", "1")}), one=(1, {("1",)})),
    pk.structure("01", lt=(2, {("0", "0"), ("0", "1"), ("1", "1")}), one=(1, {("1",)})),
)
# 1-in-3 against not-all-equal: a ternary relation
ONE_IN_THREE = pk.PcspTemplate(
    pk.structure("01", r=(3, {("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")})),
    pk.structure("01", r=(3, set(itertools.product("01", repeat=3)) - {("0",) * 3, ("1",) * 3})),
)
TEMPLATES = {
    "k2k2": pk.PcspTemplate(pk.complete_graph(2), pk.complete_graph(2)),
    "k2k3": pk.PcspTemplate(pk.complete_graph(2), K3),
    "k3k3": pk.PcspTemplate(K3, K3),
    "order": ORDER,
    "one_in_three": ONE_IN_THREE,
}
LABELS = ("a", "b", "c", "d", "e")


@st.composite
def small_templates(draw):
    """A template on 2-3 atoms per side with up to two relations of arity
    1-3, or none: each relaxed relation holds the strict one's image under one
    random map of the domains, so the template is valid, and a few more tuples."""
    a = ("0", "1", "2")[: draw(st.integers(2, 3))]
    b = ("0", "1", "2")[: draw(st.integers(2, 3))]
    h = {x: draw(st.sampled_from(b)) for x in a}
    strict, relaxed = {}, {}
    for name in ("r", "s")[: draw(st.integers(0, 2))]:
        arity = draw(st.integers(1, 3))
        tuples = draw(st.sets(st.tuples(*[st.sampled_from(a)] * arity), min_size=1, max_size=4))
        more = draw(st.sets(st.tuples(*[st.sampled_from(b)] * arity), max_size=4))
        strict[name] = (arity, tuples)
        relaxed[name] = (arity, {tuple(h[x] for x in t) for t in tuples} | more)
    return pk.PcspTemplate(pk.structure(a, **strict), pk.structure(b, **relaxed))


@st.composite
def functions(draw, in_domain=("0", "1"), out_domain=("0", "1"), min_arity=1, max_arity=4):
    """A table at arity 1-4: a projection with a few entries rewritten, or
    uniformly random, so both members and non-members of a slice come up."""
    n = draw(st.integers(min_arity, max_arity))
    arity = tuple(sorted(draw(st.permutations(LABELS))[:n]))
    size = len(in_domain) ** n
    if draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        table = [args[c] if args[c] in out_domain else out_domain[0]
                 for args in itertools.product(in_domain, repeat=n)]
        for _ in range(draw(st.integers(0, 2))):
            table[draw(st.integers(0, size - 1))] = draw(st.sampled_from(out_domain))
    else:
        table = draw(st.lists(st.sampled_from(out_domain), min_size=size, max_size=size))
    return pk.FiniteFunction(arity, in_domain, out_domain, table)


class TestKernelAgainstReference:
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_enumeration_is_the_same(self, name):
        template = TEMPLATES[name]
        # the reference refuses K3->K3 at arity 3: 3^27 candidate tables
        for n in (1, 2) if name == "k3k3" else (1, 2, 3):
            arity = LABELS[:n]
            expected = reference_minion.enumerate_polymorphisms(template, arity)
            assert pk.enumerate_polymorphisms(template, arity) == expected

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(template=small_templates(), data=st.data())
    def test_enumeration_on_random_templates(self, template, data):
        # the reference tries every table: keep it to at most 3^8 of them
        a, b = len(template.strict.domain), len(template.relaxed.domain)
        n = data.draw(st.integers(1, 3 if a == 2 else 2 if b == 2 else 1))
        arity = LABELS[:n]
        assert pk.enumerate_polymorphisms(template, arity) == (
            reference_minion.enumerate_polymorphisms(template, arity)
        )

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_membership_is_the_same(self, name, data):
        template = TEMPLATES[name]
        t = data.draw(functions(template.strict.domain, template.relaxed.domain))
        expected = reference_minion.is_polymorphism(t, template)
        assert pk.is_polymorphism(t, template) == expected
        # matrices past the block size are walked block by block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pk.minion, "_BLOCK", 3)
            assert pk.is_polymorphism(t, template) == expected

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_minor_is_the_same(self, data):
        domain = data.draw(st.sampled_from([("0", "1"), ("0", "1", "2")]))
        t = data.draw(functions(domain, domain))
        images = data.draw(st.lists(st.sampled_from(LABELS), min_size=len(t.arity_set),
                                    max_size=len(t.arity_set)))
        pi = dict(zip(t.arity_set, images))
        target = None
        if data.draw(st.booleans()):
            target = set(images) | set(data.draw(st.lists(st.sampled_from(LABELS), max_size=3)))
        assert pk.minor(t, pi, target=target) == reference_minion.minor(t, pi, target=target)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_apply_is_the_same(self, data):
        domain = data.draw(st.sampled_from([("0", "1"), ("0", "1", "2")]))
        t = data.draw(functions(domain, domain))
        args = data.draw(st.lists(st.sampled_from(domain), min_size=len(t.arity_set),
                                  max_size=len(t.arity_set)))
        mapping = dict(zip(t.arity_set, args))
        expected = reference_minion.apply(t, tuple(args))
        for assignment in (mapping, types.MappingProxyType(mapping), tuple(args)):
            assert reference_minion.apply(t, assignment) == expected
            assert t.apply(assignment) == expected

    @pytest.mark.parametrize("domain", [("0", "1"), ("0", "1", "2")])
    def test_dictators_are_the_same(self, domain):
        for n in (1, 2, 3):
            arity = LABELS[:n]
            for c in arity:
                assert dictator(arity, domain, c) == reference_minion.function_from_callable(
                    arity, domain, domain, lambda g: g[c]
                )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        arity=st.one_of(
            st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=1, max_size=6, unique=True),
            st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True),
        ),
        domain=st.lists(st.sampled_from("0123ab"), min_size=1, max_size=3, unique=True),
    )
    def test_block_built_dictators_are_the_minor_route_ones(self, arity, domain):
        # the arity set and the domain come unsorted, as callers may pass them
        for c in arity:
            fast, slow = dictator(arity, domain, c), reference_minion.dictator(arity, domain, c)
            assert (fast.arity_set, fast.in_domain, fast.out_domain, fast.table) == (
                slow.arity_set, slow.in_domain, slow.out_domain, slow.table
            )


NAE = pk.structure("01", r=(3, set(itertools.product("01", repeat=3)) - {("0",) * 3, ("1",) * 3}))
CACHED = {
    "k2k2": TEMPLATES["k2k2"],
    "k3k3": TEMPLATES["k3k3"],
    "k2k3": TEMPLATES["k2k3"],
    "nae": pk.PcspTemplate(NAE, NAE),
    "one_in_three": ONE_IN_THREE,
}


class TestRowIndexCache:
    """The matrix row indices are built once per template value and arity,
    as int arrays, and read as the uncached lists were."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(CACHED)), n=st.integers(1, 5),
           block=st.sampled_from([3, 1 << 16]), data=st.data())
    def test_cached_rows_are_the_uncached_lists(self, name, n, block, data):
        template = CACHED[name]
        expected = reference_minion.row_index_sets(template, n, block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pk.minion, "_BLOCK", block)
            for _ in range(2):  # built, then looked up
                got = pk.minion._row_index_sets(template, n)
                assert [
                    (rel, target, [[list(c) for c in coord] for coord in head],
                     [list(row) for row in tail])
                    for rel, target, head, tail in got
                ] == expected
                size = len(template.strict.domain) ** n
                code = "B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I"
                assert all(row.typecode == code for _, _, _, tail in got for row in tail)
            t = data.draw(functions(template.strict.domain, template.relaxed.domain,
                                    min_arity=n, max_arity=n))
            assert pk.is_polymorphism(t, template) == reference_minion.is_polymorphism(t, template)

    def test_templates_sharing_a_strict_side_keep_their_own_rows(self, t22, t23):
        # (K2,K2) and (K2,K3) have one strict side: rows keyed by it alone
        # would check the second template against the first one's relaxed edges
        pk.minion._row_sets.cache_clear()
        negation = fn(("x", "y"), ("1", "1", "0", "0"))
        constant = fn(("x", "y"), ("0", "0", "0", "0"))
        # a member of Pol(K2,K3) that is not in Pol(K2,K2): it takes the value 2
        first_to_two = pk.FiniteFunction(("x", "y"), "01", "012", ("0", "0", "2", "2"))
        for _ in range(2):
            assert pk.is_polymorphism(negation, t22)
            assert not pk.is_polymorphism(constant, t22)
            assert pk.is_polymorphism(first_to_two, t23)

    def test_one_build_per_template_value_and_arity(self, k2):
        pk.minion._row_sets.cache_clear()
        for _ in range(3):  # equal templates, built apart
            pk.is_polymorphism(fn(("x", "y"), ("0", "0", "1", "1")), pk.PcspTemplate(k2, k2))
        assert pk.minion._row_sets.cache_info()[:2] == (2, 1)  # hits, misses


class TestMinorFastPath:
    def test_an_order_preserving_relabelling_keeps_the_table(self, monkeypatch):
        monkeypatch.setattr(pk.minion, "_minor_index", None)
        t = pk.FiniteFunction((0, 1, 2), "01", "01", MAJ.table)
        pi = {0: "a", 1: "b", 2: "c"}
        assert pk.minor(t, pi) == pk.FiniteFunction(("a", "b", "c"), "01", "01", MAJ.table)
        assert pk.minor(t, pi, target="abc").table is t.table

    @pytest.mark.parametrize("target", [None, ("a+,x", "a,x", "b")])
    def test_a_bijection_out_of_order_is_reindexed(self, target):
        # ("a", "x") < ("a+", "x") as tuples, but "a+,x" < "a,x" as labels
        labels = [tuple_label(t) for t in sorted([("a", "x"), ("a+", "x")])]
        assert labels == ["a,x", "a+,x"]
        first = pk.FiniteFunction((0, 1), "01", "01", ("0", "0", "1", "1"))
        pi = dict(enumerate(labels))
        got = pk.minor(first, pi, target=target)
        assert got == reference_minion.minor(first, pi, target=target)
        if target is None:
            assert got.table == ("0", "1", "0", "1")


class TestTableValidation:
    @pytest.mark.parametrize(
        "table, named",
        [
            (("0", "2", "3", "1"), "'2'"),
            (("0", "5", ["1"], "1"), "'5'"),
            ((["1"], "5", "0", "1"), r"\['1'\]"),
        ],
    )
    def test_the_first_value_outside_the_domain_is_named(self, table, named):
        with pytest.raises(InputError, match=f"^table value {named} outside the output domain$"):
            fn(("x", "y"), table)


class TestTrustedBuilds:
    """The builders that skip validation, because they assemble a function
    from parts already checked, build what the validating constructor builds:
    an equal function with the same hash and tuple fields."""

    @staticmethod
    def _as_validated(f):
        again = pk.FiniteFunction(f.arity_set, f.in_domain, f.out_domain, f.table)
        assert f == again and hash(f) == hash(again)
        assert all(type(v) is tuple for v in (f.arity_set, f.in_domain, f.out_domain, f.table))

    @pytest.mark.parametrize("labels, message", [
        ((), "arity set must be nonempty"), (("a", "a"), "arity set has repeated labels"),
    ])
    def test_a_builder_refuses_an_arity_set_it_cannot_trust(self, t22, labels, message):
        negation = fn(("a",), ("1", "0"))
        for build in (
            lambda: pk.enumerate_polymorphisms(t22, labels),
            lambda: restriction_to(negation, labels),
            lambda: pk.MinionSlice("01", "01", {labels: []}),
        ):
            with pytest.raises(InputError, match=f"^{message}$"):
                build()

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(TEMPLATES)), data=st.data())
    def test_every_trusted_builder(self, name, data):
        template = TEMPLATES[name]
        a, b = template.strict.domain, template.relaxed.domain

        def labels(most=3):
            """1 to `most` distinct labels, unsorted."""
            return data.draw(st.permutations(LABELS))[: data.draw(st.integers(1, most))]

        def function_on(x):
            size = len(a) ** len(x)
            table = data.draw(st.lists(st.sampled_from(b), min_size=size, max_size=size))
            return pk.FiniteFunction(x, a, b, table)

        built = list(pk.enumerate_polymorphisms(template, labels(3 if len(a) == 2 else 2)))
        t = function_on(labels())
        pi = {x: data.draw(st.sampled_from(LABELS)) for x in t.arity_set}
        image = data.draw(st.permutations(sorted(set(pi.values()))))
        for target in (None, data.draw(st.permutations(image + labels()))):
            s = pk.minor(t, pi, target=target)
            built += [s, restriction_to(s, image)]
        x = labels()
        built.append(dictator(x, data.draw(st.permutations(a)), data.draw(st.sampled_from(x))))
        # members that need not be closed under minors, so minors off the
        # slice are interned too
        members = {}
        for _ in range(2):
            x = tuple(sorted(labels()))
            members[x] = [function_on(x) for _ in range(data.draw(st.integers(0, 2)))]
        built += pk.minion._MinorGraph(pk.MinionSlice(a, b, members), list(members)).functions
        for f in built:
            self._as_validated(f)


# Pol(K2,K2) at arities 1-3 and Pol(K2,K3) at arities 1-2.
AUDITED = {
    "k2k2": pk.polymorphism_slice(TEMPLATES["k2k2"], [LABELS[:n] for n in (1, 2, 3)]),
    "k2k3": pk.polymorphism_slice(TEMPLATES["k2k3"], [LABELS[:n] for n in (1, 2)]),
}


def _xi(f):
    """x -> [f(x) > f(not x)]: a minion homomorphism from Pol(K2,K3) to
    Pol(K2,K2), and the identity on Pol(K2,K2)."""
    n = len(f.table)
    return fn(f.arity_set, ["1" if f.table[i] > f.table[n - 1 - i] else "0" for i in range(n)])


@st.composite
def _images(draw, t):
    """A function of t's arity over {0,1}: a member of Pol(K2,K2) or any table."""
    if draw(st.booleans()):
        return draw(st.sampled_from(AUDITED["k2k2"].members(t.arity_set)))
    size = len(t.table)
    return fn(t.arity_set, draw(st.lists(st.sampled_from("01"), min_size=size, max_size=size)))


@st.composite
def _rewritten_xi(draw, members):
    """x -> [f(x) > f(not x)] with a few images rewritten, so the audits see
    both homomorphisms and maps that fail somewhere."""
    xi = {t: [_xi(t)] for t in members}
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.sampled_from(members))
        xi[t] = [draw(_images(t))]
    return xi


def _outcome(audit, *args):
    try:
        return audit(*args)
    except (InputError, ResourceError, StructuralError) as exc:
        return type(exc), str(exc)


class TestTablePayloads:
    """Each table kind reads back from its payload to the same canonical bytes."""

    @staticmethod
    def _round_trip(table):
        text = jsonio.canonical_dumps(table.to_payload())
        loaded = pk.minion.dr_table_from_payload(json.loads(text))
        assert type(loaded) is type(table)
        assert jsonio.canonical_dumps(loaded.to_payload()) == text

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(name=st.sampled_from(("k2k2", "k3k3", "k2k3")), r=st.integers(1, 3))
    def test_an_identity_table(self, name, r):
        self._round_trip(pk.IdentityDrTable(TEMPLATES[name], r=r))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_an_explicit_table(self, data):
        members = list(AUDITED[data.draw(st.sampled_from(sorted(AUDITED)))].all_functions())
        mapping = data.draw(_rewritten_xi(members))
        d, r = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
        for t in members if d == 2 else ():
            if data.draw(st.integers(0, 3)) == 0:
                mapping[t].append(data.draw(_images(t)))
        self._round_trip(pk.ExplicitDrTable(d, r, mapping))


class TestAuditsAgainstReference:
    """The audits over one minor graph against the audits that minor every
    member along every map where they meet it: the same answer, the same first
    counterexample and the same error."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_chain_audit_is_the_same(self, data):
        sl = AUDITED[data.draw(st.sampled_from(sorted(AUDITED)))]
        members = list(sl.all_functions())
        d, r = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        mapping = data.draw(_rewritten_xi(members))
        for _ in range(data.draw(st.integers(0, 3)) if d == 2 else 0):
            t = data.draw(st.sampled_from(members))
            g = data.draw(_images(t))
            if g not in mapping[t]:
                mapping[t].insert(data.draw(st.integers(0, 1)), g)
        if data.draw(st.integers(0, 5)) == 0:
            del mapping[data.draw(st.sampled_from(members))]
        table = pk.ExplicitDrTable(d, r, mapping)
        budget = data.draw(st.sampled_from((pk.minion.DEFAULT_BUDGET, 2_000, 20_000)))
        assert _outcome(pk.check_dr_homomorphism, table, sl, budget) == _outcome(
            reference_minion.check_dr_homomorphism, table, sl, budget
        )

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_homomorphism_audit_is_the_same(self, data):
        # the reference homomorphism check against the chain audit at d = r = 1,
        # run on the slice restricted to the arities the reference declares
        sl = AUDITED[data.draw(st.sampled_from(sorted(AUDITED)))]
        members = list(sl.all_functions())
        xi = {t: images[0] for t, images in data.draw(_rewritten_xi(members)).items()}
        if data.draw(st.integers(0, 5)) == 0:
            del xi[data.draw(st.sampled_from(members))]
        if data.draw(st.integers(0, 5)) == 0:
            xi[data.draw(st.sampled_from(members))] = fn(("z",), ("0", "1"))
        declared, audited = None, sl
        if data.draw(st.booleans()):
            pool = sl.arity_sets + (LABELS[1:3],)
            declared = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            audited = pk.MinionSlice(sl.in_domain, sl.out_domain, {x: sl.members(x) for x in declared})
        covered = {t: xi[t] for t in audited.all_functions() if t in xi}
        expected = _outcome(reference_minion.check_minion_homomorphism, xi, sl, declared)
        got = _outcome(_chain_audit, covered, audited)
        if isinstance(expected, pk.minion.MinionCheck):
            assert isinstance(got, pk.minion.MinionCheck) and got.ok == expected.ok
            if declared is None and not expected:
                t, pi, s = expected.counterexample
                assert got.counterexample == ((t, s), (pi,))
        elif any(g.arity_set != t.arity_set for t, g in covered.items()):
            # the table refuses an image off its function's arity when it is
            # built, even where the reference first meets a member xi misses
            assert got[0] is StructuralError
        else:
            assert got[0] is expected[0] is InputError

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_closure_audit_is_the_same(self, data):
        full = AUDITED[data.draw(st.sampled_from(sorted(AUDITED)))]
        arities = data.draw(st.lists(st.sampled_from(full.arity_sets), min_size=1, unique=True))
        grouped = {}
        for x in arities:
            # most members, and now and then a table that is no member
            grouped[x] = [t for t in full.members(x) if data.draw(st.integers(0, 3))]
            if data.draw(st.integers(0, 2)) == 0:
                size = len(full.in_domain) ** len(x)
                table = data.draw(st.lists(st.sampled_from(full.out_domain),
                                           min_size=size, max_size=size))
                grouped[x].append(pk.FiniteFunction(x, full.in_domain, full.out_domain, table))
        sl = pk.MinionSlice(full.in_domain, full.out_domain, grouped)
        assert pk.check_minor_closure(sl) == reference_minion.check_minor_closure(sl)

    # Pol(K2,K2) at arities 1-3 lists the unary identity and negation first,
    # then the binary dictators on a and on b.
    ID, NEG = AUDITED["k2k2"].members(LABELS[:1])
    ON_A, ON_B = AUDITED["k2k2"].members(LABELS[:2])[:2]

    def _r2_table(self, uncovered, remapped):
        """The identity on Pol(K2,K2) at r=2, without `uncovered` and with
        the images of `remapped` replaced."""
        mapping = {t: (t,) for t in AUDITED["k2k2"].all_functions()}
        del mapping[uncovered]
        mapping.update(remapped)
        return pk.ExplicitDrTable(1, 2, mapping)

    def test_uncovered_member_in_a_skipped_subtree_raises(self):
        # ID -> ID admits its pair, so the walk skips the chains below it; ON_B
        # is first met there, before the failing chain ID -> ON_A -> ON_A.
        table = self._r2_table(self.ON_B, {self.ON_A: (self.ON_B,)})
        expected = _outcome(reference_minion.check_dr_homomorphism, table, AUDITED["k2k2"])
        assert expected == (InputError, "table does not cover a function of arity ('a', 'b')")
        assert _outcome(pk.check_dr_homomorphism, table, AUDITED["k2k2"]) == expected

    def test_uncovered_member_is_refused_before_any_chain(self):
        # the chain ID -> ON_A -> ON_A fails, but every member is imaged first
        table = self._r2_table(self.NEG, {self.ON_A: (self.ON_B,)})
        expected = _outcome(reference_minion.check_dr_homomorphism, table, AUDITED["k2k2"])
        assert expected == (InputError, "table does not cover a function of arity ('a',)")
        assert _outcome(pk.check_dr_homomorphism, table, AUDITED["k2k2"]) == expected

    def test_images_over_another_out_domain_stay_apart(self, t23):
        # Pol(K2,K3) twins of Pol(K2,K2) members: the same tables, out-domain {0,1,2}
        sl = AUDITED["k2k2"]
        twin = {t: pk.FiniteFunction(t.arity_set, "01", "012", t.table)
                for t in sl.all_functions()}
        assert all(pk.is_polymorphism(g, t23) for g in twin.values())
        # every twin: the inclusion of Pol(K2,K2) into Pol(K2,K3)
        assert reference_minion.check_minion_homomorphism(twin, sl)
        assert _chain_audit(twin, sl)
        # twins at arities 1 and 3 only: a twin's minor has a member's table,
        # but another out-domain, and must not be taken for that member
        mixed = {t: g if len(t.arity_set) != 2 else t for t, g in twin.items()}
        table = pk.ExplicitDrTable(1, 1, {t: (g,) for t, g in mixed.items()})
        expected = reference_minion.check_dr_homomorphism(table, sl)
        assert not expected and pk.check_dr_homomorphism(table, sl) == expected
        t, pi, s = reference_minion.check_minion_homomorphism(mixed, sl).counterexample
        assert _chain_audit(mixed, sl).counterexample == ((t, s), (pi,))
