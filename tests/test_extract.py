"""Solution extraction from consistent low-value sequences."""

import itertools

import pytest

import pcspkit as pk
from pcspkit.errors import ParameterError, StructuralError
from pcspkit.pas import _first_superset, _proj, _subset_selector

from conftest import seeded_value1_sequence
from test_pas import two_global_pas


class TestBaseCase:
    def test_restrictions_return_position_one(self):
        variables = [f"v{i}" for i in range(5)]
        f = {v: ("1" if v == "v2" else "0") for v in variables}
        params = pk.gap_parameters(2, 1, (1, 1))
        seq = pk.PasSequence(
            [pk.pas_from_assignment(f, variables, ["0", "1"], k) for k in params.k]
        )
        result = pk.extract_solution(seq, params, 1)
        assert result.index == 1
        assert result.assignment.mapping == f

    def test_seeded_consistent_sequences(self):
        params = pk.gap_parameters(2, 1, (1, 1))
        for seed in range(25):
            seq = seeded_value1_sequence(seed)
            result = pk.extract_solution(seq, params, 1)
            assert pk.is_m_solution(result.assignment, seq[result.index], 1)

    def test_extraction_beats_brute_force_search(self):
        # exhaustive baseline: some assignment over the full domain must be a
        # 1-solution of one of the systems, and extraction finds such
        params = pk.gap_parameters(2, 1, (1, 1))
        seq = seeded_value1_sequence(424)
        variables = seq[0].variables
        result = pk.extract_solution(seq, params, 1)
        brute = False
        for values in itertools.product(["0", "1"], repeat=len(variables)):
            f = pk.Assignment(dict(zip(variables, values)))
            if any(pk.is_m_solution(f, s, 1) for s in seq.systems):
                brute = True
                break
        assert brute
        assert pk.is_m_solution(result.assignment, seq[result.index], 1)


class TestSplitBranch:
    def test_head_one_tail_two_runs_the_split(self):
        # values (1, 2) drive the second position through the split-and-recurse
        # branch; a restriction sequence always passes its selector search
        params = pk.gap_parameters(2, 1, (1, 2))
        variables = [f"w{idx:02d}" for idx in range(params.k[0])]
        f = {v: ("1" if idx % 3 == 0 else "0") for idx, v in enumerate(variables)}
        seq = pk.PasSequence(
            [pk.pas_from_assignment(f, variables, ["0", "1"], k) for k in params.k]
        )
        result = pk.extract_solution(seq, params, 1)
        assert result.index == 1
        assert result.assignment.mapping == f

    def test_value_two_position_zero(self):
        # values (2, 1): position one is handled by the selector lift even when
        # position zero genuinely has two-element entries
        params = pk.gap_parameters(2, 1, (2, 1))
        variables = [f"v{i}" for i in range(5)]
        f = {v: "0" for v in variables}
        g = {v: "1" for v in variables}
        head = two_global_pas(variables, ["0", "1"], params.k[0], f, g)
        tail = pk.pas_from_assignment(f, variables, ["0", "1"], params.k[1])
        seq = pk.PasSequence([head, tail])
        result = pk.extract_solution(seq, params, 1)
        assert pk.is_m_solution(result.assignment, seq[result.index], 1)


class TestExtensionStage:
    def test_a_blocked_position_reaches_the_extension_search(self):
        # compact mode at m=2 and values (1, 1) gives k=(4, 4).  Over x0..x4,
        # the entry without xj sets x0 = j mod 2 and every other variable to 0,
        # so the sequence is consistent and position one is blocked at x0.
        # The extension search on {x0} then needs arity 2**1 * 4 + 1 = 9, the
        # conservative k[0] the pipeline picks past k[0] variables.
        params = pk.gap_parameters(2, 2, (1, 1))
        assert (params.mode, params.k) == ("compact", (4, 4))
        variables = [f"x{i}" for i in range(5)]
        entries = {}
        for j in range(5):
            key = tuple(x for x in variables if x != f"x{j}")
            entries[key] = {tuple(str(j % 2) if x == "x0" else "0" for x in key)}
        system = pk.Pas(variables, ["0", "1"], 4, entries)
        seq = pk.PasSequence([system, system])
        assert pk.check_consistent(seq)
        assert _subset_selector(system, params.l[1], 1) == ({}, ("x0",))
        with pytest.raises(
            ParameterError, match=r"^extension search needs arity >= 9, system has 4$"
        ):
            pk.extract_solution(seq, params, 2)


class TestRefinementHelpers:
    # the refine-and-strip stage of the recursion is unreachable end to end at
    # desk-scale parameters (the selector searches always succeed there), so
    # its building blocks are exercised directly
    def setup_method(self):
        self.variables = [f"v{i}" for i in range(5)]
        self.f = {v: "0" for v in self.variables}
        self.g = {v: "1" for v in self.variables}
        self.system = two_global_pas(self.variables, ["0", "1"], 3, self.f, self.g)

    def test_avoiding_superset_avoids(self):
        single = pk.pas_from_assignment(self.f, self.variables, ["0", "1"], 3)
        u = _first_superset(single, ("v0",), ("1",), {"v1"}, extends=False)
        assert set(("v0", "v1")) <= set(u)
        assert all(_proj(hh, u, ("v0",)) != ("1",) for hh in single.entries[u])

    def test_avoiding_superset_skips_extending_entries(self):
        # one entry extends the value, so the search must pass over it
        entries = {}
        for u in itertools.combinations(self.variables, 3):
            value = "1" if u == ("v0", "v1", "v2") else "0"
            entries[u] = frozenset({tuple(value if x == "v0" else "0" for x in u)})
        system = pk.Pas(self.variables, ["0", "1"], 3, entries)
        u = _first_superset(system, ("v0",), ("1",), set(), extends=False)
        assert u != ("v0", "v1", "v2")
        assert all(_proj(hh, u, ("v0",)) != ("1",) for hh in system.entries[u])

    def test_extending_superset_extends(self):
        u = _first_superset(self.system, ("v0",), ("1",), {"v2"}, extends=True)
        assert any(_proj(hh, u, ("v0",)) == ("1",) for hh in self.system.entries[u])

    def test_strip_drops_the_value(self):
        # removing every extension of one global drops a two-global system to
        # the restriction system of the other
        xs = ("v0",)
        fval = ("0",)
        survivors = {}
        for y in itertools.combinations(self.variables, 2):
            u = _first_superset(self.system, xs, fval, set(y), extends=True)
            survivors[y] = frozenset(
                _proj(entry, u, y)
                for entry in self.system.entries[u]
                if _proj(entry, u, xs) != fval
            )
        stripped = pk.Pas(self.variables, ["0", "1"], 2, survivors)
        assert stripped == pk.pas_from_assignment(self.g, self.variables, ["0", "1"], 2)
        assert pk.pas_value(stripped) == 1


class TestInputValidation:
    def test_arity_mismatch_refused(self):
        params = pk.gap_parameters(2, 1, (1, 1))
        f = {v: "0" for v in ["a", "b", "c", "d"]}
        seq = pk.PasSequence(
            [pk.pas_from_assignment(f, f, ["0", "1"], k) for k in (4, 2)]
        )
        with pytest.raises(StructuralError):
            pk.extract_solution(seq, params, 1)

    def test_value_bound_refused(self):
        params = pk.gap_parameters(2, 1, (1, 1))
        variables = ["a", "b", "c", "d"]
        f = {v: "0" for v in variables}
        g = {v: "1" for v in variables}
        seq = pk.PasSequence(
            [
                two_global_pas(variables, ["0", "1"], 3, f, g),
                pk.pas_from_assignment(f, variables, ["0", "1"], 2),
            ]
        )
        with pytest.raises(StructuralError):
            pk.extract_solution(seq, params, 1)

    def test_inconsistent_input_refused(self):
        params = pk.gap_parameters(2, 1, (1, 1))
        variables = ["a", "b", "c"]
        f = {v: "0" for v in variables}
        g = {v: "1" for v in variables}
        seq = pk.PasSequence(
            [
                pk.pas_from_assignment(f, variables, ["0", "1"], 3),
                pk.pas_from_assignment(g, variables, ["0", "1"], 2),
            ]
        )
        with pytest.raises(StructuralError):
            pk.extract_solution(seq, params, 1)

    def test_mismatched_m_refused(self):
        params = pk.gap_parameters(2, 1, (1, 1))
        f = {v: "0" for v in ["a", "b", "c"]}
        seq = pk.PasSequence(
            [pk.pas_from_assignment(f, f, ["0", "1"], k) for k in params.k]
        )
        with pytest.raises(ParameterError):
            pk.extract_solution(seq, params, 2)
