"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is either computed by an independent oracle inside
the test (brute force, exhaustive enumeration, a second implementation) or is
a frozen golden value that such an oracle produced.
"""

import itertools
from math import comb

import pcspkit as pk
from pcspkit import jsonio
from pcspkit.cli import main as cli_main
from pcspkit.minion import LazyDictatorSlice
from pcspkit.reduction import _pad_instance

from conftest import (
    all_graph_instances,
    all_unary_instances,
    record_criterion,
    seeded_value1_sequence,
)


def test_criterion_1_desk_scale_gap_theorem(unary_side):
    """Exact value-1 oracle agrees with brute-force solvability on every
    canonical single-variable-constraint instance over four variables."""
    params = pk.gap_parameters(2, 1, (1, 1))
    assert params.k == (3, 2)
    checked = 0
    for phi in all_unary_instances(4):
        solvable = pk.brute_force_solve(phi, unary_side) is not None
        oracle = pk.csp_value_oracle(phi, unary_side, params.k, 1)
        assert oracle == solvable, phi.to_payload()
        checked += 1
    record_criterion(
        "criterion 1: desk-scale gap dichotomy at k=(3,2)",
        checked == 256,
        f"{checked} instances, zero tolerance",
    )


def test_criterion_2_extraction_on_seeded_sequences():
    """200 seeded consistent value-1 sequences all extract verified 1-solutions."""
    params = pk.gap_parameters(2, 1, (1, 1))
    successes = 0
    for seed in range(200):
        seq = seeded_value1_sequence(seed)
        result = pk.extract_solution(seq, params, 1)
        if pk.is_m_solution(result.assignment, seq[result.index], 1):
            successes += 1
    record_criterion(
        "criterion 2: extraction correctness on 200 seeded runs",
        successes == 200,
        f"{successes}/200",
    )


def test_criterion_3_llc_reduction_equivalence(unary_side):
    """Width-one layered value of the reduced instance tracks solvability."""
    checked = 0
    for phi in all_unary_instances(4):
        solvable = pk.brute_force_solve(phi, unary_side) is not None
        reduced = pk.reduce_mcsp_to_llc(phi, unary_side, (3, 2))
        value = pk.combinatorial_layered_value(reduced, 1).value
        assert (value == 1) == solvable, phi.to_payload()
        checked += 1
    record_criterion(
        "criterion 3: layered-value equivalence at k=(3,2)",
        checked == 256,
        f"{checked} instances, zero tolerance",
    )


def _independent_polymorphism_count(strict, relaxed, arity):
    """Plain nested-loop enumerator, sharing no code with the library."""
    a, b = sorted(strict.domain), sorted(relaxed.domain)
    count = 0
    for table in itertools.product(b, repeat=len(a) ** arity):
        lookup = dict(zip(itertools.product(a, repeat=arity), table))
        good = True
        for name, rel in strict.relations.items():
            target = relaxed.relations[name].tuples
            for cols in itertools.product(sorted(rel.tuples), repeat=arity):
                image = tuple(
                    lookup[tuple(cols[j][i] for j in range(arity))]
                    for i in range(rel.arity)
                )
                if image not in target:
                    good = False
                    break
            if not good:
                break
        if good:
            count += 1
    return count


def test_criterion_4_polymorphism_counts_and_closure(t22, t23, k2, k3):
    golden = {
        ("k2k2", 1): 2,
        ("k2k2", 2): 4,
        ("k2k3", 1): 6,
    }
    got = {
        ("k2k2", 1): len(pk.enumerate_polymorphisms(t22, ("x",))),
        ("k2k2", 2): len(pk.enumerate_polymorphisms(t22, ("x", "y"))),
        ("k2k3", 1): len(pk.enumerate_polymorphisms(t23, ("x",))),
    }
    assert got == golden
    # cross-check the golden values with the independent enumerator
    assert _independent_polymorphism_count(k2, k2, 1) == 2
    assert _independent_polymorphism_count(k2, k2, 2) == 4
    assert _independent_polymorphism_count(k2, k3, 1) == 6

    t33 = pk.PcspTemplate(k3, k3)
    audits = [
        pk.polymorphism_slice(t22, [("x",), ("x", "y"), ("x", "y", "z")]),
        pk.polymorphism_slice(t23, [("x",), ("x", "y")]),
        pk.polymorphism_slice(t33, [("x",), ("x", "y")], budget=2 * 10**7),
    ]
    closed = all(bool(pk.check_minor_closure(sl)) for sl in audits)
    record_criterion(
        "criterion 4: polymorphism counts (2, 4, 6) and closure audit",
        got == golden and closed,
        "counts frozen from the independent enumerator",
    )


def test_criterion_5_partial_map_decode_equivalence(t22):
    """Lifted-relation membership and decoder success agree exhaustively at
    |C| = 2 for both the projection slice and the disequality polymorphisms."""
    c = ("0", "1")
    checked = 0
    for slice_ in (LazyDictatorSlice(c), pk.LazyPolymorphismSlice(t22)):
        members = slice_.members(c)
        for c1_size, c2_size in itertools.product((1, 2), repeat=2):
            for c1 in itertools.combinations(c, c1_size):
                for c2 in itertools.combinations(c, c2_size):
                    for images in itertools.product(c2, repeat=len(c1)):
                        pi = dict(zip(c1, images))
                        graph = sorted({(x, pi[x]) for x in c1})
                        lifted = pk.free_relation(c, slice_, graph)
                        for s1, s2 in itertools.product(members, repeat=2):
                            member = (s1, s2) in lifted
                            decoded = pk.decode_partial_map_constraint(
                                s1, s2, c1, c2, pi, slice_
                            )
                            assert member == (decoded is not None)
                            checked += 1
    record_criterion(
        "criterion 5: graph-constraint decode equivalence at |C|=2",
        True,
        f"{checked} (pair, map) combinations, zero tolerance",
    )


def test_criterion_6_pipeline_end_to_end(k2, t22):
    """Identity-table pipeline on disequality: strict solvability transfers
    exactly, and every relaxed output solution decodes back to a verified
    relaxed solution of the source."""
    ident = pk.IdentityDrTable(t22, r=1)
    total = solvable_count = gadget_count = 0
    for phi in all_graph_instances(3):
        total += 1
        src_solvable = pk.brute_force_solve(phi, k2) is not None
        result = pk.pipeline_reduce(phi, t22, t22, ident)
        if src_solvable:
            solvable_count += 1
            assert not result.layout.gadget
            padded, _ = _pad_instance(phi, result.params.k[0])
            h = pk.brute_force_solve(padded, k2)
            lift = pk.lift_strict_solution(h, result.layout)
            # output strict side is solvable: the lift is an explicit witness
            assert pk.evaluate(result.instance, k2, lift) == []
            # relaxed-solvable => decode + extract produces a verified source
            # solution; on this template the lift is also a relaxed solution
            recovered = pk.recover_source_solution(
                lift.mapping, result.layout, ident, phi, t22
            )
            assert pk.evaluate(phi, k2, recovered) == []
        else:
            gadget_count += 1
            # output strict side unsolvable (and relaxed side too): verified
            # by brute force on the emitted no-instance
            assert pk.brute_force_solve(result.instance, k2) is None
    record_criterion(
        "criterion 6: identity-table pipeline equivalence on all |V|<=3 sources",
        total == 74,
        f"{total} sources ({solvable_count} solvable, {gadget_count} no-instances)",
    )


def test_criterion_7_cli_determinism(tmp_path, k2, t22):
    """Each artifact-producing command, run twice, emits identical bytes."""

    def put(name, payload):
        path = tmp_path / name
        jsonio.write_canonical(path, payload)
        return str(path)

    k2_path = put("k2.json", k2.to_payload())
    t22_path = put("t22.json", t22.to_payload())
    inst4 = put(
        "inst4.json",
        pk.Instance(["x0", "x1", "x2", "x3"], [(("x0", "x1"), "neq")]).to_payload(),
    )
    path3 = put(
        "path3.json",
        pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq")]).to_payload(),
    )
    xi = put("xi.json", pk.IdentityDrTable(t22, r=1).to_payload())
    seq = put("seq.json", seeded_value1_sequence(3).to_payload())
    p11 = put("p11.json", pk.gap_parameters(2, 1, (1, 1)).to_payload())

    layout_once = None
    runs = {
        "solve": lambda out, extra: cli_main(
            ["solve", "--instance", inst4, "--template", k2_path, "--out", out]
        ),
        "poly_enum": lambda out, extra: cli_main(
            ["poly", "enum", "--template", t22_path, "--arity", "2", "--out", out]
        ),
        "gap_params": lambda out, extra: cli_main(
            ["gap", "params", "--domain-size", "2", "--m", "1", "--values", "1,1", "--out", out]
        ),
        "gap_extract": lambda out, extra: cli_main(
            ["gap", "extract", "--pas", seq, "--params", p11, "--m", "1", "--out", out]
        ),
        "reduce_llc": lambda out, extra: cli_main(
            ["reduce", "llc", "--instance", inst4, "--template", k2_path, "--params", p11, "--out", out]
        ),
        "reduce_pcsp": lambda out, extra: cli_main(
            [
                "reduce", "pcsp", "--source", path3, "--source-template", t22_path,
                "--target-template", t22_path, "--dr-table", xi,
                "--out", out, "--layout", extra,
            ]
        ),
    }
    identical = True
    for name, run in runs.items():
        artifacts = []
        for attempt in (0, 1):
            out = str(tmp_path / f"{name}.{attempt}.json")
            extra = str(tmp_path / f"{name}.layout.{attempt}.json")
            code = run(out, extra)
            assert code == 0, name
            blob = (tmp_path / f"{name}.{attempt}.json").read_bytes()
            if name == "reduce_pcsp":
                blob += (tmp_path / f"{name}.layout.{attempt}.json").read_bytes()
            artifacts.append(blob)
        identical = identical and artifacts[0] == artifacts[1]
        assert artifacts[0] == artifacts[1], name

    # decode twice through files produced above
    layout = pk.CloudLayout.from_payload(
        jsonio.read_json(tmp_path / "reduce_pcsp.layout.0.json")
    )
    phi = pk.Instance.from_payload(jsonio.read_json(path3))
    padded, _ = _pad_instance(phi, layout.aux.k[0])
    h = pk.brute_force_solve(padded, k2)
    assign = put("assign.json", pk.lift_strict_solution(h, layout).to_payload())
    blobs = []
    for attempt in (0, 1):
        out = str(tmp_path / f"decode.{attempt}.json")
        code = cli_main(
            [
                "decode", "--assignment", assign,
                "--layout", str(tmp_path / "reduce_pcsp.layout.0.json"),
                "--dr-table", xi, "--source", path3, "--source-template", t22_path,
                "--out", out,
            ]
        )
        assert code == 0
        blobs.append((tmp_path / f"decode.{attempt}.json").read_bytes())
    identical = identical and blobs[0] == blobs[1]
    record_criterion(
        "criterion 7: byte-identical CLI artifacts across reruns",
        identical,
        "solve, poly enum, gap params/extract, reduce llc/pcsp, decode",
    )


def _straightline_parameters(domain_size, m, values):
    """Literal second implementation of the arity recursion (compact mode)."""
    values = tuple(values)
    r = len(values) - 1
    if values[0] >= 2:
        p = _straightline_parameters(domain_size, m, (values[0] - 1,) + values[1:])["k"]
    else:
        p = (1,) * (r + 1)
    k = [0] * (r + 1)
    l = [0] * (r + 1)
    k_prime = [None] * (r + 1)
    k_dbl = [None] * (r + 1)
    for i in range(r, 0, -1):
        l[i] = p[i] + sum(comb(p[i], p[j]) * (k[j] - p[j]) for j in range(i + 1, r + 1))
        if values[i] == 1:
            k[i] = (l[i] + 1) * m
            k_prime[i] = 1
        else:
            sub = _straightline_parameters(domain_size, m, (values[i], 1))
            k_dbl[i], k_prime[i] = sub["k"]
            k[i] = k_dbl[i] + comb(k_dbl[i], k_prime[i]) * l[i]
    l[0] = p[0] + sum(comb(p[0], p[j]) * (k[j] - p[j]) for j in range(1, r + 1))
    s = sum(k_prime[1:])
    k[0] = max(s + domain_size**s, k[1])
    return {"k": tuple(k), "l": tuple(l), "p": tuple(p)}


def test_criterion_8_parameter_recursion_audit():
    cases = [
        (value_seq, m)
        for value_seq in ((1, 1), (1, 1, 1), (2, 1))
        for m in (1, 2)
    ]
    agree = 0
    for values, m in cases:
        mine = pk.gap_parameters(2, m, values)
        other = _straightline_parameters(2, m, values)
        assert mine.k == other["k"], (values, m)
        assert mine.l == other["l"], (values, m)
        assert mine.p == other["p"], (values, m)
        agree += 1
    record_criterion(
        "criterion 8: parameter recursion matches the straight-line reimplementation",
        agree == len(cases),
        f"{agree} value/m combinations",
    )
