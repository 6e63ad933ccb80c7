"""The command-line adapters: dispatch, exit codes, reports, determinism."""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import pcspkit as pk
from pcspkit import jsonio
from pcspkit.cli import build_parser, main

from conftest import (
    bipartite_instance,
    cycle_instance,
    deep_inconsistent_sequence,
    path_instance,
    seeded_value1_sequence,
)


@pytest.fixture()
def files(tmp_path, k2, t22):
    paths = {}

    def put(name, payload):
        path = tmp_path / name
        jsonio.write_canonical(path, payload)
        paths[name] = str(path)
        return str(path)

    put("k2.json", k2.to_payload())
    put("t22.json", t22.to_payload())
    put("c5.json", cycle_instance(5).to_payload())
    put(
        "edge3.json",
        pk.Instance(
            ["x", "y", "z", "w"], [(("x", "y"), "neq")]
        ).to_payload(),
    )
    put("xi.json", pk.IdentityDrTable(t22, r=1).to_payload())
    put("seq.json", seeded_value1_sequence(5).to_payload())
    put("p11.json", pk.gap_parameters(2, 1, (1, 1)).to_payload())
    paths["dir"] = str(tmp_path)
    return paths


def _surface(parser, name="") -> dict:
    """Every option of every (sub)command: its kind, its dest when that is
    not the one argparse derives, required, default, choices, type and help;
    and every group of options that exclude one another, and if one is required."""
    out = {name: {}}
    for action in parser._actions:
        kind = type(action).__name__.strip("_").removesuffix("Action").lower()
        key = "/".join(action.option_strings) or action.dest
        derived = key.split("/")[-1].lstrip("-").replace("-", "_")
        parts = [kind] + ([f"dest={action.dest}"] if action.dest != derived else [])
        parts += ["required"] if action.required else []
        if action.default is not None and kind not in ("storetrue", "help"):
            parts.append(f"default={action.default!r}")
        if action.choices and kind != "subparsers":
            parts.append(f"choices={tuple(action.choices)!r}")
        parts += [f"type={action.type.__name__}"] if action.type else []
        parts += [f"help={action.help!r}"] if action.help and kind != "help" else []
        out[name][key] = " ".join(parts)
        if kind == "subparsers":
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for sub, subparser in action.choices.items():
                full = f"{name} {sub}".strip()
                out.update(_surface(subparser, full))
                out[full]["help"] = helps.get(sub)
    for group in parser._mutually_exclusive_groups:
        key = "|".join(action.option_strings[-1] for action in group._group_actions)
        out[name][key] = "oneof" + (" required" if group.required else "")
    return out


# every subcommand has --report; --out and --budget only where its handler reads them
_REPORT = {"-h/--help": "help", "--report": "store"}
_OUT = {"--out": "store"}
_BUDGET = {"--budget": "store default=10000000 type=int"}
_COMMON = {**_REPORT, **_OUT, **_BUDGET}
_SIDE = "store choices=('strict', 'relaxed')"


class TestParserSurface:
    """The options, dests, required flags, defaults, choices, actions and help
    of every subcommand, as the parser builds them."""

    def test_every_subcommand(self):
        assert _surface(build_parser()) == {
            "": {"-h/--help": "help", "command": "subparsers required"},
            "solve": {
                **_COMMON, "--instance": "store required", "--template": "store required",
                "--side": _SIDE, "--all": "storetrue",
                "help": "brute-force solve an instance over a structure",
            },
            "poly": {
                "-h/--help": "help", "subcommand": "subparsers required",
                "help": "polymorphism operations",
            },
            "poly enum": {
                **_COMMON, "--template": "store required", "--arity": "store type=int",
                "--labels": "store", "--arity|--labels": "oneof required", "help": None,
            },
            "poly check": {
                **_REPORT, **_BUDGET, "--template": "store required", "--function": "append default=[]",
                "--dr-table": "store", "--slice": "store", "help": None,
            },
            "gap": {
                "-h/--help": "help", "subcommand": "subparsers required",
                "help": "partial assignment system operations",
            },
            "gap params": {
                **_REPORT, **_OUT, "--domain-size": "store required type=int",
                "--m": "store required type=int", "--values": "store required",
                "--mode": "store default='compact' choices=('compact', 'conservative')",
                "help": None,
            },
            "gap extract": {
                **_REPORT, **_OUT, "--pas": "store required", "--params": "store required",
                "--m": "store required type=int", "help": None,
            },
            "gap oracle": {
                **_REPORT, **_BUDGET, "--instance": "store required", "--template": "store required",
                "--side": _SIDE, "--k": "store required", "--d": "store required type=int",
                "help": None,
            },
            "gap layered": {
                **_COMMON, "--llc": "store required", "--d": "store required type=int",
                "help": None,
            },
            "reduce": {
                "-h/--help": "help", "subcommand": "subparsers required",
                "help": "instance reductions",
            },
            "reduce llc": {
                **_COMMON, "--instance": "store required", "--template": "store required",
                "--side": _SIDE, "--params": "store required", "help": None,
            },
            "reduce pcsp": {
                **_COMMON, "--source": "store required", "--source-template": "store required",
                "--target-template": "store required", "--dr-table": "store required",
                "--layout": "store", "help": None,
            },
            "decode": {
                **_COMMON, "--assignment": "store required", "--layout": "store required",
                "--dr-table": "store required", "--source": "store required",
                "--source-template": "store required",
                "help": "decode a relaxed solution of a reduced instance",
            },
            "verify": {
                "-h/--help": "help", "subcommand": "subparsers required",
                "help": "replay stored post-conditions on artifacts",
            },
            "verify consistent": {**_REPORT, "--pas": "store required", "help": None},
            "verify msolution": {
                **_REPORT, "--pas": "store required", "--assignment": "store required",
                "--m": "store default=1 type=int", "--index": "store default=0 type=int",
                "help": None,
            },
            "verify solution": {
                **_REPORT, "--instance": "store required", "--template": "store required",
                "--assignment": "store required", "--side": _SIDE, "help": None,
            },
        }


class TestExitCodes:
    def test_unsatisfiable_is_one(self, files):
        assert main(["solve", "--instance", files["c5.json"], "--template", files["k2.json"]]) == 1

    def test_satisfiable_is_zero(self, files):
        assert main(["solve", "--instance", files["edge3.json"], "--template", files["t22.json"]]) == 0

    def test_usage_error_is_two(self, files):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--instance", files["c5.json"]])
        assert err.value.code == 2

    def test_domain_error_is_one(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        jsonio.write_canonical(bad, {"variables": ["x"], "constraints": [{"scope": ["x", "q"], "relation": "neq"}]})
        assert main(["solve", "--instance", str(bad), "--template", files["k2.json"]]) == 1


class TestCommands:
    def test_gap_params_artifact(self, files, tmp_path, capsys):
        out = tmp_path / "params.json"
        assert main(["gap", "params", "--domain-size", "2", "--m", "1", "--values", "1,1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["k"] == [3, 2]
        assert "k = [3, 2]" in capsys.readouterr().out

    def test_gap_params_with_a_first_value_of_2000(self, capsys):
        # each record recurses on the one with the first value less by one;
        # they are filled from the smallest up, so no recursion limit is hit
        assert main(["gap", "params", "--domain-size", "2", "--m", "1", "--values", "2000,1"]) == 0
        assert capsys.readouterr().out.startswith("k = [2001, 2001]")

    def test_gap_params_over_the_limit_is_one_short_error_line(self, capsys):
        assert main(["gap", "params", "--domain-size", "2", "--m", "2", "--values", "3,3,3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200

    def test_poly_enum_count(self, files, capsys):
        assert main(["poly", "enum", "--template", files["t22.json"], "--arity", "2"]) == 0
        assert "4 polymorphism" in capsys.readouterr().out

    def test_poly_check_function(self, files, tmp_path):
        fn = pk.FiniteFunction(("x",), ("0", "1"), ("0", "1"), ("1", "0"))
        path = tmp_path / "neg.json"
        jsonio.write_canonical(path, fn.to_payload())
        assert main(["poly", "check", "--template", files["t22.json"], "--function", str(path)]) == 0

    def test_poly_check_names_a_function_over_other_domains(self, files, tmp_path, capsys):
        neg, f012 = tmp_path / "neg.json", tmp_path / "f012.json"
        jsonio.write_canonical(neg, pk.FiniteFunction(("x",), "01", "01", "10").to_payload())
        jsonio.write_canonical(f012, pk.dictator(("x",), ("0", "1", "2"), "x").to_payload())
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = main([
            "poly", "check", "--template", files["t22.json"], "--function", str(neg),
            "--function", str(f012), "--report", str(report),
        ])
        assert code == 1
        assert capsys.readouterr() == (
            f"{neg}: polymorphism\n{f012}: NOT a polymorphism\n", ""
        )
        assert json.loads(report.read_text())["verifications"] == {
            f"polymorphism:{neg}": True, f"polymorphism:{f012}": False,
        }

    def test_gap_extract_verifies(self, files, tmp_path):
        out = tmp_path / "sol.json"
        report = tmp_path / "report.json"
        code = main([
            "gap", "extract", "--pas", files["seq.json"], "--params", files["p11.json"],
            "--m", "1", "--out", str(out), "--report", str(report),
        ])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["verifications"]["is_m_solution"] is True

    def test_gap_oracle_negative(self, files, tmp_path):
        tri = tmp_path / "tri.json"
        jsonio.write_canonical(
            tri,
            pk.Instance(["x", "y", "z", "w"], [(("x", "y"), "neq"), (("y", "z"), "neq"), (("x", "z"), "neq")]).to_payload(),
        )
        assert main(["gap", "oracle", "--instance", str(tri), "--template", files["k2.json"], "--k", "3,2", "--d", "1"]) == 1

    def test_a_20_vertex_path_decides_in_both_commands(self, files, tmp_path, capsys):
        # 1,330 subset variables at k=(3,2), more than Python's recursion limit
        names = ("path20.json", "k32.json", "llc.json", "r.json")
        path, k32, llc, report = (tmp_path / name for name in names)
        jsonio.write_canonical(path, path_instance(20).to_payload())
        jsonio.write_canonical(k32, [3, 2])
        assert main([
            "gap", "oracle", "--instance", str(path), "--template", files["k2.json"],
            "--k", "3,2", "--d", "1", "--report", str(report),
        ]) == 0
        assert json.loads(report.read_text())["payload"]["value_at_most_d"] is True
        assert main([
            "reduce", "llc", "--instance", str(path), "--template", files["k2.json"],
            "--params", str(k32), "--out", str(llc),
        ]) == 0
        assert main(["gap", "layered", "--llc", str(llc), "--d", "1", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["payload"]["value"] == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value <= 1: yes" and out[-1] == "layered value: 1"

    def test_reduce_llc(self, files, tmp_path):
        out = tmp_path / "llc.json"
        assert main([
            "reduce", "llc", "--instance", files["edge3.json"], "--template", files["k2.json"],
            "--params", files["p11.json"], "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["layers"]) == 2

    def test_gap_layered_reads_a_reduced_instance(self, files, tmp_path, capsys):
        # the edge is 2-colourable: value 1, with a witness; the triangle's
        # 3-subset has no partial solution, so no width decides it
        tri = tmp_path / "tri.json"
        jsonio.write_canonical(
            tri,
            pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq"), (("x", "z"), "neq")]).to_payload(),
        )
        for source, code, value in ((files["edge3.json"], 0, 1), (str(tri), 1, None)):
            llc, witness, report = (tmp_path / name for name in ("llc.json", "w.json", "r.json"))
            assert main([
                "reduce", "llc", "--instance", source, "--template", files["k2.json"],
                "--params", files["p11.json"], "--out", str(llc),
            ]) == 0
            assert main([
                "gap", "layered", "--llc", str(llc), "--d", "1", "--out", str(witness),
                "--report", str(report),
            ]) == code
            assert json.loads(report.read_text())["payload"]["value"] == value
            if value:
                chosen = pk.DAssignment.from_payload(json.loads(witness.read_text()))
                inst = pk.LlcInstance.from_payload(json.loads(llc.read_text()))
                assert all(pk.weakly_satisfies(chosen, c, inst) for c in pk.enumerate_chains(inst))
        assert capsys.readouterr().out.splitlines()[-1] == "layered value above 1"

    def test_reduce_pcsp_and_decode(self, files, tmp_path, t22, k2):
        out = tmp_path / "out.json"
        layout_path = tmp_path / "layout.json"
        phi = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq")])
        src = tmp_path / "path.json"
        jsonio.write_canonical(src, phi.to_payload())
        assert main([
            "reduce", "pcsp", "--source", str(src), "--source-template", files["t22.json"],
            "--target-template", files["t22.json"], "--dr-table", files["xi.json"],
            "--out", str(out), "--layout", str(layout_path),
        ]) == 0

        layout = pk.CloudLayout.from_payload(json.loads(layout_path.read_text()))
        from pcspkit.reduction import _pad_instance
        padded, _ = _pad_instance(phi, layout.aux.k[0])
        h = pk.brute_force_solve(padded, k2)
        lift = pk.lift_strict_solution(h, layout)
        assign_path = tmp_path / "assign.json"
        jsonio.write_canonical(assign_path, lift.to_payload())
        sol_out = tmp_path / "recovered.json"
        assert main([
            "decode", "--assignment", str(assign_path), "--layout", str(layout_path),
            "--dr-table", files["xi.json"], "--source", str(src),
            "--source-template", files["t22.json"], "--out", str(sol_out),
        ]) == 0
        recovered = pk.Assignment.from_payload(json.loads(sol_out.read_text()))
        assert pk.evaluate(phi, k2, recovered) == []

    def test_reduce_pcsp_and_decode_at_chain_length_two(self, files, tmp_path, t22, k2):
        # K_{5,5} through the identity table at r=2: k=(10,10,4), so decoding
        # reads 210 clouds of 4-subsets that the layout fills from the one
        # top cloud
        phi = bipartite_instance(5)
        src, xi2 = tmp_path / "k55.json", tmp_path / "xi-r2.json"
        jsonio.write_canonical(src, phi.to_payload())
        jsonio.write_canonical(xi2, pk.IdentityDrTable(t22, r=2).to_payload())
        out, layout_path = tmp_path / "out.json", tmp_path / "layout.json"
        assert main([
            "reduce", "pcsp", "--source", str(src), "--source-template", files["t22.json"],
            "--target-template", files["t22.json"], "--dr-table", str(xi2),
            "--out", str(out), "--layout", str(layout_path),
        ]) == 0
        assert len(pk.Instance.from_payload(json.loads(out.read_text())).variables) == 4
        layout = pk.CloudLayout.from_payload(json.loads(layout_path.read_text()))
        assert layout.aux.k == (10, 10, 4)
        h = {x: "0" if x.startswith("a") else "1" for x in phi.variables}
        assign_path, sol_out = tmp_path / "assign.json", tmp_path / "recovered.json"
        jsonio.write_canonical(assign_path, pk.lift_strict_solution(h, layout).to_payload())
        assert main([
            "decode", "--assignment", str(assign_path), "--layout", str(layout_path),
            "--dr-table", str(xi2), "--source", str(src),
            "--source-template", files["t22.json"], "--out", str(sol_out),
        ]) == 0
        recovered = pk.Assignment.from_payload(json.loads(sol_out.read_text()))
        assert recovered.mapping == h

    def test_decode_rejects_a_layout_without_format(self, files, tmp_path, capsys):
        src = tmp_path / "edge.json"
        jsonio.write_canonical(src, pk.Instance(["x", "y"], [(("x", "y"), "neq")]).to_payload())
        layout_path = tmp_path / "layout.json"
        assert main([
            "reduce", "pcsp", "--source", str(src), "--source-template", files["t22.json"],
            "--target-template", files["t22.json"], "--dr-table", files["xi.json"],
            "--out", str(tmp_path / "out.json"), "--layout", str(layout_path),
        ]) == 0
        old = json.loads(layout_path.read_text())
        del old["format"]
        jsonio.write_canonical(layout_path, old)
        assign_path = tmp_path / "assign.json"
        jsonio.write_canonical(assign_path, {"values": {}})
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main([
            "decode", "--assignment", str(assign_path), "--layout", str(layout_path),
            "--dr-table", files["xi.json"], "--source", str(src),
            "--source-template", files["t22.json"], "--out", str(tmp_path / "sol.json"),
            "--report", str(report),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "format" in json.loads(report.read_text())["payload"]["error"]

    def test_verify_consistent(self, files):
        assert main(["verify", "consistent", "--pas", files["seq.json"]]) == 0

    def test_verify_inconsistent_names_the_chain(self, tmp_path, capsys):
        i0 = pk.Pas("xy", ["0", "1"], 1, {("x",): {("0",)}, ("y",): {("0",)}})
        i1 = pk.Pas("xy", ["0", "1"], 1, {("x",): {("1",)}, ("y",): {("0",)}})
        seq, report = tmp_path / "seq.json", tmp_path / "report.json"
        jsonio.write_canonical(seq, pk.PasSequence([i0, i1]).to_payload())
        capsys.readouterr()
        assert main(["verify", "consistent", "--pas", str(seq), "--report", str(report)]) == 1
        assert capsys.readouterr().out == "inconsistent on chain (('x',), ('x',))\n"
        assert json.loads(report.read_text())["verifications"] == {"consistent": False}

    def test_verify_consistent_on_a_chain_past_the_recursion_limit(self, tmp_path, capsys):
        seq, report = tmp_path / "deep.json", tmp_path / "report.json"
        jsonio.write_canonical(
            seq, deep_inconsistent_sequence(sys.getrecursionlimit() + 100).to_payload()
        )
        capsys.readouterr()
        assert main(["verify", "consistent", "--pas", str(seq), "--report", str(report)]) == 1
        assert capsys.readouterr().out.startswith("inconsistent on chain (('x', 'y'), ")
        assert json.loads(report.read_text())["verifications"] == {"consistent": False}

    def test_poly_check_on_chains_past_the_recursion_limit(self, files, tmp_path, t22, capsys):
        sl, xi = tmp_path / "pol22.json", tmp_path / "xi-deep.json"
        jsonio.write_canonical(sl, pk.polymorphism_slice(t22, [("a",)]).to_payload())
        r = sys.getrecursionlimit() + 500
        jsonio.write_canonical(xi, pk.IdentityDrTable(t22, r=r).to_payload())
        capsys.readouterr()
        assert main([
            "poly", "check", "--template", files["t22.json"], "--slice", str(sl),
            "--dr-table", str(xi),
        ]) == 0
        assert capsys.readouterr().out == "chain condition: holds\n"

    @pytest.mark.parametrize(
        "domain, tables, named",
        [
            # a member, then the constant: named by the payload's order,
            # not the slice's, which sorts the constant first
            ("01", ["01", "00"], 1),
            ("01", ["00"], 0),
            ("012", ["012"], 0),  # the dictator over other domains
        ],
        ids=["constant-second", "constant", "other-domains"],
    )
    def test_poly_check_refuses_a_slice_outside_the_template(
        self, domain, tables, named, files, tmp_path, capsys
    ):
        sides = {"in_domain": list(domain), "out_domain": list(domain)}
        functions = [dict(sides, arity_set=["a"], table=list(t)) for t in tables]
        sl, report = tmp_path / "nonpol.json", tmp_path / "report.json"
        jsonio.write_canonical(sl, dict(sides, functions=functions))
        capsys.readouterr()
        code = main([
            "poly", "check", "--template", files["t22.json"], "--slice", str(sl),
            "--dr-table", files["xi.json"], "--report", str(report),
        ])
        message = f"{sl}: functions[{named}] is not a polymorphism of the template"
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert json.loads(report.read_text())["payload"]["error"] == message

    def test_verify_solution_negative(self, files, tmp_path):
        bad = tmp_path / "bad_assign.json"
        jsonio.write_canonical(bad, pk.Assignment({f"v{i}": "0" for i in range(5)}).to_payload())
        code = main([
            "verify", "solution", "--instance", files["c5.json"],
            "--template", files["k2.json"], "--assignment", str(bad),
        ])
        assert code == 1

    def test_report_written_on_error(self, files, tmp_path):
        report = tmp_path / "rep.json"
        bad = tmp_path / "bad.json"
        jsonio.write_canonical(bad, {"variables": ["x"], "constraints": [{"scope": ["x", "q"], "relation": "neq"}]})
        main(["solve", "--instance", str(bad), "--template", files["k2.json"], "--report", str(report)])
        assert "error" in json.loads(report.read_text())["payload"]


class TestReadOnce:
    """`main` opens each input file once, takes every digest before it
    decodes any file, and digests the bytes it decodes."""

    def _run(self, argv, inputs, monkeypatch):
        events = []
        real_open, real_loads = io.open, jsonio.loads

        def counting_open(file, *args, **kwargs):
            events.append(("open", str(file)))
            return real_open(file, *args, **kwargs)

        def recording_loads(data, path):
            events.append(("loads", str(path)))
            return real_loads(data, path)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr(jsonio, "loads", recording_loads)
        assert main(argv) == 0
        monkeypatch.undo()
        opened = [path for event, path in events if event == "open" and path in inputs]
        assert sorted(opened) == sorted(set(inputs))
        decoded = [i for i, (event, _) in enumerate(events) if event == "loads"]
        assert sorted(path for event, path in events if event == "loads") == sorted(set(inputs))
        assert max(events.index(("open", path)) for path in inputs) < min(decoded)

    def test_reduce_pcsp_and_decode(self, files, tmp_path, k2, monkeypatch):
        src, out, layout = (str(tmp_path / n) for n in ("path.json", "out.json", "layout.json"))
        jsonio.write_canonical(src, _path_and_empty()[0].to_payload())
        # the source and target templates are one file, read once
        inputs = [src, files["t22.json"], files["t22.json"], files["xi.json"]]
        report = tmp_path / "reduce-report.json"
        self._run([
            "reduce", "pcsp", "--source", src, "--source-template", inputs[1],
            "--target-template", inputs[2], "--dr-table", inputs[3], "--out", out,
            "--layout", layout, "--report", str(report),
        ], inputs, monkeypatch)
        digests = json.loads(report.read_text())["inputs"]
        assert digests == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}

        loaded = pk.CloudLayout.from_payload(jsonio.read_json(layout))
        h = pk.brute_force_solve(loaded.aux.source, k2)
        lift = tmp_path / "lift.json"
        jsonio.write_canonical(lift, pk.lift_strict_solution(h, loaded).to_payload())
        inputs = [str(lift), layout, files["xi.json"], src, files["t22.json"]]
        report = tmp_path / "decode-report.json"
        self._run([
            "decode", "--assignment", inputs[0], "--layout", layout, "--dr-table", inputs[2],
            "--source", src, "--source-template", inputs[4],
            "--out", str(tmp_path / "sol.json"), "--report", str(report),
        ], inputs, monkeypatch)
        digests = json.loads(report.read_text())["inputs"]
        assert digests == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}


class TestUnwritableReport:
    """A report path that cannot be written ends in exit 1 and `error:` lines
    only, the last naming the path, whether the command itself succeeded or not."""

    @pytest.mark.parametrize("values, lines", [("1,1", 1), ("1,x", 2)], ids=["ok", "failed"])
    def test_is_error_lines_naming_the_path(self, values, lines, tmp_path, capsys):
        report = str(tmp_path / "absent" / "report.json")
        argv = ["gap", "params", "--domain-size", "2", "--m", "1", "--values", values]
        capsys.readouterr()
        assert main(argv + ["--report", report]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == lines and all(line.startswith("error: ") for line in err)
        assert report in err[-1]

    def test_a_directory_is_refused_the_same_way(self, tmp_path, capsys):
        capsys.readouterr()
        argv = ["gap", "params", "--domain-size", "2", "--m", "1", "--values", "1,1"]
        assert main(argv + ["--report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: --report {tmp_path}: Is a directory\n"


class TestUnreadableInput:
    def _solve(self, instance, files, report, capsys):
        capsys.readouterr()
        code = main([
            "solve", "--instance", instance, "--template", files["k2.json"],
            "--report", str(report),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "error" in json.loads(report.read_text())["payload"]
        return err

    def test_bad_json_is_one_error_line(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        self._solve(str(bad), files, tmp_path / "rep.json", capsys)

    def test_missing_file_is_one_error_line(self, files, tmp_path, capsys):
        self._solve(str(tmp_path / "absent.json"), files, tmp_path / "rep.json", capsys)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"variables": ["x", "y"]}, "constraints: missing"),
            (
                {"variables": "xy", "constraints": [{"scope": ["x", "y"], "relation": "neq"}]},
                "variables: expected a list",
            ),
            (
                {"variables": ["x", "y"], "constraints": [{"scope": "xy", "relation": "neq"}]},
                "constraints[0].scope: expected a list",
            ),
            ({"variables": [["x"]], "constraints": []}, "variables[0]: expected a string"),
            (
                {"variables": ["x", "y"], "constraints": [{"scope": ["x", ["y"]], "relation": "neq"}]},
                "constraints[0].scope[1]: expected a string",
            ),
        ],
    )
    def test_malformed_instance_names_its_json_path(
        self, payload, message, files, tmp_path, capsys
    ):
        path = tmp_path / "inst.json"
        jsonio.write_canonical(path, payload)
        err = self._solve(str(path), files, tmp_path / "rep.json", capsys)
        assert message in err


class TestUnreadableTemplate:
    """A template file is read field by field: a relation whose tuples are a
    string, or a template without a side, is one error line, not a guess."""

    @pytest.mark.parametrize(
        "template, message",
        [
            (
                {"domain": ["0", "1"], "relations": {"u": {"arity": 1, "tuples": "01"}}},
                "relations.u.tuples: expected a list",
            ),
            ({"domain": ["0", "1"], "relations": {"u": {"tuples": [["0"]]}}}, "relations.u.arity: missing"),
            ({"domain": "01", "relations": {}}, "domain: expected a list"),
            ({"domain": ["0"], "relations": [["0"]]}, "relations: expected an object"),
        ],
    )
    def test_malformed_structure_names_its_json_path(
        self, template, message, tmp_path, capsys
    ):
        instance, template_path, report = (tmp_path / n for n in ("i.json", "t.json", "r.json"))
        jsonio.write_canonical(instance, pk.Instance(["x"], [(("x",), "u")]).to_payload())
        jsonio.write_canonical(template_path, template)
        code = main([
            "solve", "--all", "--instance", str(instance), "--template", str(template_path),
            "--report", str(report),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert message in json.loads(report.read_text())["payload"]["error"]


def _path_and_empty():
    edges = [(("x", "y"), "neq"), (("y", "z"), "neq")]
    return pk.Instance(["x", "y", "z"], edges), pk.Instance(["x", "y", "z"], [])


class TestDecodeAgainstTheLayout:
    """A layout records the padded source and strict side it was built from;
    decoding against anything else, or reading a layout with a field taken
    out, is an InputError: exit 1, one error line and a written report."""

    def _reduce(self, phi, files, tmp_path, k2):
        src = tmp_path / "built.json"
        jsonio.write_canonical(src, phi.to_payload())
        layout_path = tmp_path / "layout.json"
        assert main([
            "reduce", "pcsp", "--source", str(src), "--source-template", files["t22.json"],
            "--target-template", files["t22.json"], "--dr-table", files["xi.json"],
            "--out", str(tmp_path / "out.json"), "--layout", str(layout_path),
        ]) == 0
        layout = pk.CloudLayout.from_payload(json.loads(layout_path.read_text()))
        h = pk.brute_force_solve(layout.aux.source, k2)
        assign_path = tmp_path / "assign.json"
        jsonio.write_canonical(assign_path, pk.lift_strict_solution(h, layout).to_payload())
        return layout_path, assign_path

    def _decode(self, layout_path, assign_path, phi, files, tmp_path, capsys, table="xi.json"):
        src = tmp_path / "decoded.json"
        jsonio.write_canonical(src, phi.to_payload())
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = main([
            "decode", "--assignment", str(assign_path), "--layout", str(layout_path),
            "--dr-table", files[table], "--source", str(src),
            "--source-template", files["t22.json"], "--out", str(tmp_path / "sol.json"),
            "--report", str(report),
        ])
        return code, capsys.readouterr().err, report

    @pytest.mark.parametrize("built, decoded", [(0, 1), (1, 0)], ids=["path-as-empty", "empty-as-path"])
    def test_another_instance_on_the_same_variables_is_refused(
        self, built, decoded, files, tmp_path, k2, capsys
    ):
        # the path decoded as the empty instance used to "recover" a solution
        # with exit 0; the reverse raised InvariantError
        instances = _path_and_empty()
        paths = self._reduce(instances[built], files, tmp_path, k2)
        code, err, report = self._decode(*paths, instances[decoded], files, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "does not match the layout" in err
        assert "does not match the layout" in json.loads(report.read_text())["payload"]["error"]

    def test_the_instance_it_was_built_from_decodes(self, files, tmp_path, k2, capsys):
        phi = _path_and_empty()[0]
        paths = self._reduce(phi, files, tmp_path, k2)
        code, err, _ = self._decode(*paths, phi, files, tmp_path, capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "drop, message",
        [
            (("padding",), "padding: missing"),
            (("aux", "k"), "aux.k: missing"),
            (("target", "strict"), "strict: missing"),
        ],
    )
    def test_a_missing_layout_field_is_named(
        self, drop, message, files, tmp_path, k2, capsys
    ):
        phi = _path_and_empty()[0]
        layout_path, assign_path = self._reduce(phi, files, tmp_path, k2)
        payload = json.loads(layout_path.read_text())
        *parents, key = drop
        container = payload
        for name in parents:
            container = container[name]
        del container[key]
        jsonio.write_canonical(layout_path, payload)
        code, err, report = self._decode(layout_path, assign_path, phi, files, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert message in json.loads(report.read_text())["payload"]["error"]

    def test_an_assignment_without_values_is_named(self, files, tmp_path, k2, capsys):
        phi = _path_and_empty()[0]
        layout_path, assign_path = self._reduce(phi, files, tmp_path, k2)
        jsonio.write_canonical(assign_path, {})
        code, err, report = self._decode(layout_path, assign_path, phi, files, tmp_path, capsys)
        assert code == 1
        assert err == "error: values: missing\n"
        assert "values: missing" in json.loads(report.read_text())["payload"]["error"]

    def test_a_table_without_kind_is_named(self, files, tmp_path, k2, capsys):
        phi = _path_and_empty()[0]
        paths = self._reduce(phi, files, tmp_path, k2)
        jsonio.write_canonical(tmp_path / "empty-table.json", {})
        files["empty-table.json"] = str(tmp_path / "empty-table.json")
        code, err, report = self._decode(*paths, phi, files, tmp_path, capsys, "empty-table.json")
        assert code == 1
        assert err == "error: kind: missing\n"
        assert "kind: missing" in json.loads(report.read_text())["payload"]["error"]


    def test_a_value_outside_the_relaxed_domain_is_named(self, files, tmp_path, k2, capsys):
        phi = _path_and_empty()[0]
        layout_path, assign_path = self._reduce(phi, files, tmp_path, k2)
        payload = json.loads(assign_path.read_text())
        payload["values"][min(payload["values"])] = "2"
        jsonio.write_canonical(assign_path, payload)
        code, err, report = self._decode(layout_path, assign_path, phi, files, tmp_path, capsys)
        message = "table value '2' outside the output domain"
        assert code == 1
        assert err == f"error: {message}\n"
        assert json.loads(report.read_text())["payload"]["error"] == message


class TestBareArguments:
    """Options and files the CLI reads itself: a bad one is an InputError
    naming the option or the JSON field (exit 1, one error line, a written
    report); a file its kind cannot run without is a usage error (exit 2)."""

    @pytest.fixture()
    def more(self, files, tmp_path, t22):
        jsonio.write_canonical(tmp_path / "empty.json", {})
        jsonio.write_canonical(tmp_path / "list-value.json", {"values": {"x": ["0"]}})
        jsonio.write_canonical(tmp_path / "number-side.json", {"values": {"x": "0"}, "side": 5})
        variables = pk.PasSequence.from_payload(jsonio.read_json(files["seq.json"]))[0].variables
        jsonio.write_canonical(
            tmp_path / "zeros.json", pk.Assignment({v: "0" for v in variables}).to_payload()
        )
        llc = pk.LlcInstance([("a",), ("b",)], {"a": ("0", "1"), "b": ("0", "1")}, {}).to_payload()
        same = {"from": "a", "to": "b", "map": {"0": "1", "1": "1"}}
        llc["constraints"] = [same, {**same, "map": {"0": "0", "1": "1"}}]
        jsonio.write_canonical(tmp_path / "twice.json", llc)
        jsonio.write_canonical(tmp_path / "once.json", {**llc, "constraints": [same]})
        repeated = {**llc, "domains": {"a": ["0", "0"], "b": ["1", "1"]}, "constraints": []}
        jsonio.write_canonical(tmp_path / "repeated-label.json", repeated)
        k3 = pk.complete_graph(3)
        xi33 = pk.IdentityDrTable(pk.PcspTemplate(k3, k3), r=1)
        jsonio.write_canonical(tmp_path / "xi33.json", xi33.to_payload())
        jsonio.write_canonical(tmp_path / "t33.json", xi33.template.to_payload())
        t3 = pk.dictator(("x",), "012", "x")
        jsonio.write_canonical(
            tmp_path / "explicit33.json", pk.ExplicitDrTable(1, 1, {t3: (t3,)}).to_payload()
        )
        jsonio.write_canonical(
            tmp_path / "path.json",
            pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq")]).to_payload(),
        )
        # the path's layout and canonical lift through the (K2,K2) identity table
        path = pk.Instance(["x", "y", "z"], [(("x", "y"), "neq"), (("y", "z"), "neq")])
        layout = pk.pipeline_reduce(path, t22, t22, pk.IdentityDrTable(t22, r=1)).layout
        lift = pk.lift_strict_solution(pk.brute_force_solve(layout.aux.source, t22.strict), layout)
        jsonio.write_canonical(tmp_path / "path-layout.json", layout.to_payload())
        jsonio.write_canonical(tmp_path / "path-lift.json", lift.to_payload())
        # W1's layout: the empty 3-variable source at k=(4,4), one cloud of 65,536 positions
        padded = pk.Instance(["x", "y", "z", "~pad0"], [])
        w1 = pk.CloudLayout(t22, pk.build_auxiliary(padded, t22.strict, (4, 4)), ("~pad0",))
        jsonio.write_canonical(tmp_path / "w1-layout.json", w1.to_payload())
        # the path into (K3,K3) at k=(3,2): 36 matrices in its top cloud, 1,404 in all
        k32 = pk.CloudLayout(xi33.template, pk.build_auxiliary(path, t22.strict, (3, 2)), ())
        jsonio.write_canonical(tmp_path / "k32-layout.json", k32.to_payload())
        assert hashlib.sha256((tmp_path / "w1-layout.json").read_bytes()).hexdigest() == (
            "170274957d96f654f44253c750b73a3dff88dffd0f6687df1ef913f64baab7ec"
        )
        empty3 = pk.Instance(["x", "y", "z"], [])
        jsonio.write_canonical(tmp_path / "empty3.json", empty3.to_payload())
        jsonio.write_canonical(tmp_path / "k-negative.json", [2, -1])
        jsonio.write_canonical(tmp_path / "k-none.json", [])
        no_aux = layout.to_payload()
        del no_aux["aux"]
        jsonio.write_canonical(tmp_path / "no-aux-layout.json", no_aux)
        jsonio.write_canonical(
            tmp_path / "xi-r-true.json", {**pk.IdentityDrTable(t22).to_payload(), "r": True}
        )
        jsonio.write_canonical(
            tmp_path / "xi-d7.json", {**pk.IdentityDrTable(t22).to_payload(), "d": 7}
        )
        jsonio.write_canonical(
            tmp_path / "index-true.json",
            {"assignment": jsonio.read_json(tmp_path / "zeros.json"), "index": True},
        )
        # what json cannot decode: bytes that are not UTF-8, nesting past the
        # parser's depth, and an integer past Python's digit limit
        (tmp_path / "non-utf8.json").write_bytes(b'{"variables": ["\xff"], "constraints": []}')
        (tmp_path / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
        (tmp_path / "long-integer.json").write_text('{"k": [' + "9" * 5000 + "]}")
        jsonio.write_canonical(tmp_path / "number.json", 5)
        xyz = {"x": "0", "y": "1", "z": "0"}
        restrictions = [pk.pas_from_assignment(xyz, xyz, "01", k) for k in (2, 1)]
        jsonio.write_canonical(tmp_path / "xyz.json", pk.PasSequence(restrictions).to_payload())
        jsonio.write_canonical(tmp_path / "only-x.json", {"values": {"x": "0"}})
        # what the JSON boundary's constructors refuse: structures, systems,
        # a layered instance, a function, a chain table and a slice
        arity0 = {"domain": ["0"], "relations": {"r": {"arity": 0, "tuples": [[]]}}}
        jsonio.write_canonical(tmp_path / "arity0.json", arity0)
        short = {"domain": ["0", "1"], "relations": {"neq": {"arity": 2, "tuples": [["0"]]}}}
        jsonio.write_canonical(tmp_path / "short-tuple.json", short)
        nothing = {"domain": [], "relations": {}}
        jsonio.write_canonical(tmp_path / "no-domain.json", {"strict": nothing, "relaxed": nothing})
        x0 = pk.pas_from_assignment({"x": "0"}, "x", "01", 1).to_payload()
        for name, change in [
            ("pas-arity3.json", {"arity": 3}),
            ("pas-key.json", {"entries": [{"set": ["q"], "assignments": [{"q": "0"}]}]}),
            ("pas-value.json", {"entries": [{"set": ["x"], "assignments": [{"x": "5"}]}]}),
        ]:
            jsonio.write_canonical(tmp_path / name, {"systems": [{**x0, **change}]})
        jsonio.write_canonical(tmp_path / "no-systems.json", {"systems": []})
        y0 = pk.pas_from_assignment({"y": "0"}, "y", "01", 1).to_payload()
        jsonio.write_canonical(tmp_path / "x-then-y.json", {"systems": [x0, y0]})
        jsonio.write_canonical(
            tmp_path / "two-layers.json",
            {**pk.LlcInstance([("a",)], {"a": ("0",)}, {}).to_payload(), "layers": [["a"], ["a"]]},
        )
        neg = pk.FiniteFunction(("u", "w"), "01", "01", "0110").to_payload()
        jsonio.write_canonical(tmp_path / "neg.json", neg)
        jsonio.write_canonical(tmp_path / "table3.json", {**neg, "table": ["0", "1", "1"]})
        # a 9-ary dictator over K3, a member whose check walks 6^9 matrices
        d9 = pk.dictator(tuple(f"x{i}" for i in range(9)), "012", "x0")
        jsonio.write_canonical(tmp_path / "d9.json", d9.to_payload())
        jsonio.write_canonical(tmp_path / "k32.json", [3, 2])
        pol22 = pk.polymorphism_slice(t22, [("a",)])
        jsonio.write_canonical(tmp_path / "pol22.json", pol22.to_payload())
        identity = pk.FiniteFunction(("a",), "01", "01", "01")
        jsonio.write_canonical(
            tmp_path / "no-images.json",
            {**pk.ExplicitDrTable(1, 1, {identity: (identity,)}).to_payload(), "images": [[]]},
        )
        wide = pk.FiniteFunction(("a",), "012", "01", "010").to_payload()
        jsonio.write_canonical(
            tmp_path / "other-in-domain.json", {**pol22.to_payload(), "functions": [wide]}
        )
        written = (
            "empty.json", "zeros.json", "list-value.json", "number-side.json", "twice.json",
            "once.json", "repeated-label.json",
            "xi33.json", "t33.json", "explicit33.json", "path.json", "path-layout.json", "path-lift.json",
            "w1-layout.json", "k32-layout.json", "empty3.json", "k-negative.json", "k-none.json",
            "no-aux-layout.json", "xi-r-true.json", "xi-d7.json", "index-true.json",
            "non-utf8.json", "nested.json", "long-integer.json", "number.json", "xyz.json",
            "only-x.json", "arity0.json", "short-tuple.json", "no-domain.json",
            "pas-arity3.json", "pas-key.json", "pas-value.json", "no-systems.json",
            "x-then-y.json", "two-layers.json", "neg.json", "table3.json", "d9.json", "k32.json",
            "pol22.json", "no-images.json", "other-in-domain.json",
        )
        return {**files, **{name: str(tmp_path / name) for name in written}}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gap", "params", "--domain-size", "2", "--m", "1", "--values", "1,x"], "--values"),
            (
                ["gap", "oracle", "--instance", "edge3.json", "--template", "k2.json",
                 "--k", "3,x", "--d", "1"],
                "--k",
            ),
            (
                ["verify", "msolution", "--pas", "seq.json", "--assignment", "zeros.json",
                 "--index", "5"],
                "index 5",
            ),
            (
                ["verify", "msolution", "--pas", "seq.json", "--assignment", "zeros.json",
                 "--index", "-1"],
                "index -1",
            ),
            (
                ["reduce", "llc", "--instance", "edge3.json", "--template", "k2.json",
                 "--params", "empty.json"],
                "k: missing",
            ),
            (
                ["gap", "oracle", "--instance", "edge3.json", "--template", "k2.json",
                 "--k", "2,-1", "--d", "1"],
                "arities [2, -1] must be one or more positive integers",
            ),
            (
                ["reduce", "llc", "--instance", "edge3.json", "--template", "k2.json",
                 "--params", "k-negative.json"],
                "arities [2, -1] must be one or more positive integers",
            ),
            (
                ["reduce", "llc", "--instance", "edge3.json", "--template", "k2.json",
                 "--params", "k-none.json"],
                "arities [] must be one or more positive integers",
            ),
            (
                ["poly", "check", "--template", "t22.json", "--function", "empty.json"],
                "arity_set: missing",
            ),
            (
                ["gap", "extract", "--pas", "empty.json", "--params", "p11.json", "--m", "1"],
                "systems: missing",
            ),
            (["verify", "consistent", "--pas", "empty.json"], "systems: missing"),
            (
                ["gap", "extract", "--pas", "seq.json", "--params", "empty.json", "--m", "1"],
                "domain_size: missing",
            ),
            (
                ["verify", "solution", "--instance", "edge3.json", "--template", "k2.json",
                 "--assignment", "list-value.json"],
                "values.x: expected a string",
            ),
            (
                ["verify", "solution", "--instance", "edge3.json", "--template", "k2.json",
                 "--assignment", "number-side.json"],
                "side: expected a string",
            ),
            (["gap", "layered", "--llc", "twice.json", "--d", "1"],
             "constraints[1]: repeats the pair a->b"),
            (["gap", "layered", "--llc", "repeated-label.json", "--d", "1"],
             "variable 'a' repeats the label '0' in its domain"),
            (
                ["gap", "oracle", "--instance", "edge3.json", "--template", "k2.json",
                 "--k", "3,2", "--d", "0"],
                "d=0: expected a width of at least 1",
            ),
            (["gap", "layered", "--llc", "once.json", "--d", "-1"],
             "max_d=-1: expected a width of at least 1"),
            (
                ["reduce", "pcsp", "--source", "path.json", "--source-template", "t22.json",
                 "--target-template", "t22.json", "--dr-table", "xi33.json"],
                "the identity table's template is not the target template",
            ),
            (
                ["reduce", "pcsp", "--source", "path.json", "--source-template", "t22.json",
                 "--target-template", "t33.json", "--dr-table", "xi33.json"],
                "the identity table's images are not over the source's strict and relaxed domains",
            ),
            (
                ["reduce", "pcsp", "--source", "path.json", "--source-template", "t22.json",
                 "--target-template", "t22.json", "--dr-table", "explicit33.json"],
                "is not over the target's strict and relaxed domains",
            ),
            (
                ["decode", "--assignment", "path-lift.json", "--layout", "path-layout.json",
                 "--dr-table", "explicit33.json", "--source", "path.json",
                 "--source-template", "t22.json"],
                "is not over the target's strict and relaxed domains",
            ),
            (
                ["decode", "--assignment", "zeros.json", "--layout", "w1-layout.json",
                 "--dr-table", "xi.json", "--source", "empty3.json",
                 "--source-template", "t22.json", "--budget", "1000"],
                "cloud enumeration needs 65536 positions",
            ),
            (
                ["decode", "--assignment", "zeros.json", "--layout", "k32-layout.json",
                 "--dr-table", "xi33.json", "--source", "path.json",
                 "--source-template", "t22.json", "--budget", "200"],
                "cloud enumeration needs 108 positions and 1404 matrices, over the budget of 200",
            ),
            (
                ["decode", "--assignment", "path-lift.json", "--layout", "no-aux-layout.json",
                 "--dr-table", "xi.json", "--source", "path.json",
                 "--source-template", "t22.json"],
                "aux: missing",
            ),
            (
                ["reduce", "pcsp", "--source", "path.json", "--source-template", "t22.json",
                 "--target-template", "t22.json", "--dr-table", "xi-r-true.json"],
                "r: expected an integer",
            ),
            (
                ["verify", "msolution", "--pas", "seq.json", "--assignment", "index-true.json"],
                "index: expected an integer",
            ),
            (
                ["reduce", "pcsp", "--source", "path.json", "--source-template", "t22.json",
                 "--target-template", "t22.json", "--dr-table", "xi-d7.json"],
                "d: the identity table has width 1, got 7",
            ),
            (
                ["reduce", "pcsp", "--source", "non-utf8.json", "--source-template", "t22.json",
                 "--target-template", "t22.json", "--dr-table", "xi.json"],
                "non-utf8.json: 'utf-8' codec can't decode byte 0xff",
            ),
            (
                ["decode", "--assignment", "path-lift.json", "--layout", "path-layout.json",
                 "--dr-table", "xi.json", "--source", "path.json",
                 "--source-template", "non-utf8.json"],
                "non-utf8.json: 'utf-8' codec can't decode byte 0xff",
            ),
            (
                ["reduce", "pcsp", "--source", "nested.json", "--source-template", "t22.json",
                 "--target-template", "t22.json", "--dr-table", "xi.json"],
                "nested.json: maximum recursion depth exceeded",
            ),
            (
                ["decode", "--assignment", "path-lift.json", "--layout", "path-layout.json",
                 "--dr-table", "xi.json", "--source", "path.json",
                 "--source-template", "nested.json"],
                "nested.json: maximum recursion depth exceeded",
            ),
            (
                ["reduce", "pcsp", "--source", "long-integer.json", "--source-template", "t22.json",
                 "--target-template", "t22.json", "--dr-table", "xi.json"],
                "long-integer.json: Exceeds the limit (4300",
            ),
            (
                ["decode", "--assignment", "path-lift.json", "--layout", "path-layout.json",
                 "--dr-table", "xi.json", "--source", "path.json",
                 "--source-template", "long-integer.json"],
                "long-integer.json: Exceeds the limit (4300",
            ),
            (
                ["gap", "params", "--domain-size", "2", "--m", "1", "--values", "1,2000"],
                "arity k[0] has 2002 bits, over the limit",
            ),
            (
                ["verify", "msolution", "--pas", "seq.json", "--assignment", "zeros.json",
                 "--m", "-1"],
                "m=-1",
            ),
            (
                ["solve", "--instance", "edge3.json", "--template", "number.json"],
                "payload: expected an object",
            ),
            (
                ["verify", "msolution", "--pas", "xyz.json", "--assignment", "only-x.json"],
                "assignment is not total: missing 'y'",
            ),
            (
                ["solve", "--instance", "edge3.json", "--template", "arity0.json"],
                "relation arity must be positive",
            ),
            (
                ["gap", "oracle", "--instance", "edge3.json", "--template", "short-tuple.json",
                 "--k", "3,2", "--d", "1"],
                "does not match arity",
            ),
            (
                ["poly", "enum", "--template", "no-domain.json", "--arity", "1"],
                "domain must be nonempty",
            ),
            (["verify", "consistent", "--pas", "pas-arity3.json"], "out of range for"),
            (
                ["verify", "consistent", "--pas", "pas-key.json"],
                "is not an arity-1 variable subset",
            ),
            (["verify", "consistent", "--pas", "pas-value.json"], "is malformed"),
            (
                ["verify", "consistent", "--pas", "no-systems.json"],
                "a sequence needs at least one system",
            ),
            (
                ["verify", "consistent", "--pas", "x-then-y.json"],
                "systems disagree on variables or domain",
            ),
            (["gap", "layered", "--llc", "two-layers.json", "--d", "1"], "appears in two layers"),
            (
                ["poly", "check", "--template", "t22.json", "--function", "table3.json"],
                "table has 3 entries, expected 4",
            ),
            (
                ["poly", "enum", "--template", "t22.json", "--labels", ""],
                "--labels: expected comma-separated nonempty labels, got ''",
            ),
            (
                ["poly", "enum", "--template", "t22.json", "--labels", "a,"],
                "--labels: expected comma-separated nonempty labels, got 'a,'",
            ),
            (
                ["poly", "check", "--template", "t22.json", "--dr-table", "no-images.json",
                 "--slice", "pol22.json"],
                "image sets must be nonempty",
            ),
            (
                ["poly", "check", "--template", "t22.json", "--dr-table", "xi.json",
                 "--slice", "other-in-domain.json"],
                "function domains disagree with the slice",
            ),
            (
                ["solve", "--instance", "edge3.json", "--template", "k2.json", "--side", "relaxed"],
                "--side relaxed: --template holds one structure, not a template",
            ),
            (
                ["gap", "oracle", "--instance", "edge3.json", "--template", "k2.json",
                 "--k", "3,2", "--d", "1", "--side", "strict"],
                "--side strict: --template holds one structure, not a template",
            ),
            (
                ["reduce", "llc", "--instance", "edge3.json", "--template", "k2.json",
                 "--params", "k32.json", "--side", "relaxed"],
                "--side relaxed: --template holds one structure, not a template",
            ),
            (
                ["verify", "solution", "--instance", "edge3.json", "--template", "k2.json",
                 "--assignment", "zeros.json", "--side", "strict"],
                "--side strict: --template holds one structure, not a template",
            ),
            (
                ["poly", "check", "--template", "t33.json", "--function", "d9.json",
                 "--budget", "1000"],
                "checking 10077696 matrices takes 20155392 row entries, over the budget of 1000",
            ),
            (
                ["poly", "check", "--template", "t22.json", "--function", "neg.json",
                 "--budget", "0"],
                "checking 4 matrices takes 8 row entries, over the budget of 0",
            ),
            (
                ["poly", "check", "--template", "t22.json", "--dr-table", "xi.json",
                 "--slice", "pol22.json", "--budget", "3"],
                "checking 2 matrices takes 4 row entries, over the budget of 3",
            ),
        ],
        ids=[
            "gap-params-values", "gap-oracle-k", "msolution-index-past-the-end",
            "msolution-negative-index", "reduce-llc-params", "gap-oracle-negative-arity",
            "reduce-llc-negative-arity", "reduce-llc-no-arity", "poly-check-function",
            "gap-extract-pas", "verify-consistent-pas", "gap-extract-params",
            "verify-solution-list-value", "verify-solution-number-side",
            "gap-layered-repeated-pair", "gap-layered-repeated-label", "gap-oracle-width-0",
            "gap-layered-width-minus-1",
            "reduce-pcsp-table-off-the-target",
            "reduce-pcsp-identity-table-off-the-source",
            "reduce-pcsp-explicit-table-off-the-target", "decode-explicit-table-off-the-target",
            "decode-budget-on-the-layout", "decode-budget-on-the-lower-clouds",
            "decode-layout-without-aux",
            "reduce-pcsp-boolean-r", "msolution-boolean-index", "reduce-pcsp-identity-width-7",
            "non-utf8-first", "non-utf8-later", "nested-first", "nested-later",
            "long-integer-first", "long-integer-later", "gap-params-split-value-2000",
            "msolution-negative-m", "solve-template-a-number", "msolution-partial-assignment",
            "template-arity-0", "template-short-tuple", "template-empty-domain",
            "pas-arity-past-the-variables", "pas-key-outside-the-variables",
            "pas-value-outside-the-domain", "pas-no-systems", "pas-systems-on-other-variables",
            "llc-variable-in-two-layers", "function-3-entries-at-arity-2",
            "poly-enum-no-labels", "poly-enum-a-trailing-comma",
            "explicit-table-empty-images", "slice-function-on-another-domain",
            "solve-side-on-a-structure", "gap-oracle-side-on-a-structure",
            "reduce-llc-side-on-a-structure", "verify-solution-side-on-a-structure",
            "poly-check-function-budget", "poly-check-function-budget-0",
            "poly-check-slice-member-budget",
        ],
    )
    def test_is_one_error_line_and_a_report(self, argv, message, more, tmp_path, capsys):
        report = tmp_path / "report.json"
        given = {more[a] for a in argv if a in more}
        argv = [more.get(a, a) for a in argv] + ["--report", str(report)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        written = json.loads(report.read_text())
        assert message in written["payload"]["error"]
        # every given file is digested, the faulty one and those after it too
        assert written["inputs"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in given
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "consistent"],
            ["verify", "solution", "--instance", "c5.json", "--template", "k2.json"],
            ["poly", "check", "--template", "t22.json", "--dr-table", "xi.json"],
        ],
        ids=["verify-consistent-without-pas", "verify-solution-without-assignment",
             "poly-check-dr-table-without-slice"],
    )
    def test_a_missing_file_is_a_usage_error(self, argv, more):
        with pytest.raises(SystemExit) as err:
            main([more.get(a, a) for a in argv])
        assert err.value.code == 2


class TestCountsPastTheDigitLimit:
    """A budget refusal whose count has more than Python's 4,300 digits gives
    it by its bit length: one error line, exit 1 and a report holding it."""

    @pytest.fixture()
    def huge(self, files, tmp_path, t22):
        one = {"variables": ["x"], "constraints": []}
        # a k=[1] layout over one variable with 15,000 strict atoms: one cloud
        # of 2^15000 positions, refused as the layout is read
        layout = pk.pipeline_reduce(path_instance(2), t22, t22, pk.IdentityDrTable(t22)).layout
        strict = {"domain": [f"a{i}" for i in range(15000)], "relations": {}}
        wide = {**layout.to_payload(), "aux": {"source": one, "strict": strict, "k": [1]}}
        written = {
            "free.json": pk.Instance([f"x{i}" for i in range(15000)], []).to_payload(),
            "one.json": one,
            "wide-layout.json": wide,
            "no-values.json": {"values": {}},
        }
        for name, payload in written.items():
            jsonio.write_canonical(tmp_path / name, payload)
        return {**files, **{name: str(tmp_path / name) for name in written}}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["solve", "--instance", "free.json", "--template", "t22.json"],
                "brute force would enumerate a 15001-bit number of candidates, over the budget",
            ),
            (
                ["poly", "enum", "--template", "t22.json", "--arity", "15000"],
                "checking a 15001-bit number of matrices takes a 15002-bit number of row entries",
            ),
            (
                ["decode", "--assignment", "no-values.json", "--layout", "wide-layout.json",
                 "--dr-table", "xi.json", "--source", "one.json", "--source-template", "t22.json"],
                "cloud enumeration needs a 15001-bit number of positions",
            ),
        ],
        ids=["solve-15000-free-variables", "poly-enum-arity-15000", "decode-15000-atom-layout"],
    )
    def test_is_one_error_line_and_a_report(self, argv, message, huge, tmp_path, capsys):
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main([huge.get(a, a) for a in argv] + ["--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert message in json.loads(report.read_text())["payload"]["error"]


class TestOptionsEachHandlerReads:
    """`--out` and `--budget` exist only where the handler reads them, each
    `verify` kind takes only its own options and files, `poly enum` takes one
    of `--arity` and `--labels`, and `poly check` a slice only with a table,
    and something to check: anything else is a usage error (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "check", "--template", "t22.json", "--out", "x.json"],
            ["gap", "oracle", "--instance", "c5.json", "--template", "t22.json", "--k", "3,2",
             "--d", "1", "--out", "x.json"],
            ["verify", "consistent", "--pas", "seq.json", "--out", "x.json"],
            ["gap", "params", "--domain-size", "2", "--m", "1", "--values", "1,1",
             "--budget", "5"],
            ["gap", "extract", "--pas", "seq.json", "--params", "p11.json", "--m", "1",
             "--budget", "5"],
            ["verify", "consistent", "--pas", "seq.json", "--budget", "5"],
            ["poly", "check", "--template", "t22.json", "--slice", "seq.json"],
            ["poly", "enum", "--template", "t22.json"],
            ["verify", "consistent", "--pas", "seq.json", "--m", "9"],
            ["verify", "consistent", "--pas", "seq.json", "--index", "1"],
            ["verify", "consistent", "--pas", "seq.json", "--side", "relaxed"],
            ["verify", "msolution", "--pas", "seq.json", "--assignment", "seq.json",
             "--side", "relaxed"],
            ["verify", "solution", "--instance", "c5.json", "--template", "k2.json",
             "--assignment", "seq.json", "--m", "2"],
            ["verify", "consistent", "--pas", "seq.json", "--assignment", "seq.json"],
            ["verify", "solution", "--instance", "c5.json", "--template", "k2.json",
             "--assignment", "seq.json", "--pas", "seq.json"],
            ["poly", "enum", "--template", "t22.json", "--arity", "2", "--labels", "a,b,c"],
            ["poly", "check", "--template", "t22.json"],
        ],
        ids=[
            "poly-check-out", "gap-oracle-out", "verify-out", "gap-params-budget",
            "gap-extract-budget", "verify-budget", "slice-without-table", "enum-without-arity",
            "verify-consistent-m", "verify-consistent-index", "verify-consistent-side",
            "verify-msolution-side", "verify-solution-m", "verify-consistent-assignment",
            "verify-solution-pas", "enum-arity-and-labels", "poly-check-nothing",
        ],
    )
    def test_is_a_usage_error(self, files, argv, capsys):
        argv = [files.get(arg, arg) for arg in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestPathsEachCommandTakes:
    def test_solve_all_lists_every_solution(self, files, tmp_path, capsys):
        out, report = tmp_path / "all.json", tmp_path / "report.json"
        argv = ["solve", "--instance", files["edge3.json"], "--template", files["t22.json"], "--all"]
        assert main(argv + ["--out", str(out), "--report", str(report)]) == 0
        solutions = json.loads(out.read_text())["solutions"]
        assert len(solutions) == 8 and json.loads(report.read_text())["payload"]["count"] == 8
        assert all(s["values"]["x"] != s["values"]["y"] for s in solutions)
        assert capsys.readouterr().out == "8 solution(s)\n"
        assert main(["solve", "--instance", files["c5.json"], "--template", files["k2.json"], "--all"]) == 1

    def test_solve_the_relaxed_side_of_a_template(self, files, tmp_path, t23):
        # the 5-cycle is not 2-colourable, but it is 3-colourable
        jsonio.write_canonical(tmp_path / "t23.json", t23.to_payload())
        argv = ["solve", "--instance", files["c5.json"], "--template", str(tmp_path / "t23.json")]
        assert main(argv) == 1
        out = tmp_path / "out.json"
        assert main(argv + ["--side", "relaxed", "--out", str(out)]) == 0
        solution = pk.Assignment.from_payload(json.loads(out.read_text()))
        assert solution.side == "relaxed"
        assert pk.evaluate(cycle_instance(5), t23.relaxed, solution) == []

    def test_verify_msolution_reads_the_index_an_extraction_carries(self, files, tmp_path):
        # the artifact's index is read over --index, here one past the sequence
        sol = tmp_path / "sol.json"
        main(["gap", "extract", "--pas", files["seq.json"], "--params", files["p11.json"],
              "--m", "1", "--out", str(sol)])
        assert "index" in json.loads(sol.read_text())
        report = tmp_path / "report.json"
        seq = pk.PasSequence.from_payload(jsonio.read_json(files["seq.json"]))
        assert main([
            "verify", "msolution", "--pas", files["seq.json"], "--assignment", str(sol),
            "--m", "1", "--index", str(len(seq)), "--report", str(report),
        ]) == 0
        assert json.loads(report.read_text())["verifications"] == {"is_m_solution": True}


class TestSourcesPastTheTopArity:
    """`reduce pcsp` and `decode` take a source past compact k[0] with no
    flag: the source's size picks the record, and the layout's aux.k holds it."""

    def test_six_unary_variables_reduce_solve_and_decode(self, tmp_path, unary_side, capsys):
        template = pk.PcspTemplate(unary_side, unary_side)
        values = {f"x{i}": "01"[i % 2] for i in range(6)}
        phi = pk.Instance(list(values), [((x,), f"only{v}") for x, v in values.items()])
        for name, payload in (
            ("phi.json", phi.to_payload()),
            ("t.json", template.to_payload()),
            ("xi.json", pk.IdentityDrTable(template, r=1).to_payload()),
        ):
            jsonio.write_canonical(tmp_path / name, payload)
        path = {name: str(tmp_path / name) for name in
                ("phi.json", "t.json", "xi.json", "out.json", "layout.json", "report.json",
                 "lift.json", "recovered.json")}
        assert main([
            "reduce", "pcsp", "--source", path["phi.json"], "--source-template", path["t.json"],
            "--target-template", path["t.json"], "--dr-table", path["xi.json"],
            "--out", path["out.json"], "--layout", path["layout.json"],
            "--report", path["report.json"],
        ]) == 0
        report = json.loads(Path(path["report.json"]).read_text())["payload"]
        assert report["k"] == [5, 2] and report["gadget"] is False
        assert len(report["cloud_sizes"]) == 6 + 15
        assert main([
            "solve", "--instance", path["out.json"], "--template", path["t.json"],
            "--out", path["lift.json"],
        ]) == 0
        assert main([
            "decode", "--assignment", path["lift.json"], "--layout", path["layout.json"],
            "--dr-table", path["xi.json"], "--source", path["phi.json"],
            "--source-template", path["t.json"], "--out", path["recovered.json"],
        ]) == 0
        assert json.loads(Path(path["recovered.json"]).read_text())["values"] == values

    def test_the_five_cycle_reduces_to_the_gadget(self, files, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main([
            "reduce", "pcsp", "--source", files["c5.json"], "--source-template", files["t22.json"],
            "--target-template", files["t22.json"], "--dr-table", files["xi.json"],
            "--report", str(report),
        ]) == 0
        payload = json.loads(report.read_text())["payload"]
        assert payload["gadget"] is True and payload["k"] == [9, 4]
        assert capsys.readouterr().out.endswith("(gadget: promise violation detected)\n")

    def test_decode_prices_a_layout_lattice_before_building_it(
        self, files, tmp_path, t22, monkeypatch, capsys
    ):
        # the 30-vertex path at k=[9, 4]: 14,307,150 nine-subsets
        xi = pk.IdentityDrTable(t22, r=1)
        payload = pk.pipeline_reduce(path_instance(3), t22, t22, xi).layout.to_payload()
        payload["aux"].update(source=path_instance(30).to_payload(), k=[9, 4])
        jsonio.write_canonical(tmp_path / "path30-layout.json", payload)
        jsonio.write_canonical(tmp_path / "path30.json", path_instance(30).to_payload())
        jsonio.write_canonical(tmp_path / "a.json", pk.Assignment({"x": "0"}).to_payload())

        def unbuilt(*args, **kwargs):
            raise AssertionError("the subset lattice was built")

        monkeypatch.setattr(pk.reduction, "partial_solution_table", unbuilt)
        code = main([
            "decode", "--assignment", str(tmp_path / "a.json"),
            "--layout", str(tmp_path / "path30-layout.json"), "--dr-table", files["xi.json"],
            "--source", str(tmp_path / "path30.json"), "--source-template", files["t22.json"],
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: the subset lattice of 30 variables at k=[9, 4] exceeds the budget of 10000000\n"
        )
