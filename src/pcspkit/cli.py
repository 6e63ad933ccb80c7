"""Command-line entry point.

Every subcommand is a thin adapter over one library operation: inputs come
from JSON files, result artifacts are written canonically (sorted keys,
newline terminated) so identical inputs give byte-identical outputs, and an
optional machine-readable report collects input digests, timings, and the
outcome of each replayed verification.

Exit codes: 0 success (or "solvable"), 1 domain-level negative or error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import jsonio
from .core import (
    Assignment,
    DEFAULT_BUDGET,
    Instance,
    PcspTemplate,
    RelationalStructure,
    _payload_field,
    all_solutions,
    brute_force_solve,
    evaluate,
)
from .errors import InputError, PcspkitError
from .labelcover import (
    LlcInstance,
    combinatorial_layered_value,
    csp_value_oracle,
    reduce_mcsp_to_llc,
)
from .minion import (
    FiniteFunction,
    MinionSlice,
    check_dr_homomorphism,
    dr_table_from_payload,
    enumerate_polymorphisms,
    is_polymorphism,
)
from .pas import (
    GapParameters,
    PasSequence,
    check_consistent,
    extract_solution,
    gap_parameters,
    is_m_solution,
)
from .reduction import CloudLayout, pipeline_reduce, recover_source_solution


class _Report:
    def __init__(self, command: str):
        self.command = command
        self.started = time.monotonic()
        self.inputs: dict = {}
        self.timings: dict = {}
        self.verifications: dict = {}
        self.payload: dict = {}
        self.result_path = None

    def add_input(self, path) -> None:
        if path:
            self.inputs[str(path)] = jsonio.digest(path)

    def verified(self, name: str, ok: bool) -> None:
        self.verifications[name] = bool(ok)

    def finish(self, path) -> None:
        self.timings["total_seconds"] = round(time.monotonic() - self.started, 6)
        if path:
            jsonio.write_canonical(
                path,
                {
                    "command": self.command,
                    "inputs": self.inputs,
                    "timings": self.timings,
                    "result_path": self.result_path,
                    "verifications": self.verifications,
                    "payload": self.payload,
                },
            )

    @property
    def all_passed(self) -> bool:
        return all(self.verifications.values())


def _load_side(path: str, side: str) -> RelationalStructure:
    payload = jsonio.read_json(path)
    if "strict" in payload and "relaxed" in payload:
        return PcspTemplate.from_payload(payload).side(side)
    return RelationalStructure.from_payload(payload)


def _ints(text: str, option: str) -> list:
    """A comma-separated list of integers given as a command-line option."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{option}: expected comma-separated integers, got {text!r}") from None


def _emit(path, payload, report: _Report) -> None:
    if path:
        jsonio.write_canonical(path, payload)
        report.result_path = str(path)


def _cmd_solve(args, report: _Report) -> int:
    report.add_input(args.instance)
    report.add_input(args.template)
    instance = Instance.from_payload(jsonio.read_json(args.instance))
    side = _load_side(args.template, args.side)
    if args.all:
        solutions = all_solutions(instance, side, budget=args.budget, tag=args.side)
        report.payload["count"] = len(solutions)
        _emit(args.out, {"solutions": [s.to_payload() for s in solutions]}, report)
        print(f"{len(solutions)} solution(s)")
        return 0 if solutions else 1
    found = brute_force_solve(instance, side, budget=args.budget, tag=args.side)
    if found is None:
        print("unsatisfiable")
        return 1
    report.verified("evaluate_empty", not evaluate(instance, side, found))
    _emit(args.out, found.to_payload(), report)
    print(f"solution: {dict(found.values)}")
    return 0


def _cmd_poly_enum(args, report: _Report) -> int:
    report.add_input(args.template)
    template = PcspTemplate.from_payload(jsonio.read_json(args.template))
    labels = args.labels.split(",") if args.labels else [f"x{i}" for i in range(args.arity)]
    found = enumerate_polymorphisms(template, labels, budget=args.budget)
    report.payload["count"] = len(found)
    _emit(args.out, {"functions": [fn.to_payload() for fn in found]}, report)
    print(f"{len(found)} polymorphism(s) of arity {len(labels)}")
    return 0


def _cmd_poly_check(args, report: _Report) -> int:
    report.add_input(args.template)
    template = PcspTemplate.from_payload(jsonio.read_json(args.template))
    ok = True
    if args.function:
        for path in args.function:
            report.add_input(path)
            fn = FiniteFunction.from_payload(jsonio.read_json(path))
            good = is_polymorphism(fn, template)
            report.verified(f"polymorphism:{path}", good)
            print(f"{path}: {'polymorphism' if good else 'NOT a polymorphism'}")
            ok = ok and good
    if args.dr_table:
        report.add_input(args.dr_table)
        report.add_input(args.slice)
        table = dr_table_from_payload(jsonio.read_json(args.dr_table))
        slice_ = MinionSlice.from_payload(jsonio.read_json(args.slice))
        result = check_dr_homomorphism(table, slice_, budget=args.budget)
        report.verified("dr_homomorphism", bool(result))
        print(f"chain condition: {'holds' if result else 'violated'}")
        ok = ok and bool(result)
    return 0 if ok else 1


def _cmd_gap_params(args, report: _Report) -> int:
    values = _ints(args.values, "--values")
    params = gap_parameters(args.domain_size, args.m, values, mode=args.mode)
    report.payload["k"] = list(params.k)
    _emit(args.out, params.to_payload(), report)
    print(f"k = {list(params.k)}  (mode={params.mode}, raw k0 = {params.k0_raw})")
    return 0


def _cmd_gap_extract(args, report: _Report) -> int:
    report.add_input(args.pas)
    report.add_input(args.params)
    seq = PasSequence.from_payload(jsonio.read_json(args.pas))
    params = GapParameters.from_payload(jsonio.read_json(args.params))
    result = extract_solution(seq, params, args.m)
    report.verified(
        "is_m_solution", is_m_solution(result.assignment, seq[result.index], args.m)
    )
    _emit(
        args.out,
        {"index": result.index, "assignment": result.assignment.to_payload()},
        report,
    )
    print(f"extracted an {args.m}-solution of system {result.index}")
    return 0 if report.all_passed else 1


def _cmd_gap_oracle(args, report: _Report) -> int:
    report.add_input(args.instance)
    report.add_input(args.template)
    instance = Instance.from_payload(jsonio.read_json(args.instance))
    side = _load_side(args.template, args.side)
    k = _ints(args.k, "--k")
    answer = csp_value_oracle(instance, side, k, args.d, budget=args.budget)
    report.payload["value_at_most_d"] = answer
    print(f"value <= {args.d}: {'yes' if answer else 'no'}")
    return 0 if answer else 1


def _cmd_gap_layered(args, report: _Report) -> int:
    report.add_input(args.llc)
    instance = LlcInstance.from_payload(jsonio.read_json(args.llc))
    result = combinatorial_layered_value(instance, args.d, budget=args.budget)
    report.payload["value"] = result.value
    if result:
        _emit(args.out, result.witness.to_payload(), report)
    print(f"layered value: {result.value}" if result else f"layered value above {args.d}")
    return 0 if result else 1


def _cmd_reduce_llc(args, report: _Report) -> int:
    report.add_input(args.instance)
    report.add_input(args.template)
    report.add_input(args.params)
    instance = Instance.from_payload(jsonio.read_json(args.instance))
    side = _load_side(args.template, args.side)
    params = jsonio.read_json(args.params)
    if isinstance(params, list):  # the arities alone
        params = {"k": params}
    k = _payload_field(params, "", "k", list, items=int)
    reduced = reduce_mcsp_to_llc(instance, side, k, budget=args.budget)
    _emit(args.out, reduced.to_payload(), report)
    print(
        f"layers: {[len(layer) for layer in reduced.layers]}"
        + (" (flagged: empty domain)" if reduced.has_empty_domain else "")
    )
    return 0


def _cmd_reduce_pcsp(args, report: _Report) -> int:
    for path in (args.source, args.source_template, args.target_template, args.dr_table):
        report.add_input(path)
    phi = Instance.from_payload(jsonio.read_json(args.source))
    source = PcspTemplate.from_payload(jsonio.read_json(args.source_template))
    target = PcspTemplate.from_payload(jsonio.read_json(args.target_template))
    table = dr_table_from_payload(jsonio.read_json(args.dr_table))
    result = pipeline_reduce(phi, source, target, table, budget=args.budget)
    _emit(args.out, result.instance.to_payload(), report)
    if args.layout:
        jsonio.write_canonical(args.layout, result.layout.to_payload())
    report.payload["variables"] = len(result.instance.variables)
    report.payload["constraints"] = len(result.instance.scopes)
    report.payload["k"] = list(result.params.k)
    report.payload["gadget"] = result.layout.gadget
    if result.layout.aux is not None:
        report.payload["cloud_sizes"] = {
            cloud.id: cloud.size(len(target.strict.domain)) for cloud in result.layout.clouds
        }
    print(
        f"emitted {len(result.instance.variables)} variables, "
        f"{len(result.instance.scopes)} constraints"
        + (" (gadget: promise violation detected)" if result.layout.gadget else "")
    )
    return 0


def _cmd_decode(args, report: _Report) -> int:
    for path in (args.assignment, args.layout, args.dr_table, args.source, args.source_template):
        report.add_input(path)
    assignment = Assignment.from_payload(jsonio.read_json(args.assignment)).mapping
    layout = CloudLayout.from_payload(jsonio.read_json(args.layout), budget=args.budget)
    table = dr_table_from_payload(jsonio.read_json(args.dr_table))
    phi = Instance.from_payload(jsonio.read_json(args.source))
    source = PcspTemplate.from_payload(jsonio.read_json(args.source_template))
    solution = recover_source_solution(
        assignment, layout, table, phi, source, budget=args.budget
    )
    report.verified("solves_relaxed_source", not evaluate(phi, source.relaxed, solution))
    _emit(args.out, solution.to_payload(), report)
    print(f"recovered a relaxed solution: {dict(solution.values)}")
    return 0 if report.all_passed else 1


# The files each kind of `verify` reads.
_VERIFY_NEEDS = {
    "consistent": ("pas",),
    "msolution": ("pas", "assignment"),
    "solution": ("instance", "template", "assignment"),
}


def _cmd_verify(args, report: _Report) -> int:
    for name in _VERIFY_NEEDS[args.kind]:
        report.add_input(getattr(args, name))
    if args.kind == "consistent":
        seq = PasSequence.from_payload(jsonio.read_json(args.pas))
        result = check_consistent(seq)
        report.verified("consistent", bool(result))
        print("consistent" if result else f"inconsistent on chain {result.chain}")
        return 0 if result else 1
    if args.kind == "msolution":
        seq = PasSequence.from_payload(jsonio.read_json(args.pas))
        payload = jsonio.read_json(args.assignment)
        index = args.index
        if isinstance(payload, dict) and "assignment" in payload:
            # an extraction artifact carries its index
            if "index" in payload:
                index = _payload_field(payload, "", "index", int)
            payload = payload["assignment"]
        f = Assignment.from_payload(payload)
        if not 0 <= index < len(seq):
            raise InputError(f"index {index}: expected 0 <= index < {len(seq)}")
        ok = is_m_solution(f, seq[index], args.m)
        report.verified("is_m_solution", ok)
        print("verified" if ok else "NOT an m-solution")
        return 0 if ok else 1
    instance = Instance.from_payload(jsonio.read_json(args.instance))
    side = _load_side(args.template, args.side)
    f = Assignment.from_payload(jsonio.read_json(args.assignment))
    violated = evaluate(instance, side, f)
    report.verified("evaluate_empty", not violated)
    print("verified" if not violated else f"violates constraints {violated}")
    return 0 if not violated else 1


def _add_common(parser) -> None:
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--report", default=None)
    parser.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcspkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="brute-force solve an instance over a structure")
    p.add_argument("--instance", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--side", choices=("strict", "relaxed"), default="strict")
    p.add_argument("--all", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    poly = sub.add_parser("poly", help="polymorphism operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = poly.add_parser("enum")
    p.add_argument("--template", required=True)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--labels", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_poly_enum)
    p = poly.add_parser("check")
    p.add_argument("--template", required=True)
    p.add_argument("--function", action="append", default=[])
    p.add_argument("--dr-table", default=None)
    p.add_argument("--slice", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_poly_check)

    gap = sub.add_parser("gap", help="partial assignment system operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = gap.add_parser("params")
    p.add_argument("--domain-size", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--mode", choices=("compact", "conservative"), default="compact")
    _add_common(p)
    p.set_defaults(func=_cmd_gap_params)
    p = gap.add_parser("extract")
    p.add_argument("--pas", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gap_extract)
    p = gap.add_parser("oracle")
    p.add_argument("--instance", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--side", choices=("strict", "relaxed"), default="strict")
    p.add_argument("--k", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gap_oracle)
    p = gap.add_parser("layered")
    p.add_argument("--llc", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_gap_layered)

    reduce_ = sub.add_parser("reduce", help="instance reductions").add_subparsers(
        dest="subcommand", required=True
    )
    p = reduce_.add_parser("llc")
    p.add_argument("--instance", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--side", choices=("strict", "relaxed"), default="strict")
    p.add_argument("--params", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce_llc)
    p = reduce_.add_parser("pcsp")
    p.add_argument("--source", required=True)
    p.add_argument("--source-template", required=True)
    p.add_argument("--target-template", required=True)
    p.add_argument("--dr-table", required=True)
    p.add_argument("--layout", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce_pcsp)

    p = sub.add_parser("decode", help="decode a relaxed solution of a reduced instance")
    p.add_argument("--assignment", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--dr-table", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--source-template", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="replay stored post-conditions on artifacts")
    p.add_argument("kind", choices=("consistent", "msolution", "solution"))
    p.add_argument("--pas", default=None)
    p.add_argument("--assignment", default=None)
    p.add_argument("--instance", default=None)
    p.add_argument("--template", default=None)
    p.add_argument("--side", choices=("strict", "relaxed"), default="strict")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--index", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    # what an invocation lacks that the parser cannot require by itself
    if command == "poly enum" and args.arity is None and args.labels is None:
        parser.error("poly enum needs --arity or --labels")
    if command == "poly check" and args.dr_table and args.slice is None:
        parser.error("poly check --dr-table needs --slice")
    if command == "verify":
        missing = [f"--{name}" for name in _VERIFY_NEEDS[args.kind] if getattr(args, name) is None]
        if missing:
            parser.error(f"verify {args.kind} needs {' and '.join(missing)}")
    report = _Report(command)
    try:
        code = args.func(args, report)
    except (PcspkitError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.payload["error"] = str(exc)
        report.finish(args.report)
        return 1
    report.finish(args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
