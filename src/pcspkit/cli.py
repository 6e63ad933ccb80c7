"""Command-line entry point.

Every subcommand is a thin adapter over one library operation: inputs come
from JSON files, result artifacts are written canonically (sorted keys,
newline terminated) so identical inputs give byte-identical outputs, and an
optional machine-readable report collects input digests, timings, and the
outcome of each replayed verification.

The parser states what each subcommand takes, its input files named once in
`_add_common`: `verify consistent` takes `--pas`, `verify msolution` `--pas`,
`--assignment`, `--m` and `--index`, `verify solution` `--instance`,
`--template`, `--assignment` and `--side`, and `poly enum` exactly one of
`--arity` and `--labels`.  `main` adds that `poly check` takes `--dr-table`
and `--slice` together, and one of them or a `--function`; `poly check`
prices every membership walk under `--budget` before it runs any; and
`--side` picks a side of a template, so a `--template` file holding one
structure takes none.  It reads each
file given once, records the SHA-256 of its bytes, and only then decodes
those bytes (`jsonio.loads`) for the handler.  A file that is missing, or
that `json` cannot decode, is an error like any other; so is a report that
cannot be written.

Exit codes: 0 success (or "solvable"), 1 domain-level negative or error,
2 usage error.  An error prints `error:` lines on stderr, never a
traceback, and still writes the report when its path can be written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import Optional

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
    LazyPolymorphismSlice,
    MinionSlice,
    _price_matrices,
    check_dr_homomorphism,
    dr_table_from_payload,
    enumerate_polymorphisms,
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


def _load_side(payload, side: Optional[str]) -> RelationalStructure:
    """The `--side` of a template file, its strict side when none is given;
    a file holding one structure is that structure, and takes no `--side`."""
    if isinstance(payload, dict) and "strict" in payload and "relaxed" in payload:
        return PcspTemplate.from_payload(payload).side(side or "strict")
    if side is not None:
        raise InputError(f"--side {side}: --template holds one structure, not a template")
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


def _cmd_solve(args, inputs: dict, report: _Report) -> int:
    instance = Instance.from_payload(inputs[args.instance])
    side, tag = _load_side(inputs[args.template], args.side), args.side or "strict"
    if args.all:
        solutions = all_solutions(instance, side, budget=args.budget, tag=tag)
        report.payload["count"] = len(solutions)
        _emit(args.out, {"solutions": [s.to_payload() for s in solutions]}, report)
        print(f"{len(solutions)} solution(s)")
        return 0 if solutions else 1
    found = brute_force_solve(instance, side, budget=args.budget, tag=tag)
    if found is None:
        print("unsatisfiable")
        return 1
    report.verified("evaluate_empty", not evaluate(instance, side, found))
    _emit(args.out, found.to_payload(), report)
    print(f"solution: {dict(found.values)}")
    return 0


def _cmd_poly_enum(args, inputs: dict, report: _Report) -> int:
    template = PcspTemplate.from_payload(inputs[args.template])
    # the parser takes exactly one of --labels and --arity
    labels = [f"x{i}" for i in range(args.arity)] if args.labels is None else args.labels.split(",")
    if "" in labels:  # as in `--labels ""` or `--labels a,`
        raise InputError(f"--labels: expected comma-separated nonempty labels, got {args.labels!r}")
    found = enumerate_polymorphisms(template, labels, budget=args.budget)
    report.payload["count"] = len(found)
    _emit(args.out, {"functions": [fn.to_payload() for fn in found]}, report)
    print(f"{len(found)} polymorphism(s) of arity {len(labels)}")
    return 0


def _cmd_poly_check(args, inputs: dict, report: _Report) -> int:
    template = PcspTemplate.from_payload(inputs[args.template])
    functions = [FiniteFunction.from_payload(inputs[path]) for path in args.function]
    members = []
    if args.dr_table:
        table = dr_table_from_payload(inputs[args.dr_table])
        slice_ = MinionSlice.from_payload(inputs[args.slice])
        # the payload's own order, so the error names the member as written
        members = [FiniteFunction.from_payload(item) for item in inputs[args.slice]["functions"]]
    for fn in functions + members:  # every walk is priced before any runs
        _price_matrices(template, len(fn.arity_set), args.budget)
    # a function over other domains than the template's is no member
    member = LazyPolymorphismSlice(template).contains
    ok = True
    for path, fn in zip(args.function, functions):
        good = member(fn)
        report.verified(f"polymorphism:{path}", good)
        print(f"{path}: {'polymorphism' if good else 'NOT a polymorphism'}")
        ok = ok and good
    if args.dr_table:
        for i, fn in enumerate(members):
            if not member(fn):
                raise InputError(
                    f"{args.slice}: functions[{i}] is not a polymorphism of the template"
                )
        result = check_dr_homomorphism(table, slice_, budget=args.budget)
        report.verified("dr_homomorphism", bool(result))
        print(f"chain condition: {'holds' if result else 'violated'}")
        ok = ok and bool(result)
    return 0 if ok else 1


def _cmd_gap_params(args, inputs: dict, report: _Report) -> int:
    values = _ints(args.values, "--values")
    params = gap_parameters(args.domain_size, args.m, values, mode=args.mode)
    report.payload["k"] = list(params.k)
    _emit(args.out, params.to_payload(), report)
    print(f"k = {list(params.k)}  (mode={params.mode}, raw k0 = {params.k0_raw})")
    return 0


def _cmd_gap_extract(args, inputs: dict, report: _Report) -> int:
    seq = PasSequence.from_payload(inputs[args.pas])
    params = GapParameters.from_payload(inputs[args.params])
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


def _cmd_gap_oracle(args, inputs: dict, report: _Report) -> int:
    instance = Instance.from_payload(inputs[args.instance])
    side = _load_side(inputs[args.template], args.side)
    k = _ints(args.k, "--k")
    answer = csp_value_oracle(instance, side, k, args.d, budget=args.budget)
    report.payload["value_at_most_d"] = answer
    print(f"value <= {args.d}: {'yes' if answer else 'no'}")
    return 0 if answer else 1


def _cmd_gap_layered(args, inputs: dict, report: _Report) -> int:
    instance = LlcInstance.from_payload(inputs[args.llc])
    result = combinatorial_layered_value(instance, args.d, budget=args.budget)
    report.payload["value"] = result.value
    if result:
        _emit(args.out, result.witness.to_payload(), report)
    print(f"layered value: {result.value}" if result else f"layered value above {args.d}")
    return 0 if result else 1


def _cmd_reduce_llc(args, inputs: dict, report: _Report) -> int:
    instance = Instance.from_payload(inputs[args.instance])
    side = _load_side(inputs[args.template], args.side)
    params = inputs[args.params]
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


def _cmd_reduce_pcsp(args, inputs: dict, report: _Report) -> int:
    phi = Instance.from_payload(inputs[args.source])
    source = PcspTemplate.from_payload(inputs[args.source_template])
    target = PcspTemplate.from_payload(inputs[args.target_template])
    table = dr_table_from_payload(inputs[args.dr_table])
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


def _cmd_decode(args, inputs: dict, report: _Report) -> int:
    assignment = Assignment.from_payload(inputs[args.assignment]).mapping
    layout = CloudLayout.from_payload(inputs[args.layout], budget=args.budget)
    table = dr_table_from_payload(inputs[args.dr_table])
    phi = Instance.from_payload(inputs[args.source])
    source = PcspTemplate.from_payload(inputs[args.source_template])
    solution = recover_source_solution(assignment, layout, table, phi, source)
    report.verified("solves_relaxed_source", not evaluate(phi, source.relaxed, solution))
    _emit(args.out, solution.to_payload(), report)
    print(f"recovered a relaxed solution: {dict(solution.values)}")
    return 0 if report.all_passed else 1


def _cmd_verify_consistent(args, inputs: dict, report: _Report) -> int:
    result = check_consistent(PasSequence.from_payload(inputs[args.pas]))
    report.verified("consistent", bool(result))
    print("consistent" if result else f"inconsistent on chain {result.chain}")
    return 0 if result else 1


def _cmd_verify_msolution(args, inputs: dict, report: _Report) -> int:
    seq = PasSequence.from_payload(inputs[args.pas])
    payload, index = inputs[args.assignment], args.index
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


def _cmd_verify_solution(args, inputs: dict, report: _Report) -> int:
    instance = Instance.from_payload(inputs[args.instance])
    side = _load_side(inputs[args.template], args.side)
    f = Assignment.from_payload(inputs[args.assignment])
    violated = evaluate(instance, side, f)
    report.verified("evaluate_empty", not violated)
    print("verified" if not violated else f"violates constraints {violated}")
    return 0 if not violated else 1


def _add_common(
    parser, handler, *files, optional=(), repeated=(), out=True, budget=True
) -> None:
    """The handler, `--report`, `--out` and `--budget` where the handler reads
    them, and the options naming its input files, each named once here: `files`
    are required, `optional` ones may be left out, and a `repeated` one may be
    given any number of times.  `main` reads the files before the handler runs."""
    for option in files:
        parser.add_argument(option, required=True)
    for option in optional:
        parser.add_argument(option, default=None)
    for option in repeated:
        parser.add_argument(option, action="append", default=[])
    if budget:
        parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--report", default=None)
    if out:
        parser.add_argument("--out", default=None)
    names = [option[2:].replace("-", "_") for option in (*files, *optional, *repeated)]
    parser.set_defaults(func=handler, files=names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcspkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="brute-force solve an instance over a structure")
    p.add_argument("--side", choices=("strict", "relaxed"))
    p.add_argument("--all", action="store_true")
    _add_common(p, _cmd_solve, "--instance", "--template")

    poly = sub.add_parser("poly", help="polymorphism operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = poly.add_parser("enum")
    arity = p.add_mutually_exclusive_group(required=True)
    arity.add_argument("--arity", type=int)
    arity.add_argument("--labels")
    _add_common(p, _cmd_poly_enum, "--template")
    p = poly.add_parser("check")
    tables, functions = ("--dr-table", "--slice"), ("--function",)
    _add_common(p, _cmd_poly_check, "--template", optional=tables, repeated=functions, out=False)

    gap = sub.add_parser("gap", help="partial assignment system operations").add_subparsers(
        dest="subcommand", required=True
    )
    p = gap.add_parser("params")
    p.add_argument("--domain-size", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--mode", choices=("compact", "conservative"), default="compact")
    _add_common(p, _cmd_gap_params, budget=False)
    p = gap.add_parser("extract")
    p.add_argument("--m", type=int, required=True)
    _add_common(p, _cmd_gap_extract, "--pas", "--params", budget=False)
    p = gap.add_parser("oracle")
    p.add_argument("--side", choices=("strict", "relaxed"))
    p.add_argument("--k", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p, _cmd_gap_oracle, "--instance", "--template", out=False)
    p = gap.add_parser("layered")
    p.add_argument("--d", type=int, required=True)
    _add_common(p, _cmd_gap_layered, "--llc")

    reduce_ = sub.add_parser("reduce", help="instance reductions").add_subparsers(
        dest="subcommand", required=True
    )
    p = reduce_.add_parser("llc")
    p.add_argument("--side", choices=("strict", "relaxed"))
    _add_common(p, _cmd_reduce_llc, "--instance", "--template", "--params")
    p = reduce_.add_parser("pcsp")
    p.add_argument("--layout", default=None)  # written, not read
    _add_common(
        p, _cmd_reduce_pcsp, "--source", "--source-template", "--target-template", "--dr-table"
    )

    p = sub.add_parser("decode", help="decode a relaxed solution of a reduced instance")
    _add_common(
        p, _cmd_decode, "--assignment", "--layout", "--dr-table", "--source", "--source-template"
    )

    p = sub.add_parser("verify", help="replay stored post-conditions on artifacts")
    verify = p.add_subparsers(dest="subcommand", required=True)
    p = verify.add_parser("consistent")
    _add_common(p, _cmd_verify_consistent, "--pas", out=False, budget=False)
    p = verify.add_parser("msolution")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--index", type=int, default=0)
    _add_common(p, _cmd_verify_msolution, "--pas", "--assignment", out=False, budget=False)
    p = verify.add_parser("solution")
    p.add_argument("--side", choices=("strict", "relaxed"))
    files = ("--instance", "--template", "--assignment")
    _add_common(p, _cmd_verify_solution, *files, out=False, budget=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    if command == "poly check":  # what its parser cannot state
        if (args.dr_table is None) != (args.slice is None):
            parser.error("poly check takes --dr-table and --slice together")
        if args.dr_table is None and not args.function:
            parser.error("poly check needs --function or --dr-table")
    given = [getattr(args, name) for name in args.files]
    paths = [p for value in given for p in (value if isinstance(value, list) else [value])]
    report = _Report(command)
    try:
        # every digest is of the bytes parsed, and all are taken before any parse
        data = {}
        for path in dict.fromkeys(p for p in paths if p is not None):
            data[path] = Path(path).read_bytes()
            report.inputs[path] = hashlib.sha256(data[path]).hexdigest()
        inputs = {path: jsonio.loads(text, path) for path, text in data.items()}
        code = args.func(args, inputs, report)
    except (PcspkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.payload["error"] = str(exc)
        code = 1
    try:
        report.finish(args.report)
    except OSError as exc:
        print(f"error: --report {args.report}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
