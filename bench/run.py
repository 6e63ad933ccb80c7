"""Benchmark of pcspkit: four fixed workloads, one process each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run sets up its workload several times (import, templates, tables,
parameters, sources) and reports the median set-up time.  It then repeats
whole rounds of the workload's operations until --seconds have passed,
checks every output with bench/checks.py outside the timed calls, and prints
the metrics as the last line of standard output:

    {"correct": true, "attempted": 28, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
records a span around every public call and prints per-layer metrics; the
spans are written to .bench_out/ when the run ends.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import defaultdict
from functools import partial
from pathlib import Path

import checks
import graphs

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
REFERENCE_KEYS = {f"key{i:03d}": i for i in range(256)}
REFERENCE_ORDER = tuple(REFERENCE_KEYS) * 3
SAMPLE_INTERVAL_S = 0.01
REFERENCE_WINDOW_S = 0.1

WORKLOAD_NAMES = ("longcode_c16", "nested_k32", "gap_oracles", "poly_audits")

LAYER_TIMES = (
    "reduction.longcode_reduce",
    "reduction.build_auxiliary",
    "reduction.lift_strict_solution",
    "reduction.read_cloud_functions",
    "reduction.decode_relaxed_solution",
    "minion.is_polymorphism",
    "minion.decode_partial_map_constraint",
    "minion.enumerate_polymorphisms",
    "minion.check_minor_closure",
    "minion.check_dr_homomorphism",
    "pas.csp_value_oracle",
    "labelcover.combinatorial_layered_value",
    "labelcover.reduce_mcsp_to_llc",
    "labelcover.d_assignment_to_pas",
    "pas.extract_solution",
    "pas.check_consistent",
    "core.evaluate",
    "jsonio.write",
    "jsonio.read",
)
LAYER_COUNTS = (
    "reduction.positions",
    "reduction.constraints",
    "reduction.merge_reps",
    "reduction.clouds",
)


class BenchError(Exception):
    """The benchmark cannot run here (for example, the program is missing)."""


def _mix(x: int, y: int) -> int:
    return x ^ y


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds the program does most (integer
    arithmetic, dict lookups by string, function calls) that allocates no
    container objects, so the program's heap cannot slow it; its time tracks
    the host's speed."""
    x = 0
    for key in REFERENCE_ORDER:
        x = _mix(x * 31 + REFERENCE_KEYS[key], len(key)) & 0xFFFFFF
    return x


class Recorder:
    """Times every public call of an operation and, in a traced run, keeps a
    span per call in memory.

    While the rounds run, a timer signal runs the reference loop every
    SAMPLE_INTERVAL_S, between calls and inside them, and keeps its times: a
    trace of the host's speed.  A call's time in reference units is its time
    divided by the mean of the loop times within REFERENCE_WINDOW_S around
    it.  Time spent in the loop is not counted as the call's.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.op = None
        self.op_span = None
        self.calls = []  # (op, start, end, seconds)
        self.spans = []  # dicts: name, start, end, paused, parent, op
        self.counts = defaultdict(dict)  # name -> {op: value}
        self.sample_starts = array("d")
        self.sample_seconds = array("d")
        self.sampled_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.sample_starts.append(start)
        self.sample_seconds.append(took)
        self.sampled_s += took

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def begin(self, op) -> None:
        self.op = op
        if self.trace:
            self.op_span = self._span("op", time.perf_counter(), None, self.sampled_s, None)

    def end(self) -> None:
        if self.trace:
            span = self.spans[self.op_span]
            span["end"] = time.perf_counter()
            span["paused"] = self.sampled_s - span["paused"]
        self.op = self.op_span = None

    def call(self, name: str, fn, *args, **kwargs):
        sampled = self.sampled_s
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        paused = self.sampled_s - sampled
        self.calls.append((self.op, start, end, end - start - paused))
        if self.trace:
            self._span(name, start, end, paused, self.op_span)
        return result

    def timed_calls(self) -> list:
        """(op, seconds, reference units) for every call made while sampling."""
        out = []
        for op, start, end, seconds in self.calls:
            lo = bisect.bisect_left(self.sample_starts, start - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(self.sample_starts, end + REFERENCE_WINDOW_S)
            window = self.sample_seconds[max(lo - 1, 0) : hi + 1]
            out.append((op, seconds, seconds / statistics.fmean(window)))
        return out

    def probe(self, name: str, fn, *args, **kwargs):
        """An extra call on the operation's data, outside the operation's
        spans and its timing; made only in a traced run."""
        if not self.trace:
            return None
        sampled = self.sampled_s
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self._span(name, start, time.perf_counter(), self.sampled_s - sampled, None)
        return result

    def count(self, name: str, value: int) -> None:
        if self.trace:
            self.counts[name][self.op] = value

    def _span(self, name, start, end, paused, parent) -> int:
        self.spans.append(
            {"name": name, "start": start, "end": end, "paused": paused, "parent": parent,
             "op": self.op}
        )
        return len(self.spans) - 1


def dumps(pk, payload) -> str:
    return pk.jsonio.canonical_dumps(payload)


# -- workloads -----------------------------------------------------------------
#
# A workload's constructor is its set-up; operations() lists the operations of
# one round as (label, function); each function takes the Recorder and returns
# an outcome; check(outcome) returns a list of problems (empty when right).
# Artifacts are the texts jsonio.canonical_dumps gives, as the CLI writes them.


class LongcodeC16:
    """The empty instance on 1, 2 or 3 variables (chosen by the seed), reduced
    with (K2,K2) and the identity table: k=(4,4), one 4-subset with 16 partial
    solutions, and a 65,536-position cloud."""

    def __init__(self, pk, seed: int, trace: bool):
        rng = random.Random(seed)
        self.pk, self.trace = pk, trace
        k2 = pk.complete_graph(2)
        self.k2, self.t22 = k2, pk.PcspTemplate(k2, k2)
        self.table = pk.IdentityDrTable(self.t22, r=1)
        self.m = 2
        self.values = (self.table.d,) * (self.table.r + 1)
        self.params = pk.gap_parameters(2, self.m, self.values)
        variables = graphs.fresh_names(rng, 1 + seed % 3)
        self.phi = pk.Instance(variables, [])
        pads = self.params.k[0] - len(variables)
        self.pad_names = tuple(f"{pk.reduction.PAD_PREFIX}{i}" for i in range(pads))
        values = [rng.choice("01") for _ in range(self.params.k[0])]
        self.h = dict(zip(variables + list(self.pad_names), values))

    def operations(self):
        return [("source", self.staged if self.trace else self.whole)]

    def whole(self, rec):
        pk = self.pk
        result = rec.call(
            "reduction.pipeline_reduce",
            pk.pipeline_reduce,
            self.phi,
            self.t22,
            self.t22,
            self.table,
        )
        return self._finish(rec, result.instance, result.layout, self._recover_whole)

    def _recover_whole(self, rec, assignment, layout):
        pk = self.pk
        return rec.call(
            "reduction.recover_source_solution",
            pk.recover_source_solution,
            assignment,
            layout,
            self.table,
            self.phi,
            self.t22,
        )

    def staged(self, rec):
        """The public stages pipeline_reduce and recover_source_solution are
        built from, called one by one."""
        pk = self.pk
        params = rec.call("pas.gap_parameters", pk.gap_parameters, 2, self.m, self.values)
        padded = pk.Instance(self.phi.variables + self.pad_names, self.phi.constraints)
        aux = rec.call(
            "reduction.build_auxiliary", pk.build_auxiliary, padded, self.k2, params.k
        )
        instance, layout = rec.call(
            "reduction.longcode_reduce", pk.longcode_reduce, aux, self.t22, padding=self.pad_names
        )
        outcome = self._finish(rec, instance, layout, self._recover_staged)
        outcome["staged"] = True
        return outcome

    def _recover_staged(self, rec, assignment, layout):
        pk = self.pk
        functions = rec.call(
            "reduction.read_cloud_functions",
            pk.read_cloud_functions,
            assignment,
            layout,
            self.t22.relaxed.domain,
        )
        for fn in functions.values():
            rec.probe("minion.is_polymorphism", pk.is_polymorphism, fn, self.t22)
        seq = rec.call(
            "reduction.decode_relaxed_solution",
            pk.decode_relaxed_solution,
            functions,
            layout,
            self.table,
            self.phi,
            self.t22,
        )
        extraction = rec.call("pas.extract_solution", pk.extract_solution, seq, self.params, self.m)
        solution = pk.Assignment(
            extraction.assignment.restrict(self.phi.variables).mapping, side="relaxed"
        )
        if rec.call("core.evaluate", pk.evaluate, self.phi, self.t22.relaxed, solution):
            raise pk.InvariantError("recovered assignment fails the relaxed source instance")
        return solution

    def _finish(self, rec, instance, layout, recover):
        pk = self.pk
        record_sizes(rec, instance, layout, len(self.t22.strict.domain))
        lift = rec.call("reduction.lift_strict_solution", pk.lift_strict_solution, self.h, layout)
        violated = rec.call("core.evaluate", pk.evaluate, instance, self.k2, lift)
        texts = rec.call("jsonio.write", write_all, pk, instance, layout, lift)
        layout_back, assignment = rec.call("jsonio.read", read_back, pk, texts[1], texts[2])
        recovered = recover(rec, assignment, layout_back)
        texts.append(rec.call("jsonio.write", dumps, pk, recovered.to_payload()))
        return {"texts": texts, "violated": violated}

    def check(self, outcome):
        instance_text, _, lift_text, recovered_text = outcome["texts"]
        problems = []
        if outcome["violated"]:
            problems.append("core.evaluate reports violated constraints in the lift")
        lifted = json.loads(lift_text)["values"]
        if not checks.satisfies_every_constraint(
            json.loads(instance_text), lifted, {"neq": checks.K2_NEQ}
        ):
            problems.append("the lifted solution violates an emitted constraint")
        recovered = json.loads(recovered_text)["values"]
        if not checks.properly_colours(self.phi.variables, [], recovered):
            problems.append("the recovered assignment is not a 2-colouring of the source")
        if recovered != {x: self.h[x] for x in self.phi.variables}:
            problems.append("the recovered assignment is not the lifted source solution")
        if outcome.get("staged"):
            problems += self._same_bytes_as_whole(outcome["texts"])
        return problems

    def _same_bytes_as_whole(self, texts):
        """The staged calls of a traced run must emit the very bytes that
        pipeline_reduce and recover_source_solution emit."""
        whole = self.whole(Recorder(trace=False))["texts"]
        names = ("instance", "layout", "lifted assignment", "recovered assignment")
        return [
            f"traced {name} differs from the untraced one"
            for name, a, b in zip(names, texts, whole)
            if a != b
        ]


class NestedK32:
    """Fixed 2-colourable shapes on 5-6 vertices at k=(3,2), seeded relabelling
    and planted colouring; the only workload whose decoding runs through
    distinct nested layers."""

    def __init__(self, pk, seed: int, trace: bool):
        rng = random.Random(seed)
        self.pk = pk
        k2 = pk.complete_graph(2)
        self.k2, self.t22 = k2, pk.PcspTemplate(k2, k2)
        self.table = pk.IdentityDrTable(self.t22, r=1)
        self.params = pk.gap_parameters(2, 1, (1, 1))
        self.sources = []
        for n, edges in graphs.NESTED_SHAPES:
            names = graphs.fresh_names(rng, n)
            rng.shuffle(names)
            named = [(names[a], names[b]) for a, b in edges]
            colouring = checks.two_colouring(names, named)
            # flip whole components so the colouring stays proper
            for component in components(names, named):
                if rng.random() < 0.5:
                    for v in component:
                        colouring[v] = "1" if colouring[v] == "0" else "0"
            phi = pk.Instance(names, [((a, b), "neq") for a, b in named])
            self.sources.append((phi, named, colouring))

    def operations(self):
        return [(f"shape{i}", partial(self.run, *source)) for i, source in enumerate(self.sources)]

    def run(self, phi, edges, colouring, rec):
        pk = self.pk
        aux = rec.call("reduction.build_auxiliary", pk.build_auxiliary, phi, self.k2, self.params.k)
        instance, layout = rec.call("reduction.longcode_reduce", pk.longcode_reduce, aux, self.t22)
        record_sizes(rec, instance, layout, len(self.t22.strict.domain))
        lift = rec.call(
            "reduction.lift_strict_solution", pk.lift_strict_solution, colouring, layout
        )
        violated = rec.call("core.evaluate", pk.evaluate, instance, self.k2, lift)
        texts = rec.call("jsonio.write", write_all, pk, instance, layout, lift)
        layout_back, assignment = rec.call("jsonio.read", read_back, pk, texts[1], texts[2])
        functions = rec.call(
            "reduction.read_cloud_functions",
            pk.read_cloud_functions,
            assignment,
            layout_back,
            self.t22.relaxed.domain,
        )
        seq = rec.call(
            "reduction.decode_relaxed_solution",
            pk.decode_relaxed_solution,
            functions,
            layout_back,
            self.table,
            phi,
            self.t22,
        )
        extraction = rec.call("pas.extract_solution", pk.extract_solution, seq, self.params, 1)
        texts.append(
            rec.call(
                "jsonio.write",
                dumps,
                pk,
                {"index": extraction.index, "assignment": extraction.assignment.to_payload()},
            )
        )
        if rec.trace:
            members = pk.LazyPolymorphismSlice(self.t22)
            for con in layout_back.aux.constraints:
                u, w = layout_back.aux.variable(con.u), layout_back.aux.variable(con.w)
                rec.probe(
                    "minion.decode_partial_map_constraint",
                    pk.decode_partial_map_constraint,
                    functions[con.u],
                    functions[con.w],
                    u.labels(),
                    w.labels(),
                    con.cmap,
                    members,
                )
            rec.probe("pas.check_consistent", pk.check_consistent, seq)
        return {
            "texts": texts,
            "violated": violated,
            "sequence": seq.to_payload(),
            "edges": edges,
            "colouring": colouring,
            "variables": phi.variables,
        }

    def check(self, outcome):
        instance_text, _, lift_text, extraction_text = outcome["texts"]
        colouring, variables = outcome["colouring"], outcome["variables"]
        problems = []
        if outcome["violated"]:
            problems.append("core.evaluate reports violated constraints in the lift")
        if not checks.satisfies_every_constraint(
            json.loads(instance_text), json.loads(lift_text)["values"], {"neq": checks.K2_NEQ}
        ):
            problems.append("the lifted solution violates an emitted constraint")
        extracted = json.loads(extraction_text)["assignment"]["values"]
        if not checks.properly_colours(variables, outcome["edges"], extracted):
            problems.append("the extracted assignment is not a proper 2-colouring")
        if {x: extracted.get(x) for x in variables} != colouring:
            problems.append("the extracted assignment is not the planted solution")
        if not checks.sequence_is_restrictions(outcome["sequence"], self.params.k, colouring):
            problems.append("the decoded sequence is not the planted solution's restrictions")
        return problems


class GapOracles:
    """The graphs on 5 vertices up to isomorphism, against K2 at k=(3,2), d=1,
    decided by the value oracle and by the layered value."""

    def __init__(self, pk, seed: int, trace: bool):
        rng = random.Random(seed)
        self.pk = pk
        self.k2 = pk.complete_graph(2)
        self.params = pk.gap_parameters(2, 1, (1, 1))
        classes = [c for c in graphs.FIVE_VERTEX_CLASSES if c != graphs.SLOW_CLASS]
        rng.shuffle(classes)
        self.sources = []
        for edges in classes:
            names = graphs.fresh_names(rng, 5)
            named = [(names[a], names[b]) for a, b in edges]
            phi = pk.Instance(names, [((a, b), "neq") for a, b in named])
            self.sources.append((phi, named))

    def operations(self):
        return [(f"graph{i}", partial(self.run, *source)) for i, source in enumerate(self.sources)]

    def run(self, phi, edges, rec):
        pk, k = self.pk, self.params.k
        oracle = rec.call("pas.csp_value_oracle", pk.csp_value_oracle, phi, self.k2, k, 1)
        llc = rec.call("labelcover.reduce_mcsp_to_llc", pk.reduce_mcsp_to_llc, phi, self.k2, k)
        layered = rec.call(
            "labelcover.combinatorial_layered_value", pk.combinatorial_layered_value, llc, 1
        )
        outcome = {
            "oracle": oracle,
            "layered": layered.value == 1,
            "edges": edges,
            "variables": phi.variables,
            "texts": [dumps(pk, llc.to_payload())],
        }
        if layered.value == 1:
            seq = rec.call(
                "labelcover.d_assignment_to_pas",
                pk.d_assignment_to_pas,
                layered.witness,
                phi,
                self.k2,
                k,
            )
            extraction = rec.call("pas.extract_solution", pk.extract_solution, seq, self.params, 1)
            outcome["extracted"] = extraction.assignment.mapping
            payload = {"index": extraction.index, "assignment": extraction.assignment.to_payload()}
            outcome["texts"].append(dumps(pk, payload))
        return outcome

    def check(self, outcome):
        variables, edges = outcome["variables"], outcome["edges"]
        expected = checks.two_colouring(variables, edges) is not None
        problems = []
        if outcome["oracle"] != expected:
            problems.append("csp_value_oracle disagrees with breadth-first 2-colourability")
        if outcome["layered"] != expected:
            problems.append("the layered value disagrees with breadth-first 2-colourability")
        if "extracted" in outcome and not checks.properly_colours(
            variables, edges, outcome["extracted"]
        ):
            problems.append("the extracted assignment is not a proper 2-colouring")
        return problems


class PolyAudits:
    """Polymorphism enumeration, the minor-closure audit and the chain audits
    of the identity table; the seed names the arity coordinates."""

    ENUMERATIONS = ((2, 2, 4), (2, 3, 3), (3, 3, 2))  # strict K_a, relaxed K_b, arity

    def __init__(self, pk, seed: int, trace: bool):
        rng = random.Random(seed)
        self.pk = pk
        self.graph = {n: pk.complete_graph(n) for n in (2, 3)}
        self.templates = {
            (a, b): pk.PcspTemplate(self.graph[a], self.graph[b]) for a, b, _ in self.ENUMERATIONS
        }
        self.tables = {r: pk.IdentityDrTable(self.templates[2, 2], r=r) for r in (1, 2)}
        self.labels = graphs.fresh_names(rng, 4)
        self.slice_arities = [tuple(self.labels[:n]) for n in (1, 2, 3)]
        self.slice = None

    def operations(self):
        ops = [(f"enumerate_k{a}k{b}_n{n}", partial(self.enumerate, a, b, n))
               for a, b, n in self.ENUMERATIONS]
        ops.append(("minor_closure", self.closure))
        ops += [(f"chain_r{r}", partial(self.chain, r)) for r in (1, 2)]
        return ops

    def enumerate(self, a, b, n, rec):
        found = rec.call(
            "minion.enumerate_polymorphisms",
            self.pk.enumerate_polymorphisms,
            self.templates[a, b],
            self.labels[:n],
        )
        payload = {"functions": [fn.to_payload() for fn in found]}
        return {"kind": "enumeration", "colours": (a, b, n), "payload": payload,
                "texts": [dumps(self.pk, payload)]}

    def closure(self, rec):
        pk = self.pk
        self.slice = rec.call(
            "minion.polymorphism_slice",
            pk.polymorphism_slice,
            self.templates[2, 2],
            self.slice_arities,
        )
        ok = rec.call("minion.check_minor_closure", pk.check_minor_closure, self.slice)
        return {"kind": "audit", "ok": bool(ok), "texts": [dumps(pk, self.slice.to_payload())]}

    def chain(self, r, rec):
        ok = rec.call(
            "minion.check_dr_homomorphism",
            self.pk.check_dr_homomorphism,
            self.tables[r],
            self.slice,
        )
        return {"kind": "audit", "ok": bool(ok), "texts": []}

    def check(self, outcome):
        if outcome["kind"] == "audit":
            return [] if outcome["ok"] else ["an audit that must hold returned false"]
        a, b, n = outcome["colours"]
        functions = outcome["payload"]["functions"]
        problems = []
        if len(functions) != checks.graph_polymorphism_count(a, b, n):
            problems.append(f"K{a}->K{b} arity {n}: count {len(functions)} is not the closed form")
        strict, relaxed = {"neq": checks.neq(a)}, {"neq": checks.neq(b)}
        if not all(checks.table_is_polymorphism(f, strict, relaxed) for f in functions):
            problems.append(f"K{a}->K{b} arity {n}: an enumerated function is no polymorphism")
        return problems


WORKLOADS = {
    "longcode_c16": LongcodeC16,
    "nested_k32": NestedK32,
    "gap_oracles": GapOracles,
    "poly_audits": PolyAudits,
}


def components(vertices, edges):
    seen, out = set(), []
    for v in vertices:
        if v in seen:
            continue
        component, stack = [], [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            component.append(x)
            for a, b in edges:
                for y in ((b,) if a == x else (a,) if b == x else ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        out.append(component)
    return out


def write_all(pk, instance, layout, lift) -> list:
    return [dumps(pk, x.to_payload()) for x in (instance, layout, lift)]


def read_back(pk, layout_text: str, assignment_text: str):
    layout = pk.CloudLayout.from_payload(json.loads(layout_text))
    return layout, json.loads(assignment_text)["values"]


def record_sizes(rec, instance, layout, alphabet: int) -> None:
    rec.count("reduction.positions", sum(c.size(alphabet) for c in layout.clouds))
    rec.count("reduction.constraints", len(instance.constraints))
    rec.count("reduction.merge_reps", len(layout.reps))
    rec.count("reduction.clouds", len(layout.clouds))


# -- set-up, rounds and metrics --------------------------------------------------


def import_program():
    """Import pcspkit afresh from the checkout's src/, dropping any copy a
    previous set-up left in sys.modules."""
    if not (SOURCE_DIR / "pcspkit" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no {SOURCE_DIR / 'pcspkit'}")
    if str(SOURCE_DIR) not in sys.path:
        sys.path.insert(0, str(SOURCE_DIR))
    for name in [n for n in sys.modules if n == "pcspkit" or n.startswith("pcspkit.")]:
        del sys.modules[name]
    pk = importlib.import_module("pcspkit")
    importlib.import_module("pcspkit.jsonio")
    if Path(pk.__file__).resolve().parent != SOURCE_DIR / "pcspkit":
        raise BenchError(f"imported pcspkit from {pk.__file__}, not from {SOURCE_DIR}")
    return pk


def set_up(name: str, seed: int, trace: bool):
    """Time from just before the import to a workload ready for its first
    operation; repeated, and the median reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pk = import_program()
        workload = WORKLOADS[name](pk, seed, trace)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def run_rounds(workload, seconds: float, rec: Recorder):
    """Whole rounds until the next one would end well past `seconds`.  The
    checks of a round run after all its operations, so the peak memory read
    after the first round's operations is the program's, not the checks'."""
    ops = workload.operations()
    rounds, errors, problems = [], [], []
    attempted = 0
    start = time.perf_counter()
    with rec.sampling():
        while True:
            round_start = time.perf_counter()
            first_call = len(rec.calls)
            outcomes = []
            for label, op in ops:
                op_id = f"r{len(rounds)}.{label}"
                attempted += 1
                rec.begin(op_id)
                try:
                    outcomes.append((op_id, op(rec)))
                except Exception:
                    errors.append(f"{op_id} raised:\n{traceback.format_exc()}")
                finally:
                    rec.end()
            if not rounds:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for op_id, outcome in outcomes:
                problems += [f"{op_id}: {p}" for p in workload.check(outcome)]
            rounds.append(
                {
                    "calls": (first_call, len(rec.calls)),
                    "bytes": sum(len(t.encode("utf-8")) for _, o in outcomes for t in o["texts"]),
                }
            )
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 >= seconds:
                break
    calls = rec.timed_calls()
    for r in rounds:
        first, last = r.pop("calls")
        r["seconds"] = sum(c[1] for c in calls[first:last])
        r["ref"] = sum(c[2] for c in calls[first:last])
    return rounds, calls, peak_rss_mb, attempted, errors, problems


def op_median(calls, field: int) -> float:
    """Median over the workload's operations of each operation's median over
    the rounds; field 1 of a call is its seconds, field 2 its reference units."""
    per_op = defaultdict(float)
    for call in calls:
        per_op[call[0]] += call[field]
    by_label = defaultdict(list)
    for op, total in per_op.items():
        by_label[op.split(".", 1)[1]].append(total)
    return statistics.median(statistics.median(v) for v in by_label.values())


def end_to_end_metrics(rounds, calls, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(r["ref"] for r in rounds), "ref"),
        "op_p50_ref": (op_median(calls, 2), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "artifact_bytes": (statistics.median_low(r["bytes"] for r in rounds), "bytes"),
    }


def raw_times(rounds, calls) -> dict:
    """Wall-clock figures, printed for reading but not reported: on a host
    whose speed changes over minutes they do not repeat between runs."""
    return {
        "wall_s": (statistics.median(r["seconds"] for r in rounds), "s"),
        "op_p50_ms": (op_median(calls, 1) * 1000, "ms"),
    }


def self_times(spans) -> list:
    """A span's duration minus the part its child spans cover, leaving out the
    time the reference loop paused it.  Children never overlap: an operation
    makes its calls one after another."""
    own = [span["end"] - span["start"] - span["paused"] for span in spans]
    out = list(own)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            out[span["parent"]] -= own[index]
    return out


def layer_metrics(rounds, rec: Recorder) -> dict:
    """Median over the operations that make a call of the per-operation sum of
    its spans' self times (ms), or of a size counted per operation; 0 where the
    workload never makes that call."""
    per_op = defaultdict(lambda: defaultdict(float))
    for span, own in zip(rec.spans, self_times(rec.spans)):
        per_op[span["name"]][span["op"]] += own * 1000
    metrics = {}
    for name in LAYER_TIMES:
        values = per_op[name].values()
        metrics[f"{name}_ms"] = (statistics.median(values) if values else 0.0, "ms")
    for name in LAYER_COUNTS:
        values = rec.counts[name].values()
        metrics[name] = (statistics.median_low(values) if values else 0, "count")
    metrics["trace.wall_s"] = (statistics.median(r["seconds"] for r in rounds), "s")
    metrics["trace.wall_ref"] = (statistics.median(r["ref"] for r in rounds), "ref")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload, setup_s = set_up(name, seed, trace)
    rec = Recorder(trace)
    rounds, calls, peak_rss_mb, attempted, errors, problems = run_rounds(workload, seconds, rec)
    failed = len(errors)
    if trace:
        metrics = layer_metrics(rounds, rec)
    else:
        metrics = end_to_end_metrics(rounds, calls, setup_s, peak_rss_mb)
    for problem in errors + problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        (OUT_DIR / f"trace-{stem}.json").write_text(
            json.dumps({"workload": name, "seed": seed, "spans": rec.spans}) + "\n"
        )
    print(f"{name}: {len(rounds)} round(s), {attempted} operations attempted, {failed} failed")
    printed = metrics if trace else {**metrics, **raw_times(rounds, calls)}
    for key, (value, unit) in printed.items():
        print(f"  {key:45s} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
