"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check must pass on a real output of the program and fail on the same
output with one thing corrupted: a flipped lifted value, a wrong oracle
answer, a wrong count, an improper colouring, and the rest listed below.
Also re-derives the list of graphs on 5 vertices up to isomorphism.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys

import graphs
import run


def five_vertex_classes():
    """Every graph on 5 vertices, reduced to its lexicographically least
    labelling, in the order of graphs.FIVE_VERTEX_CLASSES."""
    pairs = list(itertools.combinations(range(5), 2))
    perms = list(itertools.permutations(range(5)))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        seen.add(
            min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in perms)
        )
    return tuple(sorted(seen, key=lambda c: (len(c), c)))


def flip(value: str) -> str:
    return "1" if value == "0" else "0"


def main() -> int:
    pk = run.import_program()
    results = []

    def expect(case: str, problems: list, wanted: bool) -> None:
        ok = bool(problems) == wanted
        results.append(ok)
        verdict = "caught" if problems else "passes"
        print(f"{'ok  ' if ok else 'FAIL'} {case}: {verdict}")

    results.append(five_vertex_classes() == graphs.FIVE_VERTEX_CLASSES)
    print(f"{'ok  ' if results[-1] else 'FAIL'} the 34 graphs on 5 vertices up to isomorphism")

    rec = run.Recorder(trace=False)

    nested = run.NestedK32(pk, seed=0, trace=False)
    _, op = nested.operations()[0]
    outcome = op(rec)
    expect("nested_k32 real output", nested.check(outcome), False)

    bad = copy.deepcopy(outcome)
    instance = json.loads(bad["texts"][0])
    lift = json.loads(bad["texts"][2])
    target = instance["constraints"][0]["scope"][0]
    lift["values"][target] = flip(lift["values"][target])
    bad["texts"][2] = json.dumps(lift)
    expect("one flipped lifted value", nested.check(bad), True)

    bad = copy.deepcopy(outcome)
    extraction = json.loads(bad["texts"][3])
    a, b = bad["edges"][0]
    values = extraction["assignment"]["values"]
    values[a] = values[b]
    bad["texts"][3] = json.dumps(extraction)
    expect("improper extracted colouring", nested.check(bad), True)

    bad = copy.deepcopy(outcome)
    entry = bad["sequence"]["systems"][1]["entries"][0]
    x = entry["set"][0]
    entry["assignments"][0][x] = flip(entry["assignments"][0][x])
    expect("decoded sequence off the planted solution", nested.check(bad), True)

    oracles = run.GapOracles(pk, seed=0, trace=False)
    outcomes = [op(rec) for _, op in oracles.operations()]
    yes = next(o for o in outcomes if o["oracle"] and o["edges"])
    no = next(o for o in outcomes if not o["oracle"])
    expect("gap_oracles real yes-instance", oracles.check(yes), False)
    expect("gap_oracles real no-instance", oracles.check(no), False)
    for outcome, key in ((yes, "oracle"), (no, "oracle"), (yes, "layered"), (no, "layered")):
        bad = dict(outcome, **{key: not outcome[key]})
        expect(f"wrong {key} answer", oracles.check(bad), True)
    a, b = yes["edges"][0]
    bad = dict(yes, extracted=dict(yes["extracted"], **{a: yes["extracted"][b]}))
    expect("improper colouring from extraction", oracles.check(bad), True)

    audits = run.PolyAudits(pk, seed=0, trace=False)
    enumeration = audits.enumerate(3, 3, 2, rec)
    expect("poly_audits real enumeration", audits.check(enumeration), False)
    bad = copy.deepcopy(enumeration)
    bad["payload"]["functions"].pop()
    expect("wrong polymorphism count", audits.check(bad), True)
    bad = copy.deepcopy(enumeration)
    table = bad["payload"]["functions"][0]["table"]
    table[0] = table[4]  # f(0,0) := f(1,1), a monochromatic edge of K3 x K3
    expect("a non-polymorphism among the enumerated", audits.check(bad), True)
    expect("an audit returning false", audits.check({"kind": "audit", "ok": False}), True)

    longcode = run.LongcodeC16(pk, seed=1, trace=False)
    names = list(longcode.phi.variables)
    instance = {"variables": names, "constraints": []}
    lifted = {"values": dict(longcode.h)}
    recovered = {"values": {x: longcode.h[x] for x in names}, "side": "relaxed"}
    texts = [json.dumps(instance), "", json.dumps(lifted), json.dumps(recovered)]
    expect("longcode_c16 recovery check", longcode.check({"texts": texts, "violated": []}), False)
    recovered["values"][names[0]] = flip(recovered["values"][names[0]])
    texts[3] = json.dumps(recovered)
    bad = {"texts": texts, "violated": []}
    expect("recovered assignment off the lift", longcode.check(bad), True)

    print(f"{sum(results)}/{len(results)} self-test cases hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
