"""Input populations of the four benchmark workloads and the verdict gate.

Every workload draws its operations from a fixed population in rounds.
A round is the unit of equal work: any number of whole rounds has the
same mix of operations, so a run that fits fewer rounds on a slow machine
still reports comparable medians. The seed picks and orders the
operations and orders the entries inside each parameter vector, which
changes the command lines but not the work or the verdict.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator

SEARCH_BOUND = 28
SURVEY_BOUND = 16

# Products of two copies of the height 1 exception ((x), (2x, 2x)) with
# x <= y <= 6; y = 2x would put 2x on both sides and is left out. Every
# pair has K = 2 and L = 4, so each one enumerates the same partitions.
SEARCH_PAIRS = tuple(
    ((x, y), (2 * x, 2 * x, 2 * y, 2 * y))
    for x in range(1, 7)
    for y in range(x, 7)
    if y != 2 * x
)

# phi-images of Bober families whose witness lambda grows from 0.22 M to
# 5.1 M cells. The last rung is the M = 1,710 case, ((19), (10, 9)) under
# phi, where witness re-verification dominates.
WITNESS_LADDER = (
    ((35,), (60, 84)),
    ((56,), (105, 120)),
    ((35, 168), (70, 84, 120)),
    ((45, 252), (90, 126, 140)),
    ((90,), (171, 190)),
)

# (verb arguments, params or None): rectangles, a two-block shape, and the
# witness lambdas of the ladder's first two rungs taken apart again. An odd
# count keeps the median of whole rounds inside one operation's samples.
TOWER_OPS = (
    (("tower", "--partition", "100^80", "--p", "2", "--kind", "core"), None),
    (("tower", "--partition", "100^80", "--p", "2", "--kind", "quotient"), None),
    (("tower", "--partition", "66^55", "--p", "2", "--kind", "core"), None),
    (("tower", "--partition", "66^55", "--p", "11", "--kind", "core"), None),
    (("tower", "--partition", "436^29,29^406", "--p", "29", "--kind", "core"), None),
    (("tower", "--partition", "1586^61,61^2074", "--p", "61", "--kind", "quotient"), None),
    (("tower", "--partition", "5350^107,107^5885", "--p", "107", "--kind", "quotient"), None),
    (("extract-mu", "--partition", "1586^61,61^2074", "--p", "61"), WITNESS_LADDER[0]),
    (("extract-mu", "--partition", "5350^107,107^5885", "--p", "107"), WITNESS_LADDER[1]),
)


def survey_pairs() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All balanced disjoint pairs with entries <= 12 and 1 to 4 per side."""
    sides = [
        c for k in range(1, 5) for c in combinations_with_replacement(range(1, 13), k)
    ]
    weight = {c: sum(Fraction(1, x) for x in c) for c in sides}
    return [
        (g, d)
        for g in sides
        for d in sides
        if weight[g] == weight[d] and not set(g) & set(d)
    ]


def pair_id(gammas, deltas) -> str:
    return f"{','.join(map(str, sorted(gammas)))}/{','.join(map(str, sorted(deltas)))}"


def is_exception_union(gammas, deltas) -> bool:
    """True for disjoint unions of ((x), (2x, 2x)): these are integral, so
    a later Integral-Certified in place of Unknown-UpToBound is right."""
    return Counter(deltas) == Counter(2 * g for g in gammas for _ in range(2))


def _shuffled(rng: random.Random | None, entries) -> tuple:
    entries = list(entries)
    if rng is not None:
        rng.shuffle(entries)
    return tuple(entries)


def _params_args(rng, gammas, deltas) -> tuple[str, ...]:
    return (
        "--gamma", ",".join(map(str, _shuffled(rng, gammas))),
        "--delta", ",".join(map(str, _shuffled(rng, deltas))),
    )


class Op:
    """One operation: a CLI command line, or a batch of library calls."""

    def __init__(self, item: str, argv=(), gammas=(), deltas=(), pairs=None):
        self.item = item
        self.argv = tuple(argv)
        self.gammas = tuple(gammas)
        self.deltas = tuple(deltas)
        self.pairs = pairs


def population(workload: str, rng: random.Random | None = None) -> list[Op]:
    """Every operation a CLI workload can draw; the seed's spelling and
    order when an rng is given, the canonical ones otherwise."""
    if workload == "search":
        return [
            Op(pair_id(g, d),
               ("check", *_params_args(rng, g, d), "--bound", str(SEARCH_BOUND), "--json"),
               g, d)
            for g, d in SEARCH_PAIRS
        ]
    if workload == "witness":
        # climbed in order, so every round ends on the top rung
        return [
            Op(pair_id(g, d), ("height1", *_params_args(rng, g, d), "--json"), g, d)
            for g, d in WITNESS_LADDER
        ]
    if workload == "towers":
        ops = []
        for verb, params in _shuffled(rng, TOWER_OPS):
            extra = _params_args(rng, *params) if params is not None else ()
            ops.append(Op(" ".join(verb), (*verb, *extra, "--json")))
        return ops
    raise ValueError(f"{workload} is not a CLI workload")


def cli_rounds(workload: str, rng: random.Random) -> Iterator[list[Op]]:
    """Endless rounds of a CLI workload. The search pairs all do the same
    work, so a round there is a single check; the pairs come in a seeded
    cycle, so every run of 18 checks or more sees each of them."""
    while True:
        ops = population(workload, rng)
        if workload == "search":
            rng.shuffle(ops)
            yield from ([op] for op in ops)
        else:
            yield ops


def survey_round(rng: random.Random, pairs) -> Op:
    """One survey round: every pair once, in a fresh order, one process."""
    order = [(_shuffled(rng, g), _shuffled(rng, d)) for g, d in pairs]
    rng.shuffle(order)
    return Op("survey", pairs=order)


def digest(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _witness_fields(w) -> dict | None:
    if w is None:
        return None
    return {"mu": w["mu"], "p": w["p"], "lambda": w["lambda"]}


def verdict_fields(argv, exit_code: int, payload: dict) -> dict:
    """The fields of a CLI result that a faster program must reproduce.

    Only named keys are read, so a later release may add keys (a route,
    work counters) without breaking the gate.
    """
    verb = argv[0]
    if verb == "check":
        fields = {
            "status": payload["status"],
            "witness": _witness_fields(payload["witness"]),
            "valuation_at_p": payload["valuation_at_p"],
        }
    elif verb == "height1":
        fields = {"status": payload["verdict"], "witness": _witness_fields(payload["witness"])}
    elif verb == "tower":
        fields = {"labels": payload["labels"]}
    elif verb == "extract-mu":
        fields = {"mu": payload["mu"], "signature": payload["signature"]}
    else:
        raise ValueError(f"no verdict fields for verb {verb!r}")
    fields["exit_code"] = exit_code
    return fields


def gate(expected: dict, item: str, fields: dict, gammas=(), deltas=()) -> bool:
    """True when the verdict matches the digest recorded for this input.

    An exception union is integral, so Integral-Certified is accepted for
    it in place of the recorded Unknown-UpToBound; Fails never is.
    """
    if expected.get(item) == digest(fields):
        return True
    certified = {"status": "Integral-Certified", "witness": None, "valuation_at_p": None}
    if "exit_code" in fields:
        certified["exit_code"] = 0
    return bool(gammas) and is_exception_union(gammas, deltas) and fields == certified
