"""Command line interface.

One verb per operation, deterministic output, machine readable with
``--json``. Exit codes follow the verdict convention: 0 integral or
success, 1 a failing witness was found, 2 inconclusive, 64 bad input
or a fault of the program, 141 a reader that closed stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable
from math import gcd

from . import __version__
from .height1 import (
    decide_height1,
    period_sets,
    sumset,
)
from .integral import (
    _multinomial_margin,
    _verified_fails,
    counts_signature,
    decide,
    extract_failing_mu,
    find_failing_mu,
    ratio_factored,
)
from .littlewood import (
    compose,
    core_tower,
    decompose,
    quotient_tower,
)
from .partition import (
    format_partition,
    from_boundary,
    hook_multiset,
    parse_partition,
    render_hook_diagram,
    to_boundary,
)
from .ratio import (
    InvariantError,
    RatioParams,
    bober_families,
    build_ftable,
    phi_bijection,
)

EXIT_INPUT_ERROR = 64
# the most runners `decompose` lists: its output holds one quotient and one
# charge per runner, O(p) whatever the partition, and every modulus the
# tests, demos and benchmark use is at most 107
MAX_DECOMPOSE_RUNNERS = 10_000
# the largest modulus M whose period table `f-table` builds and lists: the
# table holds one value per residue, O(M) whatever the pair, and every M
# the tests, demos and README use is at most 30
MAX_FTABLE_MODULUS = 1_000_000
# 128 + SIGPIPE, what a shell reports for `yes | head`
EXIT_BROKEN_PIPE = 141


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)

    def _check_value(self, action, value):
        # choices quoted, as Python 3.10-3.12 word it; 3.13 drops the quotes
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            msg = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, msg)


def _int_list(text: str) -> tuple[int, ...]:
    # a blank list is empty, but an empty token is malformed, as in a
    # partition literal
    try:
        return tuple(map(int, text.split(","))) if text.strip() else ()
    except ValueError:
        raise CliInputError(f"malformed integer list {text!r}") from None


def _params_from_file(path: str) -> RatioParams:
    values: dict[str, tuple[int, ...]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, rest = line.partition(":")
                if not sep:
                    raise CliInputError(f"malformed parameter line {line!r}")
                key = key.strip().lower()
                if key not in ("gamma", "delta"):
                    raise CliInputError(f"unknown parameter key {key!r}")
                if key in values:
                    raise CliInputError(f"repeated parameter key {key!r}")
                values[key] = _int_list(rest)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    if len(values) < 2:
        raise CliInputError(f"{path} must define both gamma: and delta: lines")
    return RatioParams(values["gamma"], values["delta"])


def _params_arg(args) -> RatioParams:
    if getattr(args, "params", None):
        return _params_from_file(args.params)
    if args.gamma is None or args.delta is None:
        raise CliInputError("provide --gamma and --delta, or --params FILE")
    return RatioParams(_int_list(args.gamma), _int_list(args.delta))


# What each handler returns: the exit code, the JSON payload, and a
# zero-argument callable yielding the text lines, so that --json formats
# none of them. Only run() writes the result.
_Result = tuple[int, dict, Callable[[], Iterable[str]]]


def _cmd_hooks(args) -> _Result:
    lam = parse_partition(args.partition)
    hooks = hook_multiset(lam)
    payload = {
        "partition": format_partition(lam),
        "size": lam.size,
        "hooks": {str(h): hooks[h] for h in sorted(hooks)},
    }

    def text():
        diagram = render_hook_diagram(lam)
        yield diagram if diagram else "(empty partition)"
        flat = sorted(hooks.elements(), reverse=True)
        yield f"hooks: {' '.join(map(str, flat)) if flat else '(none)'}"

    return 0, payload, text


def _cmd_boundary(args) -> _Result:
    lam = parse_partition(args.partition)
    b = to_boundary(lam)
    payload = {
        "partition": format_partition(lam),
        "window": "".join(map(str, b.window)),
        "offset": b.offset,
        "interior_zeros": [i for i in b.zero_positions() if i >= 0],
        "rendered": b.render(),
        "centered": b.is_centered(),
    }
    return 0, payload, lambda: [
        payload["rendered"],
        f"round trip: {format_partition(from_boundary(b)) or '()'}",
    ]


def _cmd_decompose(args) -> _Result:
    if args.p > MAX_DECOMPOSE_RUNNERS:
        raise CliInputError(
            f"--p {args.p} exceeds the decompose limit of {MAX_DECOMPOSE_RUNNERS} "
            "runners; the output lists one quotient per runner"
        )
    lam = parse_partition(args.partition)
    dec = decompose(lam, args.p)
    payload = {
        "partition": format_partition(lam),
        "p": dec.p,
        "core": format_partition(dec.core),
        "quotients": [format_partition(q) for q in dec.quotients],
        "charges": list(dec.charges),
        "size": lam.size,
        "core_size": dec.core.size,
        "quotient_sizes": [q.size for q in dec.quotients],
    }

    def text():
        yield f"core: {payload['core'] or '()'}"
        for j, q in enumerate(payload["quotients"]):
            yield f"quotient {j}: {q or '()'}  (charge {dec.charges[j]:+d})"
        yield (
            f"size identity: {lam.size} = {dec.core.size} "
            f"+ {dec.p} * {dec.total_quotient_size()}"
        )

    return 0, payload, text


def _cmd_compose(args) -> _Result:
    core = parse_partition(args.core)
    quotients = [
        parse_partition(tok) for tok in (args.quotients or "").split(";")
    ]
    lam = compose(core, quotients, args.p)
    payload = {
        "p": args.p,
        "core": format_partition(core),
        "quotients": [format_partition(q) for q in quotients],
        "partition": format_partition(lam),
    }
    return 0, payload, lambda: [payload["partition"] or "()"]


def _cmd_tower(args) -> _Result:
    lam = parse_partition(args.partition)
    tower = (
        core_tower(lam, args.p) if args.kind == "core" else quotient_tower(lam, args.p)
    )
    payload = {
        "partition": format_partition(lam),
        "p": args.p,
        "kind": args.kind,
        "labels": tower.to_json_dict(),
    }
    return 0, payload, lambda: (
        f"{word or '(root)'}: {label or '()'}"
        for word, label in payload["labels"].items()
    )


def _cmd_ratio(args) -> _Result:
    lam = parse_partition(args.partition)
    params = _params_arg(args)
    fr = ratio_factored(lam, params)
    payload = {"partition": format_partition(lam), **fr.to_json_dict()}
    return 0 if fr.is_integral else 1, payload, lambda: [str(fr)]


def _cmd_ftable(args) -> _Result:
    params = _params_arg(args)
    if params.modulus > MAX_FTABLE_MODULUS:
        raise CliInputError(
            f"M = {params.modulus} exceeds the f-table limit of "
            f"{MAX_FTABLE_MODULUS}; the table lists one value per residue"
        )
    table = build_ftable(params)

    def text():
        yield f"M = {table.M}, P = {table.M}, min = {table.min}, max = {table.max}"
        yield "x:    " + " ".join(f"{x:>2}" for x in range(table.M))
        yield "f(x): " + " ".join(f"{v:>2}" for v in table.values)

    return 0, table.to_json_dict(), text


def _cmd_check(args) -> _Result:
    verdict = decide(_params_arg(args), args.bound)
    payload = verdict.to_json_dict()

    def text():
        yield f"verdict: {verdict.status}"
        if payload["witness"] is not None:
            w = payload["witness"]
            yield f"  mu     = {w['mu'] or '()'}"
            yield f"  p      = {w['p']}"
            yield f"  lambda = {w['lambda']}"
            yield f"  valuation at p: {verdict.valuation_at_p}"
        if verdict.bound is not None:
            yield f"  searched sizes up to {verdict.bound}"

    return verdict.exit_code, payload, text


def _cmd_search_mu(args) -> _Result:
    params = _params_arg(args)
    mu = find_failing_mu(params, args.bound, hooks_only=args.hooks_only)
    payload = {
        "gamma": list(params.gammas),
        "delta": list(params.deltas),
        "bound": args.bound,
        "hooks_only": args.hooks_only,
        "mu": None if mu is None else format_partition(mu),
        "signature": None if mu is None else counts_signature(mu, params),
    }
    return 0 if mu is None else 1, payload, lambda: [
        "no failing partition found"
        if mu is None
        else f"mu = {payload['mu']}  (signature {payload['signature']})"
    ]


def _cmd_construct_lambda(args) -> _Result:
    mu = parse_partition(args.mu)
    params = _params_arg(args)
    # the printed valuation is re-checked against p times the signature,
    # as for every witness of check and height1
    verdict = _verified_fails(params, mu, None)
    w, vp = verdict.witness.to_json_dict(), verdict.valuation_at_p
    payload = {
        "mu": w["mu"],
        "gamma": list(params.gammas),
        "delta": list(params.deltas),
        "p": w["p"],
        "lambda": w["lambda"],
        "valuation_at_p": vp,
    }
    return 0, payload, lambda: [
        f"p = {w['p']}",
        f"lambda = {w['lambda']}",
        f"valuation at {w['p']}: {vp}",
    ]


def _cmd_extract_mu(args) -> _Result:
    lam = parse_partition(args.partition)
    params = _params_arg(args)
    mu = extract_failing_mu(lam, params, args.p)
    payload = {
        "lambda": format_partition(lam),
        "p": args.p,
        "mu": format_partition(mu),
        "signature": counts_signature(mu, params),
    }
    return 0, payload, lambda: [
        f"mu = {payload['mu']}  (signature {payload['signature']})"
    ]


def _cmd_height1(args) -> _Result:
    params = _params_arg(args)
    verdict = decide_height1(params)
    # the level sets are undefined where the one-row check fails
    sets = period_sets(params) if build_ftable(params).min >= 0 else None
    witness = None if verdict.witness is None else verdict.witness.to_json_dict()
    payload = dict.fromkeys(("P", "A0", "A1", "Y", "sumset_missing"))
    if sets is not None:
        report = sumset(sets.A0, sets.A0, sets.P)
        payload.update(
            P=sets.P,
            A0=sorted(sets.A0),
            A1=sorted(sets.A1),
            Y=sorted(sets.Y),
            sumset_missing=sorted(set(range(sets.P)) - report.sumset),
        )
    payload.update(verdict=verdict.status, witness=witness)

    def text():
        if sets is not None:
            yield f"P = {sets.P}"
            yield f"A0 = {payload['A0']}"
            yield f"Y  = {payload['Y']}"
            yield f"A0 + A0 misses {payload['sumset_missing']}"
        else:
            yield "one-row check fails; level sets undefined"
        yield f"verdict: {verdict.status}"
        if witness:
            yield f"  mu = {witness['mu']}, p = {witness['p']}, lambda = {witness['lambda']}"

    return verdict.exit_code, payload, text


def _cmd_multinomial(args) -> _Result:
    lam = parse_partition(args.partition)
    margin, ok = _multinomial_margin(lam, args.s, args.t)
    payload = {
        "partition": format_partition(lam),
        "s": args.s,
        "t": args.t,
        "count_margin": margin,
        "integral": ok,
    }
    return 0 if ok else 1, payload, lambda: [f"count margin: {margin}, integral: {ok}"]


def _cmd_bober_scan(args) -> _Result:
    if args.bound < 0:
        raise CliInputError("bound must be nonnegative")
    instances = []
    for x in range(1, args.bound + 1):
        for y in range(1, args.bound + 1):
            if gcd(x, y) != 1:
                continue
            fams = bober_families(x, y)
            labels = [1, 3] if x <= y else [1, 2, 3]
            for family, (alpha, beta) in zip(labels, fams):
                entry = {
                    "family": family,
                    "x": x,
                    "y": y,
                    "alpha": list(alpha),
                    "beta": list(beta),
                }
                if set(alpha) & set(beta):
                    entry["skipped"] = "alpha and beta share an entry"
                    instances.append(entry)
                    continue
                image = phi_bijection(RatioParams(alpha, beta))
                entry["gamma"] = list(image.gammas)
                entry["delta"] = list(image.deltas)
                verdict = decide_height1(image)
                entry["status"] = verdict.status
                if verdict.witness is not None:
                    entry["witness"] = verdict.witness.to_json_dict()
                instances.append(entry)

    def text():
        for e in instances:
            head = f"family {e['family']} (x={e['x']}, y={e['y']}): {tuple(e['alpha'])} / {tuple(e['beta'])}"
            if "skipped" in e:
                yield f"{head}  [skipped: {e['skipped']}]"
            else:
                yield f"{head}  ->  {tuple(e['gamma'])} / {tuple(e['delta'])}: {e['status']}"

    return 0, {"bound": args.bound, "instances": instances}, text


def _add_params_options(sub) -> None:
    sub.add_argument("--gamma", help="comma separated gamma entries")
    sub.add_argument("--delta", help="comma separated delta entries")
    sub.add_argument("--params", help="parameter file with gamma: and delta: lines")


def build_parser() -> _Parser:
    parser = _Parser(prog="hookratio", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hookratio {__version__}")
    parser.add_argument("--seed", type=int, help="ignored; every verb is deterministic")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help_text):
        s = sub.add_parser(name, help=help_text)
        s.set_defaults(handler=handler)
        s.add_argument("--json", action="store_true", help="machine readable output")
        return s

    s = verb("hooks", _cmd_hooks, "Young diagram with hook lengths")
    s.add_argument("--partition", required=True)

    s = verb("boundary", _cmd_boundary, "01 boundary sequence of a partition")
    s.add_argument("--partition", required=True)

    s = verb("decompose", _cmd_decompose, "core and quotients at a modulus")
    s.add_argument("--partition", required=True)
    s.add_argument("--p", type=int, required=True)

    s = verb("compose", _cmd_compose, "rebuild a partition from core and quotients")
    s.add_argument("--core", default="")
    s.add_argument("--quotients", default="", help="semicolon separated partition literals")
    s.add_argument("--p", type=int, required=True)

    s = verb("tower", _cmd_tower, "core or quotient tower labels")
    s.add_argument("--partition", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--kind", choices=("core", "quotient"), default="core")

    s = verb("ratio", _cmd_ratio, "factored hook product ratio at a partition")
    s.add_argument("--partition", required=True)
    _add_params_options(s)

    s = verb("f-table", _cmd_ftable, "period table of the step function")
    _add_params_options(s)

    s = verb("check", _cmd_check, "decide integrality for balanced parameters")
    _add_params_options(s)
    s.add_argument("--bound", type=int, default=20, help="exhaustive search size cap")

    s = verb("search-mu", _cmd_search_mu, "search for a negative signature partition")
    _add_params_options(s)
    s.add_argument("--bound", type=int, default=20)
    s.add_argument("--hooks-only", action="store_true", dest="hooks_only")

    s = verb("construct-lambda", _cmd_construct_lambda, "inflate mu into a failing partition")
    s.add_argument("--mu", required=True)
    _add_params_options(s)

    s = verb("extract-mu", _cmd_extract_mu, "recover a failing mu from a failing lambda")
    s.add_argument("--partition", required=True)
    s.add_argument("--p", type=int, required=True)
    _add_params_options(s)

    s = verb("height1", _cmd_height1, "height 1 decision with period sets")
    _add_params_options(s)

    s = verb("multinomial", _cmd_multinomial, "hook count margin for the pair (s, st)")
    s.add_argument("--partition", required=True)
    s.add_argument("--s", type=int, required=True)
    s.add_argument("--t", type=int, required=True)

    s = verb("bober-scan", _cmd_bober_scan, "survey the height 1 families")
    s.add_argument("--bound", type=int, default=6, help="max x and y")

    # wrapped as Python 3.10-3.12 wrap it at 80 columns, now at any width;
    # 3.13 put the "..." on the line of the verbs
    indent = " " * len("usage: hookratio ")
    parser.usage = (
        "%(prog)s [-h] [--version] [--seed SEED]\n"
        f"{indent}{{{','.join(sub.choices)}}}\n{indent}..."
    )
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        code, payload, text = args.handler(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in text():
                print(line)
        return code
    except ValueError as exc:
        # CliInputError and any domain-level rejection (bad modulus, wrong
        # height, unbalanced parameters) are input errors to the shell
        print(f"hookratio: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InvariantError as exc:
        # a fault of the program, such as a witness that does not re-verify
        # or a contradicted height 1 classification: exit 1 would read as
        # Fails
        print(f"diagnostic: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        # a shape too large to hold, not a verdict: exit 1 would read as Fails
        print("hookratio: error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: not a verdict,
        # and exit 1 would read as Fails. stdout now points at devnull, so
        # the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
