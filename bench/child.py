"""The benchmark's side inside a program process.

    child.py survey [--trace FD SPANS]     decide() loop; job on stdin
    child.py cli --trace FD SPANS -- ARGS  one traced CLI command

The survey job is a JSON object {"pairs": [[gammas, deltas], ...],
"bound": n}. The child prints "ready" once hookratio is imported, then one
JSON line with each call's latency and verdict fields.

With --trace, the public functions of every hookratio module are wrapped
in every namespace that imported them by name, so calls made through
``from .x import y`` are seen too. Spans (name, start, end, parent,
operation id) stay in memory until the process is done; then per-function
totals go to file descriptor FD as JSON and the spans to SPANS (gzip JSON).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

MODULES = ("partition", "littlewood", "ratio", "primes", "integral", "height1", "cli")

# counters beyond calls and self time: how many cells or items a call handled
MEASURES = {
    "partition.hook_multiset": ("cells", lambda args, result: args[0].size),
    "littlewood.compose": ("cells_out", lambda args, result: result.size),
}


class Tracer:
    def __init__(self, fd: int, spans_path: str):
        self.fd = fd
        self.spans_path = spans_path
        self.spans: list = []
        self.stack: list[int] = []  # indices of open spans
        self.inner: list[float] = []  # child time inside each open span
        self.totals: dict[str, dict] = {}
        self.op = 0

    def _total(self, name: str) -> dict:
        return self.totals.setdefault(name, {"calls": 0, "self_s": 0.0})

    def _open(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        idx = len(self.spans) - 1
        self.stack.append(idx)
        self.inner.append(0.0)
        return idx, parent

    def _close(self, start: float, end: float) -> float:
        """Pop the innermost span; return its self time."""
        self.stack.pop()
        inner = self.inner.pop()
        if self.inner:
            self.inner[-1] += end - start
        return end - start - inner

    def wrap_call(self, name, fn):
        total = self._total(name)
        measure = MEASURES.get(name)
        if measure:
            total[measure[0]] = 0

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                total["self_s"] += self._close(start, end)
                total["calls"] += 1
                self.spans[idx] = (name, start, end, parent, self.op)
            if measure:
                total[measure[0]] += measure[1](args, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Time a generator across its iteration: each resumption is busy
        time of one span that runs from the first to the last resumption."""
        total = self._total(name)
        total["items"] = 0

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            total["calls"] += 1
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            op = self.op
            first = last = None

            def resume():
                nonlocal first, last
                try:
                    while True:
                        self.stack.append(idx)
                        self.inner.append(0.0)
                        start = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            last = perf_counter()
                            first = start if first is None else first
                            total["self_s"] += self._close(start, last)
                        total["items"] += 1
                        yield item
                finally:
                    self.spans[idx] = (name, first, last, parent, op)

            return resume()

        return traced

    def install(self):
        """Swap every public function of the hookratio modules, wherever it
        is bound by name, for a traced one."""
        package = importlib.import_module("hookratio")
        modules = [importlib.import_module(f"hookratio.{m}") for m in MODULES]
        # cache_info() lives on the original lru_cache objects
        self.caches = {
            "partition.hook_cache": package.partition._hook_values,
            "ratio.build_ftable": package.ratio.build_ftable,
            "primes.factorize": package.primes.factorize,
        }
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self.wrap_generator(name, obj)
                else:
                    wrapped[id(obj)] = self.wrap_call(name, obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        ratio = importlib.import_module("hookratio.ratio")
        prop = ratio.RatioParams.is_balanced
        ratio.RatioParams.is_balanced = property(
            self.wrap_call("ratio.RatioParams.is_balanced", prop.fget)
        )

    def write(self) -> None:
        caches = {}
        for name, cached in self.caches.items():
            info = cached.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        with os.fdopen(self.fd, "w") as out:
            json.dump({"totals": self.totals, "caches": caches, "spans": len(self.spans)}, out)
        with gzip.open(self.spans_path, "wt", compresslevel=1) as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, out)


def start_trace(argv: list[str]) -> Tracer | None:
    if "--trace" not in argv:
        return None
    at = argv.index("--trace")
    tracer = Tracer(int(argv[at + 1]), argv[at + 2])
    tracer.install()
    return tracer


def survey(argv: list[str]) -> int:
    import hookratio

    print("ready", flush=True)
    job = json.load(sys.stdin)
    fmt = hookratio.format_partition  # rendering for the gate stays untraced
    tracer = start_trace(argv)
    results = []
    bound = job["bound"]
    for op, (gammas, deltas) in enumerate(job["pairs"]):
        if tracer:
            tracer.op = op
        params = hookratio.RatioParams(tuple(gammas), tuple(deltas))
        start = perf_counter()
        verdict = hookratio.decide(params, bound)
        elapsed = perf_counter() - start
        witness = None
        if verdict.witness is not None:
            w = verdict.witness
            witness = {
                "mu": fmt(w.mu),
                "p": w.p,
                "lambda": fmt(w.lam),
            }
        results.append(
            [elapsed, {"status": verdict.status, "witness": witness,
                       "valuation_at_p": verdict.valuation_at_p}]
        )
    print(json.dumps(results), flush=True)
    if tracer:
        tracer.write()
    return 0


def traced_cli(argv: list[str]) -> int:
    tracer = start_trace(argv)
    cli = importlib.import_module("hookratio.cli")
    code = cli.run(argv[argv.index("--") + 1:])
    sys.stdout.flush()
    tracer.write()
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    sys.exit(survey(sys.argv) if mode == "survey" else traced_cli(sys.argv))
