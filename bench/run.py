"""Benchmark of the hookratio program: time per verdict, set-up, memory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program runs from ``src/``
with nothing installed. One client drives one program process at a time
(closed loop): each CLI operation is one ``python -m hookratio ...``
process, and the ``survey`` workload is one library process per round
calling ``hookratio.decide`` in a loop. Every operation's verdict is
checked against the digest recorded in ``bench/expected.json``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of ``BENCHMARK.json``. With ``--trace 1`` a fixed list of
operations runs twice, untraced and traced in alternation, and the last
line holds the per-layer metrics, including the cost of tracing itself.
The line before the last records the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(BENCH, "out", "spans")
EXPECTED_PATH = os.path.join(BENCH, "expected.json")
CHILD = os.path.join(BENCH, "child.py")

WORKLOADS = ("search", "witness", "survey", "towers")
OP_TIMEOUT_S = 60.0
# stop starting operations after this, so a run ends well within 180 s
DEADLINE_S = 140.0
SETUP_SPAWNS = 7
# fixed work of a traced run, so its counts repeat exactly
TRACE_CLI_ROUNDS = {"search": 6, "witness": 1, "towers": 1}
TRACE_SURVEY_ROUNDS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# Program processes get no PYTHON* settings of the caller (such as
# PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED), so their start-up cost is
# the same wherever the benchmark runs: bytecode is cached in src/ as an
# installed package's would be.
ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
    "PYTHONPATH": SRC,
    "PYTHONHASHSEED": "0",
}


class Failure(Exception):
    pass


class Spawned:
    """A finished program process: wall time, exit code, output, peak RSS."""

    def __init__(self, argv, stdin_data=None, timeout=OP_TIMEOUT_S, pass_fds=()):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE if stdin_data is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ENV,
            cwd=ROOT,
            pass_fds=pass_fds,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        errors = []
        helper = threading.Thread(target=self._feed, args=(proc, stdin_data, errors))
        helper.start()
        self.ready_s = None
        if stdin_data is not None:  # a library child prints one line when ready
            proc.stdout.readline()
            self.ready_s = perf_counter() - start
        self.stdout = proc.stdout.read()
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
        # the largest of every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        timer.cancel()
        helper.join()
        proc.stdout.close()
        self.timed_out = self.wall_s >= timeout
        self.stderr = errors[0] if errors else b""
        self.rss_mb = usage.ru_maxrss / 1024

    @staticmethod
    def _feed(proc, stdin_data, errors):
        if stdin_data is not None:
            try:
                proc.stdin.write(stdin_data)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        errors.append(proc.stderr.read())
        proc.stderr.close()

    def describe(self) -> str:
        tail = self.stderr.decode(errors="replace").strip().splitlines()[-1:]
        reason = "timeout" if self.timed_out else f"exit {self.exit_code}"
        return f"{reason} {tail[0] if tail else ''}".strip()


class Run:
    """Samples and verdict checks gathered over one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, expected: dict):
        self.workload = workload
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.started = perf_counter()
        self.expected = expected
        self.latencies: list[float] = []
        self.setups: list[float] = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts: dict[str, str] = {}
        self.rounds = 0

    def out_of_time(self) -> bool:
        return perf_counter() - self.started > DEADLINE_S

    def fail(self, item: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{item}: {why}")

    def check(self, item: str, fields: dict, gammas=(), deltas=()) -> None:
        self.attempted += 1
        self.verdicts[item] = workloads.digest(fields)
        if not workloads.gate(self.expected, item, fields, gammas, deltas):
            self.fail(item, f"verdict digest {self.verdicts[item]} != {self.expected.get(item)}")

    def cli_op(self, op: workloads.Op, traced: tuple | None = None) -> float | None:
        """Run one CLI operation and check it; return its wall time."""
        if self.out_of_time():
            return None
        timeout = min(OP_TIMEOUT_S, DEADLINE_S + 20 - (perf_counter() - self.started))
        if traced is None:
            proc = Spawned(("-m", "hookratio", *op.argv), timeout=timeout)
        else:
            fd, spans_path = traced
            proc = Spawned(
                (CHILD, "cli", "--trace", str(fd), spans_path, "--", *op.argv),
                timeout=timeout,
                pass_fds=(fd,),
            )
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        if proc.timed_out or proc.exit_code not in (0, 1, 2):
            self.attempted += 1
            self.fail(op.item, proc.describe())
            return None
        try:
            payload = json.loads(proc.stdout)
            fields = workloads.verdict_fields(op.argv, proc.exit_code, payload)
        except (ValueError, KeyError, TypeError) as exc:
            self.attempted += 1
            self.fail(op.item, f"unreadable output: {exc}")
            return None
        self.check(op.item, fields, op.gammas, op.deltas)
        return proc.wall_s

    def survey_round(self, op: workloads.Op, trace_args=()) -> list[float]:
        """One library process over the whole survey; per-call latencies."""
        job = json.dumps({"pairs": op.pairs, "bound": workloads.SURVEY_BOUND}).encode()
        timeout = min(OP_TIMEOUT_S, DEADLINE_S + 20 - (perf_counter() - self.started))
        fds = (int(trace_args[1]),) if trace_args else ()
        proc = Spawned((CHILD, "survey", *trace_args), stdin_data=job, timeout=timeout,
                       pass_fds=fds)
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        results = []
        if proc.exit_code == 0:
            try:
                results = json.loads(proc.stdout)
            except ValueError:
                results = []
        if len(results) != len(op.pairs):
            self.attempted += len(op.pairs)
            self.fail("survey", f"{proc.describe()}; {len(results)} of {len(op.pairs)} calls")
            self.failed += len(op.pairs) - 1
            return []
        self.setups.append(proc.ready_s)
        for (gammas, deltas), (_, fields) in zip(op.pairs, results):
            self.check(workloads.pair_id(gammas, deltas), fields, gammas, deltas)
        return [elapsed for elapsed, _ in results]

    def measure_setup(self) -> None:
        """Time ``hookratio --version``; the first call, which compiles the
        bytecode, is not counted. Survey rounds time their own start."""
        spawns = 1 if self.workload == "survey" else SETUP_SPAWNS + 1
        for i in range(spawns):
            proc = Spawned(("-m", "hookratio", "--version"))
            if proc.exit_code != 0 or not proc.stdout.startswith(b"hookratio "):
                raise Failure(f"hookratio --version failed: {proc.describe()}")
            if i:
                self.setups.append(proc.wall_s)

    def measure(self) -> None:
        """Whole rounds until --seconds have passed."""
        pairs = workloads.survey_pairs() if self.workload == "survey" else None
        rounds = None if pairs else workloads.cli_rounds(self.workload, self.rng)
        while perf_counter() - self.started < self.seconds and not self.out_of_time():
            if pairs is not None:
                self.latencies += self.survey_round(workloads.survey_round(self.rng, pairs))
            else:
                for op in next(rounds):
                    wall = self.cli_op(op)
                    if wall is not None:
                        self.latencies.append(wall)
            self.rounds += 1


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def calibration_loop() -> float:
    """A fixed pure-Python loop: how fast the machine is right now."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def tail(samples: list[float]) -> dict | None:
    """The highest percentile that leaves at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": q, "value_s": ordered[rank - 1], "samples": n}
    return None


def environment(seed: int, seconds: float, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hookratio", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _commit() -> str | None:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def verdict_summary(verdicts: dict[str, str]) -> dict:
    blob = json.dumps(sorted(verdicts.items())).encode()
    return {"inputs": len(verdicts), "digest": hashlib.sha256(blob).hexdigest()[:16]}


def end_to_end(run: Run, record: dict) -> dict:
    if not run.latencies or not run.setups:
        raise Failure("no operation completed")
    record["samples"] = {
        "setup_s": len(run.setups),
        "latency_p50_s": len(run.latencies),
        "throughput_ops_s": len(run.latencies),
        "peak_rss_mb": run.attempted if run.workload != "survey" else run.rounds,
    }
    record["latency_tail_s"] = tail(run.latencies)
    return {
        "setup_s": statistics.median(run.setups),
        "latency_p50_s": statistics.median(run.latencies),
        "throughput_ops_s": len(run.latencies) / sum(run.latencies),
        "peak_rss_mb": run.rss_mb,
    }


def traced(run: Run, record: dict) -> dict:
    """Each operation untraced and traced, in alternating order."""
    shutil.rmtree(os.path.join(SPANS_DIR, run.workload), ignore_errors=True)
    os.makedirs(os.path.join(SPANS_DIR, run.workload))
    totals: dict[str, dict] = {}
    caches: dict[str, dict] = {}
    plain = tracing = 0.0
    spans = 0

    def collect(read_fd):
        nonlocal spans
        with os.fdopen(read_fd) as fh:
            report = json.loads(fh.read() or "null")
        if report is None:
            return
        spans += report["spans"]
        for name, counts in report["totals"].items():
            into = totals.setdefault(name, {})
            for key, value in counts.items():
                into[key] = into.get(key, 0) + value
        for name, counts in report["caches"].items():
            into = caches.setdefault(name, {"hits": 0, "misses": 0})
            into["hits"] += counts["hits"]
            into["misses"] += counts["misses"]

    if run.workload == "survey":
        pairs = workloads.survey_pairs()
        ops = [workloads.survey_round(run.rng, pairs) for _ in range(TRACE_SURVEY_ROUNDS)]
    else:
        rounds = workloads.cli_rounds(run.workload, run.rng)
        ops = [op for _ in range(TRACE_CLI_ROUNDS[run.workload]) for op in next(rounds)]
    for index, op in enumerate(ops):
        read_fd, write_fd = os.pipe()
        path = os.path.join(SPANS_DIR, run.workload, f"op-{index:04d}.json.gz")
        times = {}
        for mode in (("plain", "traced") if index % 2 == 0 else ("traced", "plain")):
            args = (write_fd, path) if mode == "traced" else None
            if run.workload == "survey":
                trace_args = ("--trace", str(write_fd), path) if args else ()
                times[mode] = sum(run.survey_round(op, trace_args))
            else:
                times[mode] = run.cli_op(op, args)
            if args:
                os.close(write_fd)
        collect(read_fd)
        if times["plain"] and times["traced"]:
            plain += times["plain"]
            tracing += times["traced"]
    record["samples"] = {"operations": len(ops), "spans": spans}
    record["spans_dir"] = os.path.relpath(os.path.join(SPANS_DIR, run.workload), ROOT)
    metrics = {}
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_ratio":
            value = tracing / plain if plain else 0.0
        else:
            function, counter = name.rsplit(".", 1)
            if counter == "hit_ratio":
                info = caches.get(function, {"hits": 0, "misses": 0})
                looked_up = info["hits"] + info["misses"]
                value = info["hits"] / looked_up if looked_up else 0.0
            else:
                value = totals.get(function, {}).get(counter, 0)
        metrics[name] = value
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hookratio", "__init__.py")):
        print(f"bench: no hookratio sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    record = environment(args.seed, args.seconds, args.trace)
    record["workload"] = args.workload
    loop_start = calibration_loop()
    run = Run(args.workload, args.seed, args.seconds, load_expected()[args.workload])
    try:
        if args.trace:
            metrics = traced(run, record)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            run.measure_setup()
            run.started = perf_counter()
            run.measure()
            metrics = end_to_end(run, record)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record["machine.loop_s"] = [loop_start, calibration_loop()]
    record["rounds"] = run.rounds
    record["error_rate"] = run.failed / run.attempted if run.attempted else None
    record["failures"] = run.failures
    record["verdicts"] = verdict_summary(run.verdicts)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
