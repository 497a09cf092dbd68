"""Record the verdict digest of every input the benchmark can draw.

    python3 bench/record.py

Writes bench/expected.json. Run it only on a commit whose verdicts are
trusted: the benchmark counts every later difference as a failed
operation.
"""

from __future__ import annotations

import json
import sys

import run as bench
import workloads


def main() -> int:
    expected = {}
    for name in bench.WORKLOADS:
        run = bench.Run(name, 0, 0, {})
        if name == "survey":
            pairs = workloads.survey_pairs()
            run.survey_round(workloads.Op("survey", pairs=pairs))
        else:
            for op in workloads.population(name):
                run.cli_op(op)
        if run.attempted != len(run.verdicts):
            print(f"{name}: {run.failures}", file=sys.stderr)
            return 1
        expected[name] = dict(sorted(run.verdicts.items()))
        print(f"{name}: {len(run.verdicts)} verdicts", file=sys.stderr)
    with open(bench.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
