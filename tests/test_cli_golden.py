"""Golden transcripts of the command line: exact stdout, stderr and exit
code of ``cli.run`` for every verb in text and ``--json``, the README
examples and the input error paths.

The expected values live in ``tests/data/cli_golden.json``. They change
only with a deliberate change of output; re-record them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the data file.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hookratio import Height1ContradictionError, InvariantError, cli

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# one text and one --json command line per verb
VERBS = [
    ["hooks", "--partition", "5,2"],
    ["hooks", "--partition", ""],
    ["boundary", "--partition", "18,7,6"],
    ["decompose", "--partition", "18,7,6", "--p", "3"],
    ["compose", "--core", "3,1", "--quotients", "2;;5,2", "--p", "3"],
    ["tower", "--partition", "18,7,6", "--p", "3"],
    ["tower", "--partition", "18,7,6", "--p", "3", "--kind", "quotient"],
    ["ratio", "--partition", "6^5", "--gamma", "1,30", "--delta", "2,3,5"],
    ["ratio", "--partition", "66^55", "--gamma", "1,30", "--delta", "2,3,5"],
    ["f-table", "--gamma", "3", "--delta", "4,12"],
    ["check", "--gamma", "1", "--delta", "2,2"],
    ["check", "--gamma", "2,3", "--delta", "4,4,6,6", "--bound", "10"],
    ["check", "--gamma", "1,30", "--delta", "2,3,5", "--bound", "30"],
    ["search-mu", "--gamma", "1", "--delta", "2,2", "--bound", "8"],
    ["search-mu", "--gamma", "1,30", "--delta", "2,3,5", "--hooks-only"],
    ["search-mu", "--gamma", "1,4,4", "--delta", "2,2,3,6"],
    ["search-mu", "--gamma", "1", "--delta", "2,3,3", "--bound", "8"],
    ["construct-lambda", "--mu", "2,1", "--gamma", "2", "--delta", "3,6"],
    ["extract-mu", "--partition", "66^55", "--p", "11", "--gamma", "1,30", "--delta", "2,3,5"],
    ["height1", "--gamma", "3", "--delta", "4,12"],
    ["height1", "--gamma", "2,2", "--delta", "3,3,3"],
    ["height1", "--gamma", "1", "--delta", "2,2"],
    ["multinomial", "--partition", "6,6,6,6,6", "--s", "1", "--t", "2"],
    ["multinomial", "--partition", "3,1", "--s", "2", "--t", "2"],
    ["bober-scan", "--bound", "3"],
]

# the command lines of the README section "Command line"
README = [
    ["hooks", "--partition", "5,2"],
    ["boundary", "--partition", "18,7,6"],
    ["decompose", "--partition", "18,7,6", "--p", "3"],
    ["compose", "--core", "", "--quotients", ";".join(["6^5"] * 11), "--p", "11"],
    ["tower", "--partition", "18,7,6", "--p", "3", "--kind", "quotient", "--json"],
    ["ratio", "--partition", "66^55", "--gamma", "1,30", "--delta", "2,3,5"],
    ["f-table", "--gamma", "30,1", "--delta", "2,3,5", "--json"],
    ["check", "--gamma", "1,30", "--delta", "2,3,5", "--bound", "30", "--json"],
    ["search-mu", "--gamma", "1,30", "--delta", "2,3,5", "--hooks-only"],
    ["construct-lambda", "--mu", "6^5", "--gamma", "1,30", "--delta", "2,3,5"],
    ["extract-mu", "--partition", "66^55", "--p", "11", "--gamma", "1,30", "--delta", "2,3,5"],
    ["height1", "--gamma", "30,1", "--delta", "2,3,5", "--json"],
    ["multinomial", "--partition", "6,6,6,6,6", "--s", "1", "--t", "2"],
    ["bober-scan", "--bound", "6", "--json"],
]

ERRORS = [
    ["hooks", "--partition", "abc"],
    ["hooks", "--partition", "abc", "--json"],
    ["decompose", "--partition", "3,1", "--p", "1"],
    ["decompose", "--partition", "3,1", "--p", "1", "--json"],
    ["check", "--gamma", "2", "--delta", "3"],
    ["check", "--gamma", "2", "--delta", "3", "--json"],
    ["height1", "--gamma", "1,1", "--delta", "2,2,2,2"],
    ["height1", "--gamma", "1,1", "--delta", "2,2,2,2", "--json"],
    ["check", "--gamma", "1"],
    ["check", "--gamma", "1,,", "--delta", "2,2"],
    ["check", "--gamma", "1", "--delta", ",2,,2"],
    ["multinomial", "--partition", "3", "--s", "0", "--t", "2"],
    ["frobnicate"],
    [],
    ["--version"],
]

CASES = (
    VERBS
    + [argv + ["--json"] for argv in VERBS]
    + README
    + ERRORS
)


def transcript(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


def test_data_covers_every_case():
    assert [rec["argv"] for rec in load()] == CASES


def test_every_verb_is_covered():
    verbs = set(cli.build_parser()._subparsers._group_actions[0].choices)
    assert {argv[0] for argv in VERBS} == verbs


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i]) or "(none)")
def test_transcript(index):
    expected = load()[index]
    assert transcript(expected["argv"]) == expected


def test_hooks_json_renders_no_diagram(monkeypatch):
    def refuse(lam):
        raise AssertionError("--json must not render the hook diagram")

    monkeypatch.setattr(cli, "render_hook_diagram", refuse)
    got = transcript(["hooks", "--partition", "5,2", "--json"])
    assert got["code"] == 0 and json.loads(got["stdout"])["size"] == 7


@pytest.mark.parametrize(
    "params", [["1", "2,2"], ["1,30", "2,3,5"], ["1,1", "2,2,2,2"]]
)
def test_negative_bound_is_an_input_error(params):
    # not in the golden data: these exited 0, 1 and 64 before the fix
    gammas, deltas = params
    got = transcript(["check", "--gamma", gammas, "--delta", deltas, "--bound", "-1"])
    assert (got["code"], got["stdout"], got["stderr"]) == (
        64, "", "hookratio: error: size bound must be nonnegative\n"
    )


def test_height1_contradiction_keeps_its_diagnostic(monkeypatch):
    def contradiction(params):
        raise Height1ContradictionError("classification contradicted")

    monkeypatch.setattr(cli, "decide_height1", contradiction)
    got = transcript(["height1", "--gamma", "3", "--delta", "4,12", "--json"])
    assert (got["code"], got["stdout"], got["stderr"]) == (
        64, "", "diagnostic: classification contradicted\n"
    )


def test_invariant_error_keeps_its_diagnostic(monkeypatch):
    # any fault of the program exits 64, not 1, which would read as Fails
    def fault(params, size_bound):
        raise InvariantError("witness did not re-verify")

    monkeypatch.setattr(cli, "decide", fault)
    got = transcript(["check", "--gamma", "1,30", "--delta", "2,3,5", "--json"])
    assert (got["code"], got["stdout"], got["stderr"]) == (
        64, "", "diagnostic: witness did not re-verify\n"
    )


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    DATA.parent.mkdir(exist_ok=True)
    records = [transcript(argv) for argv in CASES]
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} transcripts to {DATA}")
