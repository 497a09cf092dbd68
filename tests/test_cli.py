import hashlib
import json
import subprocess
import sys

import pytest

import hookratio.integral as integral_module
from hookratio import build_ftable, cli
from hookratio.cli import run

from conftest import source_env


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecomposeVerb:
    def test_human_output(self, capsys):
        code, out, _ = invoke(
            capsys, "decompose", "--partition", "18,7,6", "--p", "3"
        )
        assert code == 0
        assert "core: 3,1" in out
        assert "quotient 0: 2" in out
        assert "quotient 1: ()" in out
        assert "quotient 2: 5,2" in out
        assert "31 = 4 + 3 * 9" in out

    def test_json_output(self, capsys):
        code, out, _ = invoke(
            capsys, "decompose", "--partition", "18,7,6", "--p", "3", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["core"] == "3,1"
        assert payload["quotients"] == ["2", "", "5,2"]
        assert payload["charges"] == [0, -1, 1]

    def test_runner_limit(self, capsys):
        # the limit is named ahead of the malformed literal: it is checked
        # before the partition is read, so no work starts
        limit = cli.MAX_DECOMPOSE_RUNNERS
        code, out, err = invoke(
            capsys, "decompose", "--partition", "3,x", "--p", str(limit + 1)
        )
        assert code == 64 and out == ""
        assert f"limit of {limit} runners" in err


class TestComposeVerb:
    def test_rebuilds_66_55(self, capsys):
        code, out, _ = invoke(
            capsys, "compose", "--core", "", "--p", "11",
            "--quotients", ";".join(["6^5"] * 11),
        )
        assert code == 0 and out.strip() == "66^55"

    def test_non_core_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "compose", "--core", "3", "--p", "3", "--quotients", ";;"
        )
        assert code == 64 and "core" in err


class TestHooksVerb:
    def test_diagram(self, capsys):
        code, out, _ = invoke(capsys, "hooks", "--partition", "5,2")
        assert code == 0
        assert out.splitlines()[0] == "6 5 3 2 1"
        assert out.splitlines()[1] == "2 1"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "hooks", "--partition", "5,2", "--json")
        payload = json.loads(out)
        assert payload["hooks"] == {"1": 2, "2": 2, "3": 1, "5": 1, "6": 1}
        assert payload["size"] == 7


class TestBoundaryVerb:
    def test_rendered(self, capsys):
        code, out, _ = invoke(capsys, "boundary", "--partition", "18,7,6")
        assert code == 0
        assert "...0111|1110101111111111101..." in out

    def test_json(self, capsys):
        _, out, _ = invoke(capsys, "boundary", "--partition", "18,7,6", "--json")
        payload = json.loads(out)
        assert payload["interior_zeros"] == [3, 5, 17]
        assert payload["centered"] is True


class TestTowerVerb:
    def test_core_tower_json(self, capsys):
        _, out, _ = invoke(
            capsys, "tower", "--partition", "18,7,6", "--p", "3", "--json"
        )
        payload = json.loads(out)
        assert payload["labels"] == {"": "3,1", "0": "2", "2": "1", "2.1": "2"}

    def test_quotient_tower_json(self, capsys):
        _, out, _ = invoke(
            capsys, "tower", "--partition", "18,7,6", "--p", "3",
            "--kind", "quotient", "--json",
        )
        payload = json.loads(out)
        assert payload["labels"]["2.1"] == "2"


class TestRatioVerb:
    def test_trivial_ratio(self, capsys):
        code, out, _ = invoke(
            capsys, "ratio", "--partition", "", "--gamma", "1", "--delta", "2,2"
        )
        assert code == 0 and out.strip() == "1"

    def test_non_integral_exit(self, capsys):
        code, out, _ = invoke(
            capsys, "ratio", "--partition", "66^55",
            "--gamma", "1,30", "--delta", "2,3,5", "--json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["integral"] is False
        assert payload["exponents"]["11"] == -11
        assert "13" not in payload["exponents"]


class TestFTableVerb:
    def test_json_schema(self, capsys):
        code, out, _ = invoke(
            capsys, "f-table", "--gamma", "30,1", "--delta", "2,3,5", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert sorted(payload) == ["M", "P", "max", "min", "values"]
        assert payload["M"] == 30 and payload["P"] == 30
        assert payload["values"][:7] == [0, 1, 1, 1, 1, 1, 0]

    def test_unbalanced_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "f-table", "--gamma", "2", "--delta", "3")
        assert code == 64 and "balanced" in err

    def test_modulus_limit(self, capsys, monkeypatch):
        # M is about 1.28e11: the limit is named before any table is built
        def building(params):
            raise AssertionError(f"a table was built for {params}")

        monkeypatch.setattr(cli, "build_ftable", building)
        code, out, err = invoke(
            capsys, "f-table", "--gamma", "15999999", "--delta", "31992000,32008000"
        )
        assert code == 64 and out == ""
        assert f"limit of {cli.MAX_FTABLE_MODULUS}" in err


class TestCheckVerb:
    def test_sporadic_fails(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "--gamma", "1,30", "--delta", "2,3,5",
            "--bound", "30", "--json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["status"] == "Fails"
        assert payload["witness"]["p"] == 37
        assert payload["valuation_at_p"] == -37

    def test_certified(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "--gamma", "1", "--delta", "2,2", "--json"
        )
        assert code == 0 and json.loads(out)["status"] == "Integral-Certified"

    def test_unknown(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "--gamma", "2", "--delta", "5,10,10,10",
            "--bound", "5", "--json",
        )
        assert code == 2 and json.loads(out)["status"] == "Unknown-UpToBound"

    def test_params_file(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("gamma: 1\ndelta: 2,2\n")
        code, out, _ = invoke(capsys, "check", "--params", str(path), "--json")
        assert code == 0 and json.loads(out)["status"] == "Integral-Certified"

    def test_params_file_rejects_empty_tokens(self, capsys, tmp_path):
        for text in ("gamma: 1,,\ndelta: 2,2\n", "gamma: 1\ndelta: ,2,,2\n"):
            path = tmp_path / "params.txt"
            path.write_text(text)
            code, out, err = invoke(capsys, "check", "--params", str(path))
            assert code == 64 and out == ""
            assert "malformed integer list" in err

    def test_params_file_rejects_repeated_keys(self, capsys, tmp_path):
        for text, key in (
            ("gamma: 1\ngamma: 2\ndelta: 2,2\n", "gamma"),
            ("gamma: 1\ndelta: 2,2\nDelta: 1,1\n", "delta"),
        ):
            path = tmp_path / "params.txt"
            path.write_text(text)
            code, out, err = invoke(capsys, "check", "--params", str(path))
            assert code == 64 and out == ""
            assert f"repeated parameter key '{key}'" in err

    @pytest.mark.parametrize("text, message", [
        ("# pair\n\ngamma: 1\n  \n# again\ndelta: 2,2\n", None),
        ("gamma 1\ndelta: 2,2\n", "malformed parameter line 'gamma 1'"),
        ("gamma: 1\nbeta: 2,2\n", "unknown parameter key 'beta'"),
        ("gamma: 1\n", "must define both gamma: and delta: lines"),
        (None, "cannot read"),
    ])
    def test_params_file_lines(self, capsys, tmp_path, text, message):
        # comment and blank lines are skipped; a file that is missing,
        # malformed or incomplete exits 64 with its message
        path = tmp_path / "params.txt"
        if text is not None:
            path.write_text(text)
        code, out, err = invoke(capsys, "check", "--params", str(path), "--json")
        if message is None:
            expected = invoke(
                capsys, "check", "--gamma", "1", "--delta", "2,2", "--json"
            )
            assert (code, out, err) == expected
        else:
            assert code == 64 and out == ""
            assert message in err

    def test_has_no_workers_option(self, capsys):
        code, out, err = invoke(
            capsys, "check", "--gamma", "1,30", "--delta", "2,3,5",
            "--bound", "12", "--workers", "2",
        )
        assert code == 64 and out == ""
        assert "unrecognized arguments: --workers 2" in err

    def test_byte_identical_across_runs(self, capsys):
        first = invoke(
            capsys, "height1", "--gamma", "30,1", "--delta", "2,3,5", "--json"
        )
        second = invoke(
            capsys, "height1", "--gamma", "30,1", "--delta", "2,3,5", "--json"
        )
        assert first == second


class TestSearchMuVerb:
    def test_has_no_workers_option(self, capsys):
        code, out, err = invoke(
            capsys, "search-mu", "--gamma", "5,5", "--delta", "6,6",
            "--bound", "8", "--workers", "2",
        )
        assert code == 64 and out == ""
        assert "unrecognized arguments: --workers 2" in err

    def test_hooks_only(self, capsys):
        code, out, _ = invoke(
            capsys, "search-mu", "--gamma", "1,30", "--delta", "2,3,5",
            "--hooks-only", "--json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["mu"] == "11,1^25"
        assert payload["signature"] == -1

    def test_no_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "search-mu", "--gamma", "1", "--delta", "2,2",
            "--bound", "10", "--json",
        )
        assert code == 0 and json.loads(out)["mu"] is None


class TestConstructExtractVerbs:
    def test_construct(self, capsys):
        code, out, _ = invoke(
            capsys, "construct-lambda", "--mu", "6^5",
            "--gamma", "1,30", "--delta", "2,3,5", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["p"] == 11
        assert payload["lambda"] == "66^55"
        assert payload["valuation_at_p"] == -11

    def test_construct_rechecks_its_valuation(self, capsys, monkeypatch):
        # a valuation other than p times the signature of mu is a fault of
        # the program: a diagnostic and exit 64, never a printed result
        monkeypatch.setattr(
            integral_module, "_valuation", lambda rec, signed, p: -1
        )
        code, out, err = invoke(
            capsys, "construct-lambda", "--mu", "6^5",
            "--gamma", "1,30", "--delta", "2,3,5",
        )
        assert (code, out) == (64, "")
        assert err == (
            "diagnostic: witness 6^5 at p = 11 has valuation -1, expected -11 < 0\n"
        )

    def test_construct_rejects_good_mu(self, capsys):
        code, _, err = invoke(
            capsys, "construct-lambda", "--mu", "3",
            "--gamma", "1,30", "--delta", "2,3,5",
        )
        assert code == 64 and "signature" in err

    def test_extract(self, capsys):
        code, out, _ = invoke(
            capsys, "extract-mu", "--partition", "66^55", "--p", "11",
            "--gamma", "1,30", "--delta", "2,3,5", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["mu"] == "6^5"

    def test_extract_rejects_integral_point(self, capsys):
        code, _, err = invoke(
            capsys, "extract-mu", "--partition", "2,1", "--p", "2",
            "--gamma", "1", "--delta", "2,2",
        )
        assert code == 64

    def test_extract_error_prints_the_literal(self, capsys):
        code, out, err = invoke(
            capsys, "extract-mu", "--partition", "1586^61,61^2074", "--p", "61",
            "--gamma", "1", "--delta", "2,2",
        )
        assert code == 64 and out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert "1586^61,61^2074" in err

    def test_extract_rejects_a_prime_above_every_hook_at_once(self):
        # 10**18 + 3 is prime; the primality test alone would take minutes
        proc = subprocess.run(
            [sys.executable, "-m", "hookratio", "extract-mu", "--partition", "3,1",
             "--p", "1000000000000000003", "--gamma", "2", "--delta", "3,6"],
            capture_output=True, text=True, timeout=30, env=source_env(),
        )
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr == (
            "hookratio: error: p = 1000000000000000003 exceeds every hook of "
            "3,1; nothing to extract\n"
        )


class TestHeight1Verb:
    def test_chebyshev_json(self, capsys):
        code, out, _ = invoke(
            capsys, "height1", "--gamma", "30,1", "--delta", "2,3,5", "--json"
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["P"] == 30
        assert payload["Y"] == [5, 9, 11, 14, 17, 19, 23, 29]
        assert payload["A0"] == [
            0, 6, 10, 12, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28
        ]
        assert payload["sumset_missing"] == [29]
        assert payload["verdict"] == "Fails"
        assert payload["witness"] is not None

    def test_canonical(self, capsys):
        code, out, _ = invoke(
            capsys, "height1", "--gamma", "3", "--delta", "6,6", "--json"
        )
        assert code == 0 and json.loads(out)["verdict"] == "Integral-Certified"

    def test_one_row_failure_still_gets_a_verdict(self, capsys):
        code, out, _ = invoke(
            capsys, "height1", "--gamma", "3,4", "--delta", "2,24,24", "--json"
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["verdict"] == "Fails"
        assert payload["P"] is None and payload["A0"] is None
        assert payload["witness"]["mu"] == "2"

    def test_only_the_one_row_check_empties_the_level_sets(
        self, capsys, monkeypatch
    ):
        # a pair that passes the one-row check: any error of period_sets
        # is reported, not taken for a failed check
        def broken(params):
            raise ValueError("period sets broke")

        monkeypatch.setattr(cli, "period_sets", broken)
        code, out, err = invoke(
            capsys, "height1", "--gamma", "30,1", "--delta", "2,3,5"
        )
        assert (code, out) == (64, "")
        assert err == "hookratio: error: period sets broke\n"

    def test_reads_one_period_table(self, capsys):
        # the one-row step of decide_height1, the gate on min f and
        # period_sets read the same table, and decide reads none: the memo
        # misses once and hits twice. The first hit of the pair's scan,
        # (10, 25), lies past its largest entry 30
        build_ftable.cache_clear()
        code, _, _ = invoke(
            capsys, "height1", "--gamma", "30,1", "--delta", "2,3,5", "--json"
        )
        info = build_ftable.cache_info()
        assert code == 1 and (info.misses, info.hits) == (1, 2)

    def test_wrong_height_is_input_error(self, capsys):
        code, _, err = invoke(
            capsys, "height1", "--gamma", "1", "--delta", "2,3,6"
        )
        assert code == 64 and "height" in err


class TestMultinomialVerb:
    def test_margin(self, capsys):
        code, out, _ = invoke(
            capsys, "multinomial", "--partition", "6,6,6,6,6",
            "--s", "1", "--t", "2", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count_margin"] == 0
        assert payload["integral"] is True


class TestBoberScanVerb:
    def test_scan_bound_2(self, capsys):
        code, out, _ = invoke(capsys, "bober-scan", "--bound", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        by_key = {(e["family"], e["x"], e["y"]): e for e in payload["instances"]}
        assert by_key[(1, 1, 1)]["status"] == "Integral-Certified"
        assert "skipped" in by_key[(2, 2, 1)]
        assert "skipped" in by_key[(3, 1, 1)]
        assert by_key[(1, 2, 1)]["status"] == "Fails"
        assert by_key[(1, 1, 2)]["status"] == "Fails"

    def test_negative_bound_is_rejected(self, capsys):
        assert invoke(capsys, "bober-scan", "--bound", "-3") == (
            64, "", "hookratio: error: bound must be nonnegative\n"
        )
        assert invoke(capsys, "bober-scan", "--bound", "0") == (0, "", "")


class TestErrors:
    def test_unknown_verb(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 64

    def test_missing_verb(self, capsys):
        assert invoke(capsys)[0] == 64

    def test_bad_partition(self, capsys):
        code, _, err = invoke(capsys, "hooks", "--partition", "0,-2")
        assert code == 64 and "positive" in err

    def test_missing_params(self, capsys):
        code, _, err = invoke(capsys, "f-table")
        assert code == 64

    def test_bad_modulus(self, capsys):
        code, _, err = invoke(capsys, "decompose", "--partition", "3,1", "--p", "1")
        assert code == 64 and "modulus" in err
        code, _, err = invoke(capsys, "tower", "--partition", "3,1", "--p", "0")
        assert code == 64 and "modulus" in err

    def test_memory_error_is_one_line_and_exit_64(self, capsys, monkeypatch):
        # a shape too large to expand raises MemoryError; it must not exit
        # 1, the Fails code, with a traceback
        def exhausted(lam, p):
            raise MemoryError

        monkeypatch.setattr(cli, "decompose", exhausted)
        code, out, err = invoke(
            capsys, "decompose", "--partition", "1^1000000000000", "--p", "2"
        )
        assert (code, out) == (64, "")
        assert err == "hookratio: error: out of memory\n"

    def test_seed_flag_accepted(self, capsys):
        code, out, _ = invoke(
            capsys, "--seed", "17", "hooks", "--partition", "2,1"
        )
        assert code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hookratio", "decompose",
         "--partition", "18,7,6", "--p", "3", "--json"],
        capture_output=True, text=True, timeout=60, env=source_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["core"] == "3,1"


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "hookratio", "--version"],
        capture_output=True, text=True, timeout=60, env=source_env(),
    )
    assert proc.returncode == 0
    assert "hookratio" in proc.stdout


def test_reader_closing_stdout_early_exits_141():
    # about 0.7 MB of hook lengths, far past a 64 KB pipe buffer: the write
    # after the reader closes raises BrokenPipeError, which must exit as a
    # shell reports `yes | head` (128 + SIGPIPE), without a traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "hookratio", "hooks", "--partition", "300^300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_import_loads_no_costly_stdlib_module():
    # dataclasses (which imports inspect) and fractions (which imports
    # decimal) were most of the package's own import cost, paid by every
    # verb. The child runs with this interpreter's -O level; no timing is
    # asserted.
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import hookratio.cli\n"
        "print(*sorted(set(sys.modules) - bare))\n"
    )
    flags = ["-O"] * sys.flags.optimize
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, timeout=60, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hookratio.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}


def test_malformed_max_size_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("HOOKRATIO_MAX_SIZE", "abc")
    code, _, err = invoke(
        capsys, "check", "--gamma", "2", "--delta", "5,10,10,10", "--bound", "4"
    )
    assert code == 64
    assert "HOOKRATIO_MAX_SIZE" in err and "'abc'" in err


def test_negative_max_size_names_the_variable(capsys, monkeypatch):
    # rejected as a malformed value, not read as a cap below every size
    monkeypatch.setenv("HOOKRATIO_MAX_SIZE", "-5")
    code, out, err = invoke(
        capsys, "search-mu", "--gamma", "1", "--delta", "2,2", "--bound", "0"
    )
    assert code == 64 and out == ""
    assert "HOOKRATIO_MAX_SIZE" in err and "'-5'" in err
    assert "exceeds" not in err


def test_height1_at_m_51330_is_byte_identical():
    # stdout recorded once from the row-list implementation, which built
    # the 1,497,270 rows of the witness; the run-length witness prints the
    # same bytes
    proc = subprocess.run(
        [sys.executable, "-m", "hookratio", "height1",
         "--gamma", "870", "--delta", "1711,1770", "--json"],
        capture_output=True, timeout=120, env=source_env(),
    )
    assert (proc.returncode, proc.stderr) == (1, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "1e115376fbf0a7a47682d67c7dfa9a2d156121abd275062146333911eba4f3a2"
    )
    witness = json.loads(proc.stdout)["witness"]
    assert witness == {
        "mu": "842,1^869", "p": 1721, "lambda": "1449082^1721,1721^1495549",
    }
