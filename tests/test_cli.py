"""CLI tests: commands, formats, exit codes, determinism, round-trips."""

from __future__ import annotations

import gc
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bernasym.asymptotics import asymp_table_from_json, build_asymp_table
from bernasym.cartan import root_system
from bernasym.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from bernasym.kostant import count_cache_clear, count_partitions


README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def readme_command_lines():
    """The ``bernasym ...`` lines of the README's "Command line" code block, comments kept."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("bernasym ")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_a1_height_three_json(self, capsys):
        code, out, _ = run(capsys, "--type", "A", "--rank", "1", "--height", "3", "table")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["entries"]) == 4
        for record in payload["entries"][1:]:
            assert record["trace"] == [[0, 1], [1, -1]]  # 1 - q
        assert payload["normalization_exponent"] == "-(g-1)*dim(G)/2"

    def test_a2_height_zero(self, capsys):
        code, out, _ = run(capsys, "--type", "A", "--rank", "2", "--height", "0", "table")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["entries"] == [{"theta": [0, 0], "trace": [[0, 1]]}]

    def test_g2_height_four_verified(self, capsys):
        code, out, _ = run(
            capsys, "--type", "G", "--rank", "2", "--height", "4", "table", "--verify"
        )
        assert code == EXIT_OK
        assert json.loads(out)["root_system"]["name"] == "G2"

    def test_rank_45_table(self, capsys):
        # 1035 coroots: the partition search used to recurse once per coroot and overflow the stack
        code, out, _ = run(capsys, "--type", "A", "--rank", "45", "--height", "1", "--no-verify", "table")
        assert code == EXIT_OK
        entries = json.loads(out)["entries"]
        assert len(entries) == 46
        assert all(record["trace"] == [[0, 1], [1, -1]] for record in entries[1:])

    def test_determinism_byte_identical(self, capsys):
        argv = ("--type", "B", "--rank", "2", "--height", "3", "table")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "1", "--height", "2", "--format", "csv", "table"
        )
        assert code == EXIT_OK
        assert out == "theta,height,trace\n0,0,1\n1,1,1 - q\n2,2,1 - q\n"

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "1", "--height", "1", "--format", "text", "table"
        )
        assert code == EXIT_OK
        assert "(1,) -> 1 - q" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run(
            capsys,
            "--type", "A", "--rank", "1", "--height", "2", "--out", str(target), "table",
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["height"] == 2

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, kind):
        target = tmp_path / "missing" / "table.json" if kind == "missing-directory" else tmp_path
        code, out, err = run(
            capsys, "--type", "A", "--rank", "1", "--height", "1", "--out", str(target), "table"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot write output file {str(target)!r}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("flag, message", [("--out", "cannot write output file"),
                                               ("--config", "cannot read config file"),
                                               ("--cartan", "cannot read Cartan matrix file")],
                             ids=["out", "config", "cartan"])
    def test_path_is_quoted_on_stderr(self, capsys, tmp_path, flag, message):
        # quoted, a newline in the path cannot split the one-line error in two
        path = tmp_path / "a\nb" / "t.json"
        system = ("--type", "A", "--rank", "1") if flag != "--cartan" else ()
        code, out, err = run(capsys, *system, "--height", "1", flag, str(path), "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {message} {str(path)!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_out_path_open_refuses_is_usage_error(self, capsys):
        # open() refuses a NUL byte by ValueError, not OSError: it escaped main as a traceback
        code, out, err = run(capsys, "--type", "A", "--rank", "1", "--height", "1", "--out", "a\0b", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: cannot write output file 'a\\x00b': ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_unwritable_stdout_is_usage_error(self, unbuffered):
        # buffered, the small table fails only on flush; unbuffered, on write
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        argv = [sys.executable, "-m", "bernasym.cli", "--type", "A", "--rank", "2", "--height", "1", "table"]
        with open("/dev/full", "w") as full:
            result = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("error: cannot write to stdout: ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "--type", "C", "--rank", "2", "--height", "3", "table")
        assert code == EXIT_OK
        clone = asymp_table_from_json(json.loads(out))
        direct = build_asymp_table(root_system("C", 2), 3)
        assert clone.entries == direct.entries
        assert clone.root_system == direct.root_system

    def test_genus_metadata(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "1", "--height", "1", "--genus", "2", "table"
        )
        assert code == EXIT_OK
        meta = json.loads(out)["metadata"]
        assert meta["genus"] == 2 and meta["normalization_exponent_value"] == "-3/2"

    def test_negative_genus_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--type", "A", "--rank", "1", "--height", "1", "--genus", "-3", "table")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: genus -3 must be an integer >= 0\n"

    def test_missing_height_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--type", "A", "--rank", "1", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: table needs --height\n"

    def test_negative_height_is_refused_by_the_library_rule(self, capsys):
        code, out, err = run(capsys, "--type", "A", "--rank", "1", "--height", "-1", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: table height -1 must be an integer >= 0\n"

    def test_dot_format_rejected(self, capsys, monkeypatch):
        import bernasym.cli as cli

        monkeypatch.setattr(cli, "build_asymp_table", None)  # refused before the table is computed
        code, out, err = run(capsys, "--type", "E", "--rank", "6", "--height", "7", "--format", "dot", "table")
        assert (code, out, err) == (EXIT_USAGE, "", "error: table supports --format json|csv|text\n")

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        import bernasym.asymptotics as mod
        from bernasym.qlaurent import LaurentPoly

        monkeypatch.setattr(mod, "trace_grothendieck_oracle", lambda rs, theta: LaurentPoly({9: 9}))
        code, _, err = run(capsys, "--type", "A", "--rank", "1", "--height", "1", "table")
        assert code == EXIT_VERIFY
        report = json.loads(err)
        assert report["error"] == "identity-verification-failure"
        assert report["theta"] == [0]
        assert report["oracle"] == [[9, 9]]

    def test_verification_failure_report_bytes(self, capsys, monkeypatch):
        import bernasym.asymptotics as mod
        from bernasym.qlaurent import LaurentPoly

        monkeypatch.setattr(mod, "trace_grothendieck_oracle", lambda rs, theta: LaurentPoly({9: 9}))
        code, out, err = run(capsys, "--type", "A", "--rank", "1", "--height", "1", "table")
        assert (code, out) == (EXIT_VERIFY, "")
        assert err == (
            '{"error": "identity-verification-failure", "theta": [0], '
            '"kostant": [[0, 1]], "series": [[0, 1]], "oracle": [[9, 9]]}\n'
        )

    def test_count_failure_report_bytes(self, capsys, monkeypatch):
        import bernasym.asymptotics as mod

        monkeypatch.setattr(mod, "count_region", lambda rs, region: dict.fromkeys(region, 7))
        code, out, err = run(capsys, "--type", "A", "--rank", "1", "--height", "1", "table")
        assert (code, out) == (EXIT_VERIFY, "")
        assert err == '{"error": "identity-verification-failure", "theta": [0], "dp_count": 7, "enumerated": 1}\n'

    def test_no_verify_skips_check(self, capsys, monkeypatch):
        import bernasym.asymptotics as mod
        from bernasym.qlaurent import LaurentPoly

        monkeypatch.setattr(mod, "trace_grothendieck_oracle", lambda rs, theta: LaurentPoly({9: 9}))
        code, _, _ = run(
            capsys, "--type", "A", "--rank", "1", "--height", "1", "--no-verify", "table"
        )
        assert code == EXIT_OK


class TestTrace:
    def test_method_all_three_identical(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "1", "--theta", "2", "--method", "all", "trace"
        )
        assert code == EXIT_OK
        assert out == "1 - q\n1 - q\n1 - q\n"

    def test_series_runs_over_theta_box(self, capsys, monkeypatch):
        # A6 theta = (1, ..., 1): a box of 64 points, not the 924 coweights of height <= 6
        import time

        import bernasym.cli as cli

        build, built = cli.gk_product_series, []
        monkeypatch.setattr(cli, "gk_product_series", lambda *args, **kwargs: built.append(build(*args, **kwargs)) or built[-1])
        start = time.perf_counter()
        code, out, _ = run(capsys, "--type", "A", "--rank", "6", "--theta", "1,1,1,1,1,1", "--method", "all", "trace")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_OK, "1 - q\n1 - q\n1 - q\n")
        with pytest.raises(ValueError, match="outside the series region"):
            built[0].coefficient((2, 0, 0, 0, 0, 0))

    def test_trace_all_failure_report_bytes(self, capsys, monkeypatch):
        import bernasym.cli as cli
        from bernasym.qlaurent import LaurentPoly

        monkeypatch.setattr(cli, "trace_grothendieck_oracle", lambda rs, theta: LaurentPoly({9: 9}))
        code, out, err = run(
            capsys, "--type", "A", "--rank", "1", "--theta", "2", "--method", "all", "trace"
        )
        assert (code, out) == (EXIT_VERIFY, "")
        assert err == (
            '{"error": "identity-verification-failure", "theta": [2], '
            '"kostant": [[0, 1], [1, -1]], "series": [[0, 1], [1, -1]], "oracle": [[9, 9]]}\n'
        )

    def test_zero_theta(self, capsys):
        code, out, _ = run(capsys, "--type", "A", "--rank", "2", "--theta", "0,0", "trace")
        assert code == EXIT_OK
        assert out == "1\n"

    def test_a2_long_coroot(self, capsys):
        code, out, _ = run(capsys, "--type", "A", "--rank", "2", "--theta", "1,1", "trace")
        assert code == EXIT_OK
        assert out == "1 - q\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "--type", "A", "--rank", "1", "--theta", "1", "--method", "all",
            "--format", "json", "trace",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["traces"]["kostant"] == payload["traces"]["series"] == [[0, 1], [1, -1]]

    def test_negative_theta_usage_error(self, capsys):
        code, _, _ = run(capsys, "--type", "A", "--rank", "1", "--theta", "-1", "trace")
        assert code == EXIT_USAGE

    def test_wrong_arity_usage_error(self, capsys):
        code, _, _ = run(capsys, "--type", "A", "--rank", "2", "--theta", "1", "trace")
        assert code == EXIT_USAGE

    def test_missing_theta_usage_error(self, capsys):
        code, out, err = run(capsys, "--type", "A", "--rank", "2", "trace")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: trace needs --theta\n"

    def test_unknown_method_usage_error(self, capsys):
        assert run(capsys, "--type", "A", "--rank", "1", "--theta", "1", "--method", "bogus", "trace") == (
            EXIT_USAGE, "",
            "error: argument --method: invalid choice: 'bogus' (choose from 'kostant', 'series', 'oracle', 'all')\n")


class TestStrata:
    def test_parabolic_two_rows(self, capsys):
        code, out, _ = run(capsys, "--type", "A", "--rank", "1", "strata", "parabolic")
        assert code == EXIT_OK
        assert len(json.loads(out)) == 2

    def test_local_six_rows(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "1", "--theta", "2", "strata", "local"
        )
        assert code == EXIT_OK
        assert len(json.loads(out)) == 6

    def test_poset_dot_six_nodes(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "2", "--height", "2", "strata", "poset"
        )
        assert code == EXIT_OK
        assert out.count("[label=") == 6

    def test_poset_json(self, capsys):
        code, out, _ = run(
            capsys,
            "--type", "A", "--rank", "1", "--height", "2", "--format", "json", "strata", "poset",
        )
        assert code == EXIT_OK
        assert json.loads(out)["elements"] == [[0], [1], [2]]

    def test_levi_quotient(self, capsys):
        code, out, _ = run(
            capsys,
            "--type", "A", "--rank", "3", "--levi", "1", "--theta", "1,1", "strata", "local",
        )
        assert code == EXIT_OK
        assert len(json.loads(out)) == 9

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "1", "--format", "text", "strata", "parabolic"
        )
        assert code == EXIT_OK
        assert out == "I_M=[] c_P=(0,)\nI_M=[0] c_P=(1,)\n"

    @pytest.mark.parametrize("height, message", [(None, "strata poset needs --height"),
                                                 ("-1", "height bound -1 must be an integer >= 0")],
                             ids=["missing", "negative"])
    def test_poset_height_usage_error(self, capsys, height, message):
        flags = () if height is None else ("--height", height)
        code, out, err = run(capsys, "--type", "A", "--rank", "2", *flags, "strata", "poset")
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_missing_kind_usage_error(self, capsys):
        assert run(capsys, "--type", "A", "--rank", "1", "strata") == (
            EXIT_USAGE, "", "error: strata needs a kind: parabolic, local, or poset\n")

    def test_bad_levi_usage_error(self, capsys):
        for levi in ("7", "-1"):
            code, out, err = run(capsys, "--type", "A", "--rank", "2", f"--levi={levi}", "strata", "parabolic")
            assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: "), levi

    @pytest.mark.parametrize("levi", [(), ("--levi", "0")], ids=["borel", "quotient-rank-1"])
    def test_local_without_theta_names_the_flag(self, capsys, levi):
        code, out, err = run(capsys, "--type", "A", "--rank", str(len(levi) + 1), *levi, "strata", "local")
        assert (code, out, err) == (EXIT_USAGE, "", "error: strata local needs --theta\n")

    def test_local_without_theta_is_empty_when_every_vertex_is_in_the_levi(self, capsys):
        # the quotient has rank 0, so () is its one coweight and --theta may be left out
        code, out, err = run(capsys, "--type", "A", "--rank", "2", "--levi", "0,1", "strata", "local")
        assert (code, err) == (EXIT_OK, "")
        expected = [{"levi_vertices": [0, 1], "total": [], "parts": [[], [], []], "defect": []}]
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_local_needs_quotient_arity(self, capsys):
        code, _, _ = run(
            capsys, "--type", "A", "--rank", "3", "--levi", "1", "--theta", "1,1,1",
            "strata", "local",
        )
        assert code == EXIT_USAGE


class TestDivisor:
    def test_two_points(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "1", "--divisor", "x:1;y:1", "divisor"
        )
        assert code == EXIT_OK
        assert out == "1 - 2q + q^2\n"

    def test_empty_divisor(self, capsys):
        code, out, _ = run(capsys, "--type", "A", "--rank", "1", "--divisor", "", "divisor")
        assert code == EXIT_OK
        assert out == "1\n"

    def test_a2_single_point(self, capsys):
        code, out, _ = run(
            capsys, "--type", "A", "--rank", "2", "--divisor", "x:1,1", "divisor"
        )
        assert code == EXIT_OK
        assert out == "1 - q\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "--type", "A", "--rank", "1", "--divisor", "x:2", "--format", "json", "divisor",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["divisor"] == [["x", [2]]]
        assert payload["trace"] == [[0, 1], [1, -1]]

    def test_malformed_divisor_usage_error(self, capsys):
        for bad in ("x", "x:", "x:1;x:1", "x:0", "x:1,2"):
            code, _, _ = run(
                capsys, "--type", "A", "--rank", "1", "--divisor", bad, "divisor"
            )
            assert code == EXIT_USAGE, bad
        code, out, err = run(capsys, "--type", "A", "--rank", "1", "divisor")  # no --divisor at all
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: divisor needs --divisor")


class TestConfigAndSpec:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("type=A\nrank=1\nheight=2\n")
        code, out, _ = run(capsys, "--config", str(cfg), "table")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 3

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("type=A\nrank=1\nheight=2\n")
        code, out, _ = run(capsys, "--config", str(cfg), "--height", "0", "table")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 1

    @pytest.mark.parametrize("key", ["height", "rank", "genus"])
    def test_non_integer_config_value_is_usage_error(self, capsys, tmp_path, key):
        fields = {"type": "A", "rank": "1", "height": "1", "genus": "2", key: "two"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
        code, out, err = run(capsys, "--config", str(cfg), "table")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and "two" in err

    @pytest.mark.parametrize("source", ["--config"])  # a --cartan file holds a JSON matrix only
    @pytest.mark.parametrize(
        "text,ok",
        [
            ("type = A\nrank = 2\n", True),
            ("type=A rank=2\n", True),
            ("type=A\nrank=2\nlabel=my a2\n", False),
        ],
        ids=["spaced", "one-line", "whitespace-in-value"],
    )
    def test_shared_key_value_grammar(self, capsys, tmp_path, source, text, ok):
        path = tmp_path / "spec.txt"
        path.write_text(text)
        code, out, err = run(capsys, source, str(path), "--height", "1", "table")
        if ok:
            assert code == EXIT_OK
            assert len(json.loads(out)["entries"]) == 3
        else:
            assert code == EXIT_USAGE
            assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        ["[[2.9, -1.2], [-1, 2]]", "[[2, -1], [-1, true]]", "[[2, -1.0], [-1, 2]]"],
        ids=["fractional", "boolean", "integral-float"],
    )
    def test_non_integer_cartan_entry_is_usage_error(self, capsys, tmp_path, text):
        matrix = tmp_path / "cartan.json"
        matrix.write_text(text)
        code, out, err = run(capsys, "--cartan", str(matrix), "--height", "1", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert "is not an integer" in err

    def test_cartan_file(self, capsys, tmp_path):
        matrix = tmp_path / "cartan.json"
        matrix.write_text("[[2, -1], [-1, 2]]")
        code, out, _ = run(capsys, "--cartan", str(matrix), "--height", "1", "table")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 3

    @pytest.mark.parametrize(
        "text,message",
        [
            ("type=A\nrank=2\n", "cannot read Cartan matrix file"),
            ("[2, -1, -1, 2]", "Cartan matrix row 0 is 2, expected a list of 4 entries"),
            ("5", "Cartan matrix is 5, expected a nonempty list of rows"),
            ('{"cartan": [[2]]}', "expected a nonempty list of rows"),
            ("[]", "Cartan matrix is [], expected a nonempty list of rows"),
        ],
        ids=["key-value", "flat-list", "number", "object", "empty-list"],
    )
    def test_cartan_file_holds_a_list_of_rows(self, capsys, tmp_path, text, message):
        matrix = tmp_path / "cartan.json"
        matrix.write_text(text)
        code, out, err = run(capsys, "--cartan", str(matrix), "--height", "1", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_null_cartan_file_does_not_fall_back_to_type(self, capsys, tmp_path):
        matrix = tmp_path / "cartan.json"
        matrix.write_text("null")
        code, out, err = run(capsys, "--type", "A", "--rank", "2", "--cartan", str(matrix), "--height", "1", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: Cartan matrix file {str(matrix)!r} holds null, expected a list of rows\n"

    def test_type_and_cartan_together_rejected(self, capsys, tmp_path):
        matrix = tmp_path / "cartan.json"
        matrix.write_text("[[2, -1], [-1, 2]]")
        code, out, err = run(capsys, "--type", "A", "--cartan", str(matrix), "--height", "1", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: give either series/rank or an explicit Cartan matrix, not both\n"

    def test_invalid_cartan_file(self, capsys, tmp_path):
        matrix = tmp_path / "cartan.json"
        matrix.write_text("[[2, -2], [-2, 2]]")  # affine
        code, _, err = run(capsys, "--cartan", str(matrix), "--height", "1", "table")
        assert code == EXIT_USAGE
        assert "finite type" in err

    def test_rank_64_affine_cycle_file_refused(self, capsys, tmp_path):
        matrix = tmp_path / "cartan.json"
        matrix.write_text(json.dumps([[2 if i == j else -int((i - j) % 64 in (1, 63)) for j in range(64)]
                                      for i in range(64)]))
        code, out, err = run(capsys, "--cartan", str(matrix), "--height", "1", "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: Cartan matrix is not of finite type (more than 2n^2 = 8192 positive roots)\n"

    def test_rank_65_file_refused_before_the_closure(self, capsys, tmp_path):
        # refused as the spec is made, before the reflection closure runs
        matrix = tmp_path / "cartan.json"
        matrix.write_text(json.dumps([[2 if i == j else -int(abs(i - j) == 1) for j in range(65)] for i in range(65)]))
        start = time.perf_counter()
        code, out, err = run(capsys, "--cartan", str(matrix), "--height", "0", "--no-verify", "table")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: Cartan matrix has rank 65; ranks up to 64 are supported\n"

    def test_missing_system_usage_error(self, capsys):
        code, _, err = run(capsys, "--height", "1", "table")
        assert code == EXIT_USAGE
        assert err == "error: a root-system spec needs a series and a rank, or a Cartan matrix\n"

    def test_unknown_series_usage_error(self, capsys):
        code, _, _ = run(capsys, "--type", "Z", "--rank", "2", "--height", "1", "table")
        assert code == EXIT_USAGE

    def test_levi_rejected_outside_strata(self, capsys):
        code, _, err = run(
            capsys, "--type", "A", "--rank", "2", "--height", "1", "--levi", "0", "table"
        )
        assert code == EXIT_USAGE
        assert err == "error: table does not read --levi\n"

    @pytest.mark.parametrize(
        "argv",
        [("--ty", "A", "--ra", "1", "--hei", "1", "--no-ver", "table"),
         ("--type", "A", "--rank", "1", "--height", "1", "--no-ver", "table"),
         ("--type", "A", "--rank", "1", "--hei=1", "table")],
        ids=["all-abbreviated", "no-ver", "hei="],
    )
    def test_abbreviated_flag_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_stray_kind_rejected(self, capsys):
        code, _, err = run(
            capsys, "--type", "A", "--rank", "1", "--height", "1", "table", "parabolic"
        )
        assert code == EXIT_USAGE
        assert "kind" in err


class TestConfigAsFlags:
    """A config field key=value is read as the flag --key=value placed before argv."""

    @staticmethod
    def config(tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    @staticmethod
    def break_oracle(monkeypatch):
        import bernasym.asymptotics as mod
        from bernasym.qlaurent import LaurentPoly

        monkeypatch.setattr(mod, "trace_grothendieck_oracle", lambda rs, theta: LaurentPoly({9: 9}))

    def test_negative_theta_field(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "type=A rank=1 theta=-1\n")
        code, out, err = run(capsys, "--config", cfg, "trace")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: theta (-1,) is not positive")

    def test_list_fields(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "type=A rank=3 levi=1 theta=1,1 format=text\n")
        code, out, _ = run(capsys, "--config", cfg, "strata", "local")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 9

    @pytest.mark.parametrize("spelling", ["1", "true", "yes", "on", "TRUE"])
    def test_verify_on_spellings(self, capsys, tmp_path, monkeypatch, spelling):
        self.break_oracle(monkeypatch)
        cfg = self.config(tmp_path, f"type=A rank=1 height=1 verify={spelling}\n")
        assert run(capsys, "--config", cfg, "table")[0] == EXIT_VERIFY

    @pytest.mark.parametrize("spelling", ["0", "false", "no", "off", "Off"])
    def test_verify_off_spellings(self, capsys, tmp_path, monkeypatch, spelling):
        self.break_oracle(monkeypatch)
        cfg = self.config(tmp_path, f"type=A rank=1 height=1 verify={spelling}\n")
        assert run(capsys, "--config", cfg, "table")[0] == EXIT_OK

    @pytest.mark.parametrize("spelling", ["ture", "", "2", "disabled"])
    def test_misspelled_verify_is_usage_error(self, capsys, tmp_path, monkeypatch, spelling):
        self.break_oracle(monkeypatch)
        cfg = self.config(tmp_path, f"type=A rank=1 height=1 verify={spelling}\n")
        code, out, err = run(capsys, "--config", cfg, "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: config field verify=")

    def test_no_verify_flag_overrides_field(self, capsys, tmp_path, monkeypatch):
        self.break_oracle(monkeypatch)
        cfg = self.config(tmp_path, "type=A rank=1 height=1 verify=true\n")
        assert run(capsys, "--config", cfg, "--no-verify", "table")[0] == EXIT_OK

    def test_verify_flag_overrides_field(self, capsys, tmp_path, monkeypatch):
        self.break_oracle(monkeypatch)
        cfg = self.config(tmp_path, "type=A rank=1 height=1 verify=false\n")
        assert run(capsys, "--config", cfg, "--verify", "table")[0] == EXIT_VERIFY

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "type=A rank=1 height=1 colour=red\n")
        code, out, err = run(capsys, "--config", cfg, "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: unrecognized arguments: --colour=red\n"

    def test_label_field_names_the_system(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "type=A rank=1 height=0 label=line\n")
        code, out, _ = run(capsys, "--config", cfg, "table")
        assert code == EXIT_OK
        assert json.loads(out)["root_system"]["name"] == "line"

    def test_label_field_names_a_cartan_system(self, capsys, tmp_path):
        matrix = tmp_path / "cartan.json"
        matrix.write_text("[[2, -1], [-1, 2]]")
        cfg = self.config(tmp_path, f"cartan={matrix} height=0 label=mine\n")
        code, out, _ = run(capsys, "--config", cfg, "table")
        assert code == EXIT_OK
        assert json.loads(out)["root_system"]["name"] == "mine"
        code, out, _ = run(capsys, "--config", self.config(tmp_path, "label=mine\n"),
                           "--cartan", str(matrix), "--height", "0", "table")
        assert code == EXIT_OK
        assert json.loads(out)["root_system"]["name"] == "mine"

    @pytest.mark.parametrize("key", ["config"])
    def test_config_field_is_usage_error(self, capsys, tmp_path, key):
        other = self.config(tmp_path, "type=B rank=2 height=1\n")
        cfg = tmp_path / "outer.cfg"
        cfg.write_text(f"type=A rank=1 height=1 {key}={other}\n")
        code, out, err = run(capsys, "--config", str(cfg), "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: config field {key}={other}: a config file cannot name another config file\n"

    @pytest.mark.parametrize(
        "fields,unrecognized",
        [("typ=A ran=1 hei=1", "--typ=A --ran=1 --hei=1"),
         ("type=A rank=1 height=1 verif=true", "--verif=true"),
         ("type=A rank=1 height=1 conf=other.cfg", "--conf=other.cfg")],
        ids=["typ-ran-hei", "verif", "conf"],
    )
    def test_abbreviated_key_is_usage_error(self, capsys, tmp_path, fields, unrecognized):
        # a key must name a flag in full: argparse's prefix matching is off
        cfg = self.config(tmp_path, fields + "\n")
        code, out, err = run(capsys, "--config", cfg, "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: unrecognized arguments: {unrecognized}\n"


    def test_out_field_open_refuses_is_usage_error(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "type=A rank=1 height=1 out=a\0b\n")
        code, out, err = run(capsys, "--config", cfg, "table")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ")


class TestRefusedInput:
    """Every ValueError out of a command, however deep, is a refused input: exit 2 and its message."""

    @pytest.mark.parametrize("call,argv", [
        ("build_asymp_table", "--type A --rank 1 --height 1 table"),
        ("trace_kostant_sum", "--type A --rank 1 --theta 1 trace"),
        ("divisor_trace", "--type A --rank 1 --divisor x:1 divisor"),
        ("defect_poset", "--type A --rank 2 --height 1 strata poset"),
    ], ids=lambda value: value.split()[-1] if " " in value else value)
    def test_library_value_error_is_usage_error(self, capsys, monkeypatch, call, argv):
        import bernasym.cli as cli

        def refuse(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, call, refuse)
        assert run(capsys, *argv.split()) == (EXIT_USAGE, "", "error: boom\n")


#: each command's arguments with its required flag, and the flags it does not read (--levi outside strata
#: is in test_levi_rejected_outside_strata)
UNREAD_FLAGS = {
    "table": ("--height 1 table", ("--theta 1", "--method all", "--divisor x:1")),
    "trace": ("--theta 1 trace", ("--height 2", "--no-verify", "--verify", "--genus 3", "--divisor x:1")),
    "divisor": ("--divisor x:1 divisor", ("--height 2", "--no-verify", "--genus 3", "--theta 1", "--method all")),
    "strata parabolic": ("strata parabolic", ("--height 2", "--no-verify", "--genus 3", "--theta 1",
                                              "--method all", "--divisor x:1", "--levi 0")),
    "strata local": ("--theta 1 strata local", ("--height 2", "--no-verify", "--genus 3", "--method all",
                                                "--divisor x:1")),
    "strata poset": ("--height 1 strata poset", ("--no-verify", "--genus 3", "--theta 1", "--method all",
                                                 "--divisor x:1")),
}


#: the formats each command prints, the default first
FORMATS = {"table": "json|csv|text", "trace": "text|json", "divisor": "text|json", "strata parabolic": "json|text",
           "strata local": "json|text", "strata poset": "dot|json"}


class TestUnreadFlags:
    """A flag its command does not read, or a format it does not print, is refused before any work."""

    @pytest.mark.parametrize("name, flag", [(name, flag) for name, (_, flags) in UNREAD_FLAGS.items()
                                            for flag in flags])
    def test_unread_flag_is_usage_error(self, capsys, monkeypatch, name, flag):
        import bernasym.cli as cli

        monkeypatch.setattr(cli, "build_root_system", None)  # building the root system would raise TypeError
        argv = ("--type", "A", "--rank", "1", *flag.split(), *UNREAD_FLAGS[name][0].split())
        read_as = flag.split()[0].replace("--no-", "--")
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {name} does not read {read_as}\n")

    @pytest.mark.parametrize("name, fmt", [(name, fmt) for name, formats in FORMATS.items()
                                           for fmt in ("json", "csv", "text", "dot") if fmt not in formats])
    def test_unsupported_format_is_usage_error(self, capsys, monkeypatch, name, fmt):
        import bernasym.cli as cli

        monkeypatch.setattr(cli, "build_root_system", None)  # building the root system would raise TypeError
        argv = ("--type", "A", "--rank", "1", "--format", fmt, *UNREAD_FLAGS[name][0].split())
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {name} supports --format {FORMATS[name]}\n")

    @pytest.mark.parametrize("argv, message", [
        ("--theta 1 --format dot table", "table does not read --theta"),  # an unread flag first,
        ("--format dot table", "table needs --height"),  # then a missing required flag,
        ("--height -1 --format dot table", "table supports --format json|csv|text"),  # then --format,
        ("--levi 7 strata local", "Levi vertex 7 is out of range for rank 2"),  # then the library's checks
        ("--levi 0 --format csv strata local", "strata local supports --format json|text"),
    ], ids=["unread-flag", "missing-flag", "format", "library", "format-before-theta"])
    def test_first_refusal_is_named(self, capsys, argv, message):
        assert run(capsys, "--type", "A", "--rank", "2", *argv.split()) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_help_names_the_commands_that_read_each_flag(self):
        import bernasym.cli as cli

        for action in cli.build_parser()._actions:
            readers = [name for name, (_, flags, _) in cli.COMMANDS.items() if action.dest in flags]
            named = action.help.rpartition(" (")[2].rstrip(")").split(", ") if action.help else []
            assert named == readers if readers else not set(named) & set(cli.COMMANDS), action.dest

    def test_config_field_is_a_flag_like_any_other(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("type=A rank=1 height=1 method=all\n")
        assert run(capsys, "--config", str(cfg), "table") == (EXIT_USAGE, "", "error: table does not read --method\n")


class TestCountCacheEnv:
    def test_cache_file_created_and_reused(self, capsys, tmp_path, monkeypatch):
        # the table counts by one region DP, not count_partitions, so the memo holds only the count made here
        monkeypatch.setenv("BERNASYM_CACHE_DIR", str(tmp_path))
        count_cache_clear()
        assert count_partitions(root_system("A", 2), (2, 1)) == 2
        record = [[[2, -1], [-1, 2]], [0, 1], "A2", [2, 1], 2]
        argv = ("--type", "A", "--rank", "2", "--height", "2", "table")
        code, first, _ = run(capsys, *argv)
        assert code == EXIT_OK
        cache = tmp_path / "kostant_counts.json"
        assert json.loads(cache.read_text()) == [record]
        count_cache_clear()
        code, second, _ = run(capsys, *argv)
        assert (code, second) == (EXIT_OK, first)
        assert json.loads(cache.read_text()) == [record]  # reloaded: an empty memo would have saved []

    def test_stale_cache_ignored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BERNASYM_CACHE_DIR", str(tmp_path))
        (tmp_path / "kostant_counts.json").write_text("not json at all")
        code, _, _ = run(capsys, "--type", "A", "--rank", "1", "--height", "1", "table")
        assert code == EXIT_OK

    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_unusable_cache_directory_ignored(self, capsys, tmp_path, monkeypatch, where):
        argv = ("--type", "A", "--rank", "1", "--height", "1", "table")
        code, expected, _ = run(capsys, *argv)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("BERNASYM_CACHE_DIR", str(blocker if where == "file" else blocker / "cache"))
        assert run(capsys, *argv) == (EXIT_OK, expected, "")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "records",
        [[1], [[[[2, -2], [-2, 2]], [0, 1], "affine", [1, 1], 3]]],
        ids=["not-a-record", "affine-matrix"],
    )
    def test_bad_cache_file_ignored(self, capsys, tmp_path, monkeypatch, records):
        monkeypatch.setenv("BERNASYM_CACHE_DIR", str(tmp_path))
        (tmp_path / "kostant_counts.json").write_text(json.dumps(records))
        code, out, _ = run(capsys, "--type", "A", "--rank", "1", "--height", "1", "table")
        assert code == EXIT_OK
        assert len(json.loads(out)["entries"]) == 2


class TestReadme:
    def test_command_block_found(self):
        assert len(readme_command_lines()) == 7

    @pytest.mark.parametrize("line", readme_command_lines())
    def test_command_line_runs(self, capsys, monkeypatch, line):
        # split as a shell would, dropping the trailing "# comment", and run in process
        monkeypatch.delenv("BERNASYM_CACHE_DIR", raising=False)
        argv = shlex.split(line, comments=True)
        assert argv[0] == "bernasym"
        code, out, err = run(capsys, *argv[1:])
        assert code == EXIT_OK, err
        assert out
        if argv[-1] == "divisor":
            assert out == line.partition(" #")[2].strip() + "\n" == "1 - 2q + q^2\n"  # the comment's promise


def modules_added_by(statement: str) -> set[str]:
    """The modules that ``statement`` adds to ``sys.modules`` in a fresh interpreter.

    Fresh, so that modules earlier tests imported do not hide a new import; ``-S``, so that no ``.pth`` hook of
    site loads a module first and hides it either.
    """
    code = f"import sys; before = set(sys.modules); {statement}; print(' '.join(sorted(set(sys.modules) - before)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(result.stdout.split())


LIBRARY_MODULES = {f"bernasym.{name}" for name in ("asymptotics", "cartan", "kostant", "qlaurent", "strata")}


class TestStartup:
    def test_import_loads_no_heavy_stdlib_modules(self):
        added = modules_added_by("import bernasym.cli")
        assert "bernasym.cli" in added
        assert added.isdisjoint({"dataclasses", "fractions", "decimal", "inspect", "csv", "pathlib", "tempfile",
                                 "random"})

    @pytest.mark.parametrize("statement, loaded", [
        ("import bernasym", set()),  # a submodule is imported when one of its public names is first read
        ("import bernasym.strata", {"bernasym.cartan", "bernasym.strata"}),
        # the cli imports every library module at its top, where the traced benchmark pass reads them
        ("import bernasym.cli", {"bernasym.cli", *LIBRARY_MODULES}),
    ], ids=["package", "strata", "cli"])
    def test_import_footprint(self, statement, loaded):
        assert {name for name in modules_added_by(statement) if name.startswith("bernasym")} == {"bernasym", *loaded}

    def test_dir_lists_every_public_name_before_its_module_is_imported(self):
        statement = "import bernasym; assert set(bernasym.__all__) <= set(dir(bernasym)), dir(bernasym)"
        assert {name for name in modules_added_by(statement) if name.startswith("bernasym")} == {"bernasym"}


def run_process_entry(argv, patch="pass", after="pass"):
    """``cli.run()`` in a fresh interpreter with ``sys.argv = ["bernasym", *argv]``: the CompletedProcess.

    ``patch`` runs before ``run()``; ``after`` runs once it has raised SystemExit, with the exception as ``exc``.
    """
    code = (
        "import gc, sys\n"
        "from bernasym import cli\n"
        "from bernasym.qlaurent import LaurentPoly\n"
        f"{patch}\n"
        "sys.argv[0] = 'bernasym'\n"
        "try:\n"
        "    cli.run()\n"
        "except SystemExit as exc:\n"
        f"    {after}\n"
        "    raise\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "BERNASYM_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, timeout=60)


class TestProcessEntry:
    """``cli.run()`` is ``main()`` plus a heap freeze before exit; ``main`` itself never freezes."""

    def test_run_freezes_the_heap_and_exits_with_mains_code(self):
        report = "sys.stderr.write(f'exit={exc.code} frozen={gc.get_freeze_count()}\\n')"
        result = run_process_entry(["--type", "A", "--rank", "2", "--height", "3", "table"],
                                   patch="assert gc.get_freeze_count() == 0", after=report)
        assert result.returncode == EXIT_OK
        assert json.loads(result.stdout)["entries"]
        exit_code, frozen = result.stderr.decode().split()
        assert exit_code == f"exit={EXIT_OK}"
        assert int(frozen.removeprefix("frozen=")) > 0

    @pytest.mark.parametrize("argv, oracle_patched, expected", [
        ("--type A --rank 2 --height 3 table", False, EXIT_OK),
        ("--type A --rank 1 table", False, EXIT_USAGE),
        ("--type A --rank 1 --height 1 table", True, EXIT_VERIFY),
    ], ids=["table", "refusal", "verification-failure"])
    def test_main_leaves_the_freeze_count_unchanged(self, capsys, monkeypatch, argv, oracle_patched, expected):
        import bernasym.asymptotics as mod
        from bernasym.qlaurent import LaurentPoly

        if oracle_patched:
            monkeypatch.setattr(mod, "trace_grothendieck_oracle", lambda rs, theta: LaurentPoly({9: 9}))
        before = gc.get_freeze_count()
        assert run(capsys, *argv.split())[0] == expected
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, oracle_patched, expected", [
        ("--type B --rank 2 --height 4 table", False, EXIT_OK),
        ("--type B --rank 2 --theta 1,2 --method all trace", False, EXIT_OK),
        ("--type A --rank 1 table", False, EXIT_USAGE),
        ("--type A --rank 1 --theta 2 --method all trace", True, EXIT_VERIFY),
    ], ids=["verified-table", "trace-all", "refusal", "route-disagreement"])
    def test_run_prints_the_bytes_of_main(self, capsys, monkeypatch, argv, oracle_patched, expected):
        import bernasym.cli as cli
        from bernasym.qlaurent import LaurentPoly

        monkeypatch.delenv("BERNASYM_CACHE_DIR", raising=False)
        if oracle_patched:
            monkeypatch.setattr(cli, "trace_grothendieck_oracle", lambda rs, theta: LaurentPoly({9: 9}))
        code, out, err = run(capsys, *argv.split())
        assert code == expected
        assert out or err
        patch = "cli.trace_grothendieck_oracle = lambda rs, theta: LaurentPoly({9: 9})" if oracle_patched else "pass"
        result = run_process_entry(argv.split(), patch=patch)
        assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), err.encode())
