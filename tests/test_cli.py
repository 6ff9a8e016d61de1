import json
import subprocess
import sys

import pytest

from fermat_hodge import cli
from fermat_hodge.cache import ResultCache
from fermat_hodge.cli import build_parser, main
from fermat_hodge.errors import MembershipError


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestBasisCommand:
    def test_m4(self, capsys, tmp_path):
        code, out = run_cli(["basis", "--m", "4", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert out.splitlines() == [
            "m=4 algorithm=completion complete=true max_level=1 elements=2",
            "0,2,0;1",
            "1,0,1;1",
        ]

    def test_m21_has_level_three(self, capsys, tmp_path):
        code, out = run_cli(["basis", "--m", "21", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "max_level=3" in out.splitlines()[0]

    def test_invalid_modulus_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(["basis", "--m", "1", "--cache-dir", str(tmp_path)], capsys)
        assert code == 2

    def test_json_format(self, capsys, tmp_path):
        code, out = run_cli(
            ["basis", "--m", "5", "--format", "json", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["elements"] == ["0,1,1,0;1", "1,0,0,1;1"]

    def test_budget_truncation_exit_code(self, capsys, tmp_path):
        code, out = run_cli(
            [
                "basis", "--m", "30", "--max-seconds", "0.3",
                "--cache-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 3
        assert "complete=false" in out


class TestPhiCommands:
    def test_phi(self, capsys, tmp_path):
        code, out = run_cli(["phi", "--m", "9", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert out.strip() == "phi(9) = 2 complete=true"

    def test_phi_table_csv(self, capsys, tmp_path):
        code, out = run_cli(
            ["phi-table", "--from", "2", "--to", "8", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == [
            "m,phi,complete",
            "2,1,true",
            "3,1,true",
            "4,1,true",
            "5,1,true",
            "6,3,true",
            "7,1,true",
            "8,3,true",
        ]

    def test_phi_table_bad_range(self, capsys, tmp_path):
        code, _ = run_cli(
            ["phi-table", "--from", "9", "--to", "5", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2


class TestCheckCommand:
    def test_m13_vacuous_true(self, capsys, tmp_path):
        code, out = run_cli(["check", "--m", "13", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "verdict=true" in out and "checked=0" in out

    def test_m33_n4_prints_failing_vector(self, capsys, tmp_path):
        code, out = run_cli(
            ["check", "--m", "33", "--n", "4", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 0  # a false condition is still a successful computation
        assert "verdict=false" in out
        assert (
            "FAIL 0,0,0,0,0,0,1,0,0,1,0,0,1,0,0,0,0,0,1,0,0,1,0,0,0,0,0,1,0,0,0,0;3"
            in out
        )

    def test_m21_exclude_standard(self, capsys, tmp_path):
        code, out = run_cli(
            ["check", "--m", "21", "--exclude-standard", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "verdict=true" in out


    def test_truncated_check_is_flagged_and_not_cached(self, capsys, tmp_path):
        argv = ["check", "--m", "33", "--n", "4", "--exclude-standard",
                "--cache-dir", str(tmp_path)]
        code, out = run_cli(argv + ["--max-candidates", "100"], capsys)
        assert code == 3
        assert "complete=false" in out
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert "verdict=false complete=true" in out
        assert (
            "FAIL 0,0,0,0,0,0,1,0,0,1,0,0,1,0,0,0,0,0,1,0,0,1,0,0,0,0,0,1,0,0,0,0;3"
            in out
        )


class TestScanCommand:
    def test_coprime_range(self, capsys, tmp_path):
        code, out = run_cli(
            [
                "scan-fourfolds", "--from", "5", "--to", "19",
                "--coprime-to", "6", "--cache-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "summary: 6 degrees, all conditions hold" in out

    def test_33_detected(self, capsys, tmp_path):
        code, out = run_cli(
            ["scan-fourfolds", "--from", "33", "--to", "33", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "failures at [33]" in out

    def test_truncated_scan_exits_incomplete(self, capsys, tmp_path):
        code, out = run_cli(
            ["scan-fourfolds", "--from", "33", "--to", "33", "--max-candidates",
             "100", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "m=33 verdict=true complete=false" in out
        assert "summary: incomplete at [33]" in out

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        cases = [
            (["--from", "5", "--to", "13", "--coprime-to", "6"], 0),
            (["--from", "28", "--to", "33", "--max-candidates", "6000"], 3),
            (["--from", "9", "--to", "5"], 2),
            (["--from", "1", "--to", "5"], 2),
        ]
        for bounds, code in cases:
            argv = ["scan-fourfolds", *bounds, "--cache-dir", str(tmp_path)]
            runs = [run_cli(argv + ["--jobs", jobs], capsys) for jobs in ("1", "2")]
            assert runs[0] == runs[1]
            assert runs[0][0] == code


class TestOtherCommands:
    def test_hodge(self, capsys, tmp_path):
        code, out = run_cli(
            ["hodge", "--m", "3", "--n", "2", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert out.splitlines() == ["m=3 n=2 labels=1", "1,1,2,2"]

    def test_verdict(self, capsys, tmp_path):
        code, out = run_cli(
            ["verdict", "--m", "25", "--n", "6", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert "status=PROVEN_PRIME_SQUARE" in out

    def test_truncated_verdict_exits_incomplete(self, capsys, tmp_path):
        code, out = run_cli(
            ["verdict", "--m", "33", "--n", "4", "--max-candidates", "100",
             "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "status=UNDETERMINED" in out and "cut short" in out

    def test_closed_failing_verdict_exits_ok(self, capsys, tmp_path):
        code, out = run_cli(
            ["verdict", "--m", "33", "--n", "4", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 0
        assert "status=UNDETERMINED" in out and "does not close" in out

    def test_newton(self, capsys, tmp_path):
        code, out = run_cli(
            ["newton", "--d", "2", "--trials", "100", "--seed", "7"], capsys
        )
        assert code == 0
        assert out.strip() == "d=2 trials=100 seed=7 passed=true"

    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--m", "12", "--n", "3"],
            ["hodge", "--m", "5", "--n", "3"],
            ["verdict", "--m", "33", "--n", "3"],
            ["newton", "--d", "0"],
            ["newton", "--trials", "0"],
        ],
    )
    def test_parser_rejects(self, argv, capsys, tmp_path):
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: argument" in captured.err

    def test_library_error_is_not_a_usage_error(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise MembershipError("raised inside the library")

        monkeypatch.setattr(cli, "check_condition", broken)
        with pytest.raises(MembershipError):
            main(["check", "--m", "12", "--cache-dir", str(tmp_path)])


class TestVerify33:
    def test_confirms_and_caches(self, capsys, tmp_path):
        argv = ["verify-33", "--cache-dir", str(tmp_path)]
        code1, out1 = run_cli(argv, capsys)
        assert code1 == 0
        assert out1.splitlines() == [
            "membership: confirmed",
            "indecomposable: confirmed",
            "non-standard: confirmed",
            "not-quasi-decomposable: confirmed",
        ]
        # a second run prints identical bytes
        code2, out2 = run_cli(argv, capsys)
        assert code2 == 0 and out2 == out1

    def test_writes_no_level_entry(self, capsys, tmp_path):
        argv = ["verify-33", "--cache-dir", str(tmp_path)]
        runs = [run_cli(argv, capsys) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and len(runs[0][1].splitlines()) == 4
        assert not (tmp_path / "v1" / "level").exists()

    def test_budget_overrun_exits_incomplete(self, capsys, tmp_path):
        code, out = run_cli(
            ["verify-33", "--max-candidates", "10", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "not-quasi-decomposable" not in out


class TestCacheLayouts:
    """Entries written in the layout the cache used before it stored the
    CLI's JSON (no schema_version or counts; standard_count for
    standard_set) are still served or recomputed, never a crash."""

    def test_older_report_entry_is_recomputed_and_rewritten(self, capsys, tmp_path):
        argv = ["check", "--m", "12", "--format", "json", "--cache-dir", str(tmp_path)]
        _, fresh = run_cli(argv, capsys)
        cache, name = ResultCache(tmp_path), "m12_nall_excl0"
        current = json.loads(cache._path("REPORT", name).read_text())["payload"]
        older = {k: current[k] for k in
                 ("m", "n", "exclude_standard", "outcomes", "verdict", "complete")}
        older["standard_count"] = current["standard_set"]
        cache._write("REPORT", name, 12, older)
        code, out = run_cli(argv, capsys)
        assert code == 0 and out == fresh
        assert json.loads(cache._path("REPORT", name).read_text())["payload"] == current

    def test_older_basis_entry_is_served(self, capsys, tmp_path):
        argv = ["basis", "--m", "12", "--format", "json", "--cache-dir", str(tmp_path)]
        _, fresh = run_cli(argv, capsys)
        cache = ResultCache(tmp_path)
        older = json.loads(cache._path("BASIS", "m12").read_text())["payload"]
        del older["schema_version"]
        cache._write("BASIS", "m12", 12, older)
        code, out = run_cli(argv, capsys)
        assert code == 0 and out == fresh
        assert json.loads(cache._path("BASIS", "m12").read_text())["payload"] == older


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_each_call_gets_its_own_defaults(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        code, out = run_cli(["basis", "--m", "4", "--format", "json"] + cache, capsys)
        assert code == 0 and json.loads(out)["m"] == 4
        assert main(["basis", "--m", "4", "--format", "csv"] + cache) == 2
        capsys.readouterr()
        code, out = run_cli(["basis", "--m", "4"] + cache, capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("m=4 algorithm=completion")
        check = ["check", "--m", "21", "--n", "4"] + cache
        code, out = run_cli(check + ["--exclude-standard"], capsys)
        assert code == 0
        code, plain = run_cli(check, capsys)
        assert code == 0 and plain != out
        code, out = run_cli(["hodge", "--m", "3", "--n", "2"], capsys)
        assert code == 0 and out.splitlines() == ["m=3 n=2 labels=1", "1,1,2,2"]


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        argv = ["check", "--m", "12", "--cache-dir", str(tmp_path)]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fermat_hodge", "newton", "--d", "1",
             "--trials", "10", "--seed", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "d=1 trials=10 seed=3 passed=true"
