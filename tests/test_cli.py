import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fermat_hodge import cli, cycles, hilbert
from fermat_hodge.cache import ResultCache
from fermat_hodge.cli import build_parser, main
from fermat_hodge.errors import MembershipError

from .cache_entries import forge_entry, forge_old_entry, read_entry


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

    def test_max_level_sieves_uncertified(self, capsys, tmp_path):
        code, out = run_cli(
            ["basis", "--m", "12", "--max-level", "1", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[0].startswith("m=12 algorithm=levelwise complete=false ")
        assert len(lines) == 1 + 6 and all(line.endswith(";1") for line in lines[1:])
        assert not (tmp_path / "v1").exists()

    def test_algorithm_flag_is_gone(self, capsys, tmp_path):
        argv = ["basis", "--m", "12", "--algorithm", "completion"]
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2


class TestPhiCommands:
    def test_phi(self, capsys, tmp_path):
        code, out = run_cli(["phi", "--m", "9", "--cache-dir", str(tmp_path)], capsys)
        assert code == 0
        assert out.strip() == "phi(9) = 2 complete=true"

    def test_spent_time_budget_reports_level_one(self, capsys, tmp_path):
        code, out = run_cli(
            ["phi", "--m", "30", "--max-seconds", "0", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        match = re.fullmatch(r"phi\(30\) >= (\d+) complete=false", out.strip())
        assert match and int(match[1]) >= 1

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


    def test_overrun_in_the_search_exits_incomplete_uncached(
        self, capsys, tmp_path, monkeypatch, overrun_after_sieve
    ):
        monkeypatch.setattr(cli, "SearchBudget", overrun_after_sieve)
        code, out = run_cli(
            ["check", "--m", "36", "--n", "4", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 3
        assert "complete=false checked=0" in out
        assert ResultCache(tmp_path).get_report(36, 4, False) is None
        code, out = run_cli(
            ["verdict", "--m", "33", "--n", "4", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 3
        assert "status=UNDETERMINED" in out and "cut short by the budget" in out

    def test_all_levels_check_stores_its_basis(self, capsys, tmp_path, monkeypatch):
        cache = ["--cache-dir", str(tmp_path)]
        code, _ = run_cli(["check", "--m", "12"] + cache, capsys)
        assert code == 0
        assert ResultCache(tmp_path)._path("BASIS", "m12").exists()

        def no_compute(*args, **kwargs):
            raise AssertionError("basis recomputed although the check stored it")

        monkeypatch.setattr(hilbert, "hilbert_basis", no_compute)
        code, out = run_cli(["phi", "--m", "12"] + cache, capsys)
        assert code == 0 and out.strip() == "phi(12) = 5 complete=true"

    @pytest.mark.parametrize("form", [[], ["--format", "json"]])
    def test_all_levels_check_reads_a_stored_basis(
        self, form, capsys, tmp_path, monkeypatch
    ):
        argv = ["check", "--m", "12"] + form
        fresh = run_cli(argv + ["--cache-dir", str(tmp_path / "fresh")], capsys)
        cache = ["--cache-dir", str(tmp_path / "c")]
        assert run_cli(["phi", "--m", "12"] + cache, capsys)[0] == 0

        def no_compute(*args, **kwargs):
            raise AssertionError("basis recomputed although phi stored it")

        for module in (hilbert, cycles):
            monkeypatch.setattr(module, "hilbert_basis", no_compute)
        assert run_cli(argv + cache, capsys) == fresh


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

    def test_coprime_to_zero_is_a_usage_error(self, capsys, tmp_path):
        # gcd(m, 0) = m selects no degree, which used to print a vacuous success
        code, out = run_cli(
            ["scan-fourfolds", "--from", "10", "--to", "12", "--coprime-to", "0",
             "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "all conditions hold" not in out

    def test_empty_selection_is_a_usage_error(self, capsys, tmp_path):
        # no degree of 10..10 is coprime to 5; this used to print a vacuous success
        code = main(["scan-fourfolds", "--from", "10", "--to", "10", "--coprime-to", "5",
                     "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "no degree in 10..10 is coprime to 5" in captured.err

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

    @pytest.mark.parametrize(
        "bounds,code,summary",
        [
            (["--from", "5", "--to", "13", "--coprime-to", "6"], 0,
             ["summary: 4 degrees, all conditions hold"]),
            (["--from", "28", "--to", "33", "--max-candidates", "6000"], 3,
             ["summary: 6 degrees, no failure found among the decided elements",
              "summary: incomplete at [28, 30, 32, 33]"]),
            (["--from", "9", "--to", "5"], 2, []),
            (["--from", "1", "--to", "5"], 2, []),
        ],
        ids=["coprime-to-6", "truncated", "empty-range", "below-two"],
    )
    def test_scan_exit_code_and_summary(self, bounds, code, summary, capsys, tmp_path):
        argv = ["scan-fourfolds", *bounds, "--cache-dir", str(tmp_path)]
        got, out = run_cli(argv, capsys)
        assert got == code
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("summary:")] == summary


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


_COMMANDS = [
    "basis", "phi", "phi-table", "check", "scan-fourfolds", "hodge", "verdict",
    "verify-33", "newton",
]

_REJECTED = [
    ["check", "--m", "12", "--n", "3"],
    ["hodge", "--m", "5", "--n", "3"],
    ["verdict", "--m", "33", "--n", "3"],
    ["newton", "--d", "0"],
    ["newton", "--trials", "0"],
    ["basis", "--m", "12", "--max-level", "0"],
    ["basis", "--m", "12", "--max-level", "-3"],
    ["scan-fourfolds", "--from", "10", "--to", "12", "--coprime-to", "0"],
    ["scan-fourfolds", "--from", "10", "--to", "12", "--coprime-to", "-6"],
    ["scan-fourfolds", "--from", "10", "--to", "12", "--jobs", "2"],
    ["scan-fourfolds", "--from", "10", "--to", "12", "--jobs", "0"],
    ["verdict", "--m", "33", "--n", "4", "--max-seconds", "nan"],
    ["verdict", "--m", "33", "--n", "4", "--max-seconds", "inf"],
    ["verdict", "--m", "33", "--n", "4", "--max-seconds", "-1"],
    ["phi", "--m", "12", "--max-candidates", "-1"],
    ["phi", "--m", "12", "--max-candidates", "1.5"],
]

# argv the full parser answers with help or an error, never a request
_NOT_REQUESTS = [
    [], ["-h"], ["--help"], ["nope"], ["--cache-dir", "x", "phi", "--m", "12"],
    ["phi", "--m", "12", "extra"], ["phi", "--m", "12", "--", "x"],
    ["phi", "--", "--m", "12"], ["phi", "--m"], ["phi"],
    ["check", "--m", "12", "-h"],
] + [[command, "-h"] for command in _COMMANDS]


def _full_parse(argv, capsys):
    """Exit code, stdout and stderr of the full parser on argv."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", _REJECTED)
    def test_parser_rejects(self, argv, capsys, tmp_path):
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        # an unknown flag is unrecognized; every other case names its argument
        error = "unrecognized arguments: --jobs" if "--jobs" in argv else "argument"
        assert captured.out == "" and f"error: {error}" in captured.err

    @pytest.mark.parametrize("argv", _REJECTED + _NOT_REQUESTS)
    def test_messages_match_the_full_parser(self, argv, capsys, tmp_path):
        if argv in _REJECTED:
            argv = argv + ["--cache-dir", str(tmp_path)]
        expected = _full_parse(argv, capsys)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected

    def test_unknown_flag_is_reported_under_the_top_level_usage(self, capsys, tmp_path):
        argv = ["scan-fourfolds", "--from", "10", "--to", "12", "--jobs", "2"]
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fermat-hodge [-h]\n")
        assert err.endswith("error: unrecognized arguments: --jobs 2\n")

    @pytest.mark.parametrize("command", [["hodge", "--m", "33", "--n", "4"], ["newton"]])
    @pytest.mark.parametrize("flag", [["--max-candidates", "1"], ["--max-seconds", "0"]])
    def test_unbudgeted_commands_take_no_budget(self, command, flag, capsys, tmp_path):
        assert main(command + flag + ["--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: unrecognized arguments" in captured.err

    def test_library_error_is_not_a_usage_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cycles, "_all_levels_report", _broken)
        with pytest.raises(MembershipError):
            main(["check", "--m", "12", "--cache-dir", str(tmp_path)])

    def test_library_error_in_a_level_range_is_not_a_usage_error(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(cycles, "check_condition", _broken)
        with pytest.raises(MembershipError):
            main(["check", "--m", "12", "--n", "4", "--cache-dir", str(tmp_path)])


def _broken(*args, **kwargs):
    raise MembershipError("raised inside the library")


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

    @pytest.mark.parametrize("cap", [48, 55, 70])
    def test_quasi_search_honours_the_cap(self, cap, capsys, tmp_path):
        # the 15-candidate decomposability check fits under these caps; it
        # and the 56-cell quasi search spend one meter, 71 in all
        code, out = run_cli(
            ["verify-33", "--max-candidates", str(cap), "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert out.splitlines() == [
            "membership: confirmed",
            "indecomposable: confirmed",
            "non-standard: confirmed",
        ]

    def test_cap_of_the_whole_request_is_enough(self, capsys, tmp_path):
        code, out = run_cli(
            ["verify-33", "--max-candidates", "71", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0 and out.count(": confirmed\n") == 4

    def test_a_non_member_fails_without_a_search(self, capsys, monkeypatch, tmp_path):
        def no_search(*args, **kwargs):
            raise AssertionError("searched a non-member")

        monkeypatch.setattr(cycles, "COUNTEREXAMPLE_33", cycles.MonoidVector((1,) + (0,) * 31, 1))
        monkeypatch.setattr(hilbert, "is_decomposable", no_search)
        monkeypatch.setattr(cycles, "is_quasi_decomposable", no_search)
        code, out = run_cli(["verify-33", "--cache-dir", str(tmp_path)], capsys)
        assert code == 1
        assert out.splitlines() == [
            "membership: FAILED",
            "indecomposable: FAILED",
            "non-standard: confirmed",
            "not-quasi-decomposable: FAILED",
        ]


_BASIS_12 = ("BASIS", "m12", lambda cache: cache.get_basis(12, parse=True))
_REPORT_12 = (
    "REPORT", "m12_nall_excl0",
    lambda cache: cache.get_report(12, None, False, parse=True),
)


def _set(key, value):
    return lambda fields: fields.__setitem__(key, value)


def _nothing(fields):
    pass


def _recomputes_older_entry(entry, argv, capsys, tmp_path):
    """An entry in the earlier layout is a miss: the command prints the
    cold bytes, rewrites the entry in the current layout and removes the
    earlier layout's file."""
    kind, name, get = entry
    argv = argv + ["--cache-dir", str(tmp_path)]
    _, fresh = run_cli(argv, capsys)
    cache = ResultCache(tmp_path)
    current = read_entry(cache, kind, name)
    old = forge_old_entry(cache, kind, name, 12, json.loads(current[1]))
    assert get(cache) is None
    code, out = run_cli(argv, capsys)
    assert code == 0 and out == fresh
    assert read_entry(cache, kind, name) == current
    assert not old.exists()


class TestCacheLayouts:
    """Entries in the layout the cache used before it stored digests over
    its bytes, and digest-valid entries whose meta names another key or
    whose payload lacks what the text printers read, are recomputed and
    rewritten, never served and never a crash."""

    def test_older_report_entry_is_recomputed_and_rewritten(self, capsys, tmp_path):
        argv = ["check", "--m", "12", "--format", "json"]
        _recomputes_older_entry(_REPORT_12, argv, capsys, tmp_path)

    def test_older_basis_entry_is_recomputed_and_rewritten(self, capsys, tmp_path):
        argv = ["basis", "--m", "12", "--format", "json"]
        _recomputes_older_entry(_BASIS_12, argv, capsys, tmp_path)

    @pytest.mark.parametrize(
        "entry,argv,edit_meta,edit_payload",
        [
            (_BASIS_12, ["basis", "--m", "12", "--format", "json"],
             _set("complete", False), _set("complete", False)),
            (_BASIS_12, ["basis", "--m", "12"],
             _nothing, lambda p: p["elements"].__setitem__(0, 7)),
            (_BASIS_12, ["basis", "--m", "12"],
             _nothing, _set("elements", "0,0,0,0,0,1,0,0,0,0,0;1")),
            (_BASIS_12, ["basis", "--m", "12", "--format", "json"],
             _set("m", 13), _set("m", 13)),
            (_BASIS_12, ["phi", "--m", "12"], _set("phi", "5"), _nothing),
            (_BASIS_12, ["phi", "--m", "12"], _set("phi", True), _nothing),
            (_BASIS_12, ["phi-table", "--from", "12", "--to", "12"],
             _set("complete", 1), _nothing),
            (_REPORT_12, ["check", "--m", "12"], _nothing, lambda p: p.pop("counts")),
            (_REPORT_12, ["check", "--m", "12", "--format", "json"],
             _set("exclude_standard", True), _set("exclude_standard", True)),
        ],
        ids=["incomplete", "non-string-element", "elements-not-a-list",
             "another-degree", "phi-not-an-int", "phi-a-bool", "complete-an-int",
             "report-without-counts", "report-of-another-key"],
    )
    def test_entry_failing_the_check_is_recomputed(
        self, entry, argv, edit_meta, edit_payload, capsys, tmp_path
    ):
        kind, name, get = entry
        argv = argv + ["--cache-dir", str(tmp_path)]
        _, fresh = run_cli(argv, capsys)
        cache = ResultCache(tmp_path)
        current = read_entry(cache, kind, name)
        meta, payload = dict(current[0]), json.loads(current[1])
        edit_meta(meta)
        edit_payload(payload)
        forge_entry(cache, kind, name, meta, payload)
        assert get(cache) is None
        code, out = run_cli(argv, capsys)
        assert code == 0 and out == fresh
        assert read_entry(cache, kind, name) == current

    def test_report_the_text_form_cannot_render_is_recomputed(self, capsys, tmp_path):
        # the cache's own check passes: only rendering the outcomes fails
        kind, name, get = _REPORT_12
        argv = ["check", "--m", "12", "--cache-dir", str(tmp_path)]
        _, fresh = run_cli(argv, capsys)
        cache = ResultCache(tmp_path)
        current = read_entry(cache, kind, name)
        payload = json.loads(current[1])
        assert "QUASI" in {o["kind"] for o in payload["outcomes"]}
        for o in payload["outcomes"]:
            o.pop("witness", None)
            o.pop("provenance", None)
        forge_entry(cache, kind, name, current[0], payload)
        assert get(cache) is not None
        code, out = run_cli(argv, capsys)
        assert code == 0 and out == fresh
        assert read_entry(cache, kind, name) == current

    @pytest.mark.parametrize(
        "element",
        ["x", "1,2;3", "-1,0,0,0,0,0,0,0,0,0,0,0,1;1", "9" * 20 + ",0,0,0,0,0,0,0,0,0,0,0,1;1"],
        ids=["not-a-vector", "too-short", "negative", "past-int64"],
    )
    def test_basis_whose_elements_are_not_members_is_recomputed(
        self, element, capsys, tmp_path
    ):
        # phi caches the basis; the all-levels check misses and parses it
        argv = ["check", "--m", "14", "--cache-dir"]
        _, fresh = run_cli(argv + [str(tmp_path / "fresh")], capsys)
        cache = ResultCache(tmp_path)
        assert run_cli(["phi", "--m", "14", "--cache-dir", str(tmp_path)], capsys)[0] == 0
        current = read_entry(cache, "BASIS", "m14")
        payload = json.loads(current[1])
        payload["elements"][0] = element
        forge_entry(cache, "BASIS", "m14", current[0], payload)
        assert cache.get_basis(14, parse=True) is not None
        code, out = run_cli(argv + [str(tmp_path)], capsys)
        assert code == 0 and out == fresh
        assert read_entry(cache, "BASIS", "m14") == current


def _hot_requests(m):
    m = str(m)
    return [
        ["phi", "--m", m],
        ["phi-table", "--from", m, "--to", m],
        ["phi-table", "--from", m, "--to", m, "--format", "json"],
        ["basis", "--m", m],
        ["basis", "--m", m, "--format", "json"],
        ["check", "--m", m, "--n", "4", "--exclude-standard"],
        ["check", "--m", m, "--n", "4", "--exclude-standard", "--format", "json"],
        ["check", "--m", m],
        ["check", "--m", m, "--format", "json"],
    ]


def _raise(*args, **kwargs):
    raise AssertionError("a cache hit parsed, formatted or computed a result")


def _raise_on_encode(*args, **kwargs):
    raise AssertionError("a cache hit encoded JSON")


class TestHotReads:
    """A hit prints the stored payload: no vector is parsed or formatted."""

    @pytest.mark.parametrize("m", [12, 21])
    def test_hit_prints_the_cold_output_without_parsing(
        self, m, capsys, tmp_path, monkeypatch
    ):
        cache = ["--cache-dir", str(tmp_path)]
        cold = [run_cli(argv + cache, capsys) for argv in _hot_requests(m)]
        assert all(code == 0 for code, _ in cold)
        # the defining modules, which the call-time imports of cli and cache read
        monkeypatch.setattr("fermat_hodge.monoid.parse_vector", _raise)
        monkeypatch.setattr("fermat_hodge.monoid.format_vector", _raise)
        monkeypatch.setattr(hilbert, "hilbert_basis", _raise)
        monkeypatch.setattr(cycles, "check_condition", _raise)
        monkeypatch.setattr(cycles, "_all_levels_report", _raise)
        warm = [run_cli(argv + cache, capsys) for argv in _hot_requests(m)]
        assert warm == cold

    def test_hit_encodes_nothing(self, capsys, tmp_path, monkeypatch):
        # phi-table --format json encodes its own small table, so it is left out
        requests = [
            ["phi", "--m", "21"],
            ["phi-table", "--from", "20", "--to", "22"],
            ["basis", "--m", "21", "--format", "json"],
            ["check", "--m", "21", "--n", "4", "--exclude-standard", "--format", "json"],
        ]
        cache = ["--cache-dir", str(tmp_path)]
        cold = [run_cli(argv + cache, capsys) for argv in requests]
        assert all(code == 0 for code, _ in cold)
        monkeypatch.setattr(json, "dumps", _raise_on_encode)
        monkeypatch.setattr(json, "dump", _raise_on_encode)
        warm = [run_cli(argv + cache, capsys) for argv in requests]
        assert warm == cold


# Runs the requests of argv[1] (JSON) through cli.main in this fresh
# interpreter; prints their exit codes and outputs, and which of the
# modules named in argv[2] (JSON) the interpreter holds afterwards.
_FRESH_PROCESS = """
import contextlib, io, json, sys
from fermat_hodge.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps([results, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))
"""
_COMPUTING = ["numpy", "fermat_hodge.monoid", "fermat_hodge.hilbert",
              "fermat_hodge.cycles", "fermat_hodge.characters"]
# the package's root, on the path also of an interpreter run without site
_PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def _in_fresh_process(requests, *flags, watch=_COMPUTING):
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FRESH_PROCESS, json.dumps(requests),
         json.dumps(watch)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    results, loaded = json.loads(proc.stdout)
    return [tuple(r) for r in results], loaded


class TestFreshProcess:
    """A hit in a fresh interpreter imports no computing module and no numpy."""

    def test_hits_print_the_cold_output_and_load_no_numpy(self, capsys, tmp_path):
        requests = [argv + ["--cache-dir", str(tmp_path)] for argv in _hot_requests(12)]
        cold = [run_cli(argv, capsys) for argv in requests]
        assert all(code == 0 for code, _ in cold)
        hot, loaded = _in_fresh_process(requests)
        assert hot == cold
        assert loaded == []

    def test_a_miss_computes_writes_and_exits_as_before(self, capsys, tmp_path):
        requests = [
            ["phi", "--m", "12"],
            ["check", "--m", "12", "--n", "4", "--exclude-standard"],
        ]
        cold = [run_cli(argv + ["--cache-dir", str(tmp_path / "c")], capsys) for argv in requests]
        fresh = tmp_path / "fresh"
        got, loaded = _in_fresh_process(
            [argv + ["--cache-dir", str(fresh)] for argv in requests]
        )
        assert got == cold and [code for code, _ in got] == [0, 0]
        assert "numpy" in loaded and "fermat_hodge.cycles" in loaded
        cache = ResultCache(fresh)
        assert cache.get_basis(12) is not None
        assert cache.get_report(12, 4, True) is not None

    def test_a_hit_loads_no_tempfile(self, capsys, tmp_path):
        # without site, whose start-up hooks may import tempfile themselves
        argv = ["check", "--m", "12", "--n", "4", "--exclude-standard",
                "--cache-dir", str(tmp_path)]
        cold = run_cli(argv, capsys)
        assert cold[0] == 0
        hot, loaded = _in_fresh_process([argv], "-S", watch=["tempfile", *_COMPUTING])
        assert hot == [cold] and loaded == []

    def test_hits_load_no_dataclasses_or_inspect(self, capsys, tmp_path):
        # the meter and the cache entry of a hit are plain classes
        requests = [argv + ["--cache-dir", str(tmp_path)] for argv in _hot_requests(12)]
        cold = [run_cli(argv, capsys) for argv in requests]
        hot, loaded = _in_fresh_process(requests, "-S", watch=["dataclasses", "inspect"])
        assert hot == cold and loaded == []


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["phi", "--m", "12"],
            ["check", "--m", "21", "--n", "4", "--exclude-standard", "--format", "json"],
            ["newton", "--d", "2"],
            ["verify-33"],
        ],
    )
    def test_request_gets_the_full_parsers_namespace(self, argv, tmp_path):
        argv = argv + ["--cache-dir", str(tmp_path)]
        expected = vars(build_parser().parse_args(argv))
        sub = cli._parsers()[1][argv[0]]
        func = expected.pop("func")
        assert sub.get_default("func") is func
        seen = []
        sub.set_defaults(func=lambda args: seen.append(vars(args)) or 0)
        try:
            assert main(argv) == 0
        finally:
            sub.set_defaults(func=func)
        seen[0].pop("func")
        assert seen == [expected] and expected["command"] == argv[0]


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

    def test_main_reads_sys_argv(self, capsys, monkeypatch, tmp_path):
        argv = ["fermat-hodge", "phi", "--m", "9", "--cache-dir", str(tmp_path)]
        monkeypatch.setattr(sys, "argv", argv)
        code, out = run_cli(None, capsys)
        assert code == 0 and out.strip() == "phi(9) = 2 complete=true"
        monkeypatch.setattr(sys, "argv", ["fermat-hodge", "phi", "--m", "1"])
        assert main() == 2
        assert "error: argument --m: degree must be >= 2" in capsys.readouterr().err

    def test_cli_import_loads_no_multiprocessing(self):
        # every command runs in the one process that parsed it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, fermat_hodge.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
