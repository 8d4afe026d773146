"""End-to-end CLI tests: flags, output schema, exit codes, determinism."""

import errno
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
from rigchar.cli import (
    _CHECKS,
    _COMMANDS,
    _json_chunks,
    _json_text,
    _Rows,
    _run_character,
    parse_enum_document,
)
from rigchar.core import Params, Report

DATA = Path(__file__).parent / "data"
WORKLOADS = Path(__file__).parent.parent / "bench" / "workloads.json"
README = Path(__file__).parent.parent / "README.md"


def pythonpath_env(path):
    """The environment with PYTHONPATH replaced by path, a mutated copy."""
    return {**os.environ, "PYTHONPATH": str(path)}


def entry_under(method):
    """The command that runs rigchar's console entry on its arguments, its
    worker processes started by the given multiprocessing start method."""
    script = (
        "import multiprocessing, sys\n"
        "from rigchar.cli import console_entry\n"
        "if __name__ == '__main__':\n"
        f"    multiprocessing.set_start_method({method!r})\n"
        "    console_entry(sys.argv[1:])\n"
    )
    return [sys.executable, "-c", script]


def run_under(method, argv, path):
    """Run rigchar with argv from the copy at path, its worker processes
    started by the given multiprocessing start method."""
    return subprocess.run(
        [*entry_under(method), *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=pythonpath_env(path),
    )


def group_states(pgid: int) -> set[str]:
    """The states (R, S, Z, ...) of the processes in process group pgid,
    read from /proc."""
    states = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # the process is gone
            continue
        if int(fields[2]) == pgid:
            states.add(fields[0])
    return states


def run_cli(*args, expect: int = 0, path=None):
    """Run rigchar, from the copy at path if one is given."""
    proc = subprocess.run(
        [sys.executable, "-m", "rigchar", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=None if path is None else pythonpath_env(path),
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


JOBS = ("1", "2")


def each_jobs(argv):
    """argv at each worker count of JOBS if it runs verify, else argv alone:
    a verify test that does not pin --jobs runs in-process and on workers."""
    if argv[0] != "verify":
        return [argv]
    return [[*argv, "--jobs", jobs] for jobs in JOBS]


def verify_at_each_jobs(*args, expect: int = 0, path=None):
    """Run rigchar verify with args at each worker count of JOBS; every run
    must exit with expect and write the same stdout.  Returns the last."""
    procs = [run_cli(*argv, expect=expect, path=path) for argv in each_jobs(["verify", *args])]
    assert len({proc.stdout for proc in procs}) == 1
    return procs[-1]


class TestEnum:
    def test_k1_all_ones_golden(self):
        proc = run_cli(
            "enum", "--k", "1", "--l1", "1", "--l2", "1", "--l3", "1",
            "--M", "1", "--N", "1",
        )
        assert proc.stdout == (DATA / "enum_k1_all_ones.json").read_text()
        doc = json.loads(proc.stdout)
        counts = {(p["m"], p["n"]): p["count"] for p in doc["pieces"]}
        assert counts == {(0, 0): 1, (1, 1): 1}

    def test_initial_condition_single_element(self):
        proc = run_cli(
            "enum", "--k", "2", "--l1", "2", "--l2", "2", "--l3", "0",
            "--M", "0", "--N", "0",
        )
        doc = json.loads(proc.stdout)
        assert len(doc["pieces"]) == 1
        piece = doc["pieces"][0]
        assert (piece["m"], piece["n"], piece["count"]) == (0, 0, 1)

    def test_empty_output_still_succeeds(self):
        proc = run_cli(
            "enum", "--k", "1", "--l1", "0", "--l2", "0", "--l3", "0",
            "--M", "0", "--N", "0",
        )
        assert json.loads(proc.stdout)["pieces"] == []

    def test_round_trips_through_parser(self, capsys):
        from rigchar import cli

        p = Params(2, 2, 1, 1, 1, 1)
        assert cli.main("enum --k 2 --l1 2 --l2 1 --l3 1 --M 1 --N 1".split()) == 0
        q, pieces = parse_enum_document(json.loads(capsys.readouterr().out))
        assert q == p
        assert pieces
        from rigchar.riggedsets import enumerate_R

        for (m, n), elems in pieces.items():
            assert tuple(elems) == enumerate_R(p, m, n)

    def test_invalid_labels_exit_2(self):
        run_cli(
            "enum", "--k", "1", "--l1", "2", "--l2", "0", "--l3", "0",
            "--M", "0", "--N", "0", expect=2,
        )

    def test_text_format(self):
        proc = run_cli(
            "enum", "--k", "1", "--l1", "1", "--l2", "1", "--l3", "1",
            "--M", "1", "--N", "1", "--format", "text",
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "piece m=0 n=0 count=1"
        assert lines[2] == "piece m=1 n=1 count=1"
        assert "degree=1" in lines[3]
        # Multiplicities and rigging rows print in list notation.
        assert lines[1] == "  mu=[0] r=[[]] nu=[0] s=[[]] degree=0"
        assert lines[3] == "  mu=[1] r=[[0]] nu=[1] s=[[0]] degree=1"


class TestChar:
    def test_text_golden(self):
        proc = run_cli(
            "char", "--k", "1", "--l1", "1", "--l2", "1", "--M", "1", "--N", "1",
            "--format", "text",
        )
        assert proc.stdout == (DATA / "char_k1_l1_1_l2_1_M1_N1.txt").read_text()

    def test_k2_golden(self):
        proc = run_cli(
            "char", "--k", "2", "--l1", "2", "--l2", "1", "--M", "1", "--N", "1",
            "--format", "text",
        )
        assert proc.stdout == (DATA / "char_k2_l1_2_l2_1_M1_N1.txt").read_text()

    def test_k3_golden(self):
        proc = run_cli(
            "char", "--k", "3", "--l1", "2", "--l2", "3", "--M", "1", "--N", "1",
            "--format", "text",
        )
        assert proc.stdout == (DATA / "char_k3_l1_2_l2_3_M1_N1.txt").read_text()

    def test_rejects_l3_flag(self):
        run_cli(
            "char", "--k", "1", "--l1", "1", "--l2", "1", "--l3", "1",
            "--M", "1", "--N", "1", expect=2,
        )

    def test_bruteforce_with_min_l3_matches_char(self):
        closed = run_cli(
            "char", "--k", "2", "--l1", "1", "--l2", "2", "--M", "1", "--N", "1",
            "--format", "text",
        )
        brute = run_cli(
            "char-bruteforce", "--k", "2", "--l1", "1", "--l2", "2", "--l3", "1",
            "--M", "1", "--N", "1", "--format", "text",
        )
        assert closed.stdout == brute.stdout

    def test_bruteforce_golden_with_strict_l3(self):
        proc = run_cli(
            "char-bruteforce", "--k", "2", "--l1", "2", "--l2", "1", "--l3", "0",
            "--M", "1", "--N", "1", "--format", "text",
        )
        assert proc.stdout == (
            DATA / "charbf_k2_l1_2_l2_1_l3_0_M1_N1.txt"
        ).read_text()

    def test_k2_json_golden(self):
        proc = run_cli("char", "--k", "2", "--l1", "2", "--l2", "1", "--M", "1", "--N", "1")
        assert proc.stdout == (DATA / "char_k2_l1_2_l2_1_M1_N1.json").read_text()

    def test_json_terms(self):
        proc = run_cli(
            "char", "--k", "1", "--l1", "1", "--l2", "1", "--M", "1", "--N", "1",
        )
        doc = json.loads(proc.stdout)
        assert doc["terms"] == [
            {"z1": 0, "z2": 0, "q": 0, "coeff": 1},
            {"z1": 1, "z2": 1, "q": 1, "coeff": 1},
        ]


class TestSl2Char:
    def test_golden_value(self):
        proc = run_cli(
            "sl2-char", "--k", "1", "--l", "0", "--M", "0", "--N", "0",
            "--format", "text",
        )
        assert proc.stdout == (DATA / "sl2_k1_l0_M0_N0.txt").read_text()
        poly = proc.stdout.strip()
        assert poly == "1"

    def test_k2_golden(self):
        proc = run_cli(
            "sl2-char", "--k", "2", "--l", "1", "--M", "1", "--N", "1",
            "--format", "text",
        )
        assert proc.stdout == (DATA / "sl2_k2_l1_M1_N1.txt").read_text()

    def test_k2_json_golden(self):
        proc = run_cli("sl2-char", "--k", "2", "--l", "1", "--M", "1", "--N", "1")
        assert proc.stdout == (DATA / "sl2_k2_l1_M1_N1.json").read_text()


def test_character_head_is_command_and_flags(capsys):
    """The JSON document of each character row, without its terms and
    text, is the command's name and its integer flags with their values."""
    from rigchar import cli

    # Values that differ within every command, so a swapped pair shows.
    values = {"k": 3, "l1": 2, "l2": 1, "l3": 0, "l": 2, "M": 1, "N": 4}
    rows = [
        (name, flags.split())
        for name, _, flags, run in _COMMANDS
        if getattr(run, "func", None) is _run_character
    ]
    assert [name for name, _ in rows] == ["char", "char-bruteforce", "sl2-char"]
    for name, flags in rows:
        head = {flag: values[flag] for flag in flags}
        argv = [name]
        for flag, value in head.items():
            argv += [f"--{flag}", str(value)]
        assert cli.main(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"terms", "text"}
        del doc["terms"], doc["text"]
        assert doc == {"command": name, **head}


def test_commands_take_no_polynomial_product(monkeypatch, capsys):
    """The program changes a character only through LaurentPoly.mapped: with
    __mul__ raising, and the Gaussian memos emptied so that q-Pascal runs,
    each command that builds a character still exits 0 with its stdout."""
    from rigchar import characters, cli

    monkeypatch.setattr(characters.LaurentPoly, "__mul__", raising(AssertionError("__mul__")))
    monkeypatch.setattr(characters, "_GAUSS_CACHE", {})
    characters._packed_gauss.cache_clear()
    grid = {"max_M": 1, "max_N": 1, "max_k": 2}
    flags = ["--max-k", "2", "--max-M", "1", "--max-N", "1", "--jobs", "1"]
    cases = [
        (
            ["char", "--k", "2", "--l1", "2", "--l2", "1", "--M", "1", "--N", "1"],
            (DATA / "char_k2_l1_2_l2_1_M1_N1.json").read_text(),
        ),
        (
            ["sl2-char", "--k", "2", "--l", "1", "--M", "1", "--N", "1"],
            (DATA / "sl2_k2_l1_M1_N1.json").read_text(),
        ),
    ] + [
        (
            ["verify", check, *flags],
            json.dumps(
                {"check": check, "command": "verify", "grid": grid, "points": points,
                 "status": "pass"},
                indent=2,
            ) + "\n",
        )
        for check, points in (("char-recursion", 38), ("fermionic", 52))
    ]
    for argv, stdout in cases:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == stdout


# Grids on which each check reports the tau+1 mutant's counterexample.
# The cheap grid misses it for upper-decomp, hence the larger one there.
FAILURE_GRIDS = [
    (what, "--max-k 2 --max-weight 2 --max-M 1 --max-N 1")
    for what in ("recursion", "lower-decomp", "bijection")
] + [
    ("upper-decomp", "--max-k 3 --max-weight 2 --max-M 2 --max-N 2"),
    ("fermionic", "--max-k 2 --max-M 1 --max-N 1"),
    ("char-recursion", "--max-k 2 --max-M 1 --max-N 1"),
]


class TestVerify:
    def test_recursion_small_grid_passes(self):
        proc = verify_at_each_jobs(
            "recursion", "--max-k", "2", "--max-weight", "3", "--max-M", "1", "--max-N", "1",
        )
        doc = json.loads(proc.stdout)
        assert doc["status"] == "pass"
        assert doc["points"] > 0

    def test_fermionic_small_grid_passes(self):
        proc = verify_at_each_jobs("fermionic", "--max-k", "2", "--max-M", "1", "--max-N", "1")
        assert json.loads(proc.stdout)["status"] == "pass"

    def test_missing_weight_bound_exit_2(self):
        run_cli(
            "verify", "recursion", "--max-k", "1", "--max-M", "1", "--max-N", "1",
            expect=2,
        )

    @pytest.mark.parametrize("what", ["fermionic", "char-recursion"])
    def test_unread_weight_bound_exit_2(self, what, capsys):
        from rigchar import cli

        argv = ["verify", what, "--max-k", "1", "--max-M", "0", "--max-N", "1",
                "--max-weight", "5"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"verify {what} does not take --max-weight" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["recursion", "--max-k", "3", "--max-weight", "4", "--max-M", "2",
             "--max-N", "0"],
            ["lower-decomp", "--max-k", "2", "--max-weight", "-1", "--max-M", "1",
             "--max-N", "1"],
            ["bijection", "--max-k", "0", "--max-weight", "1", "--max-M", "1",
             "--max-N", "1"],
            ["recursion", "--max-k", "2", "--max-weight", "1", "--max-M", "-1",
             "--max-N", "1"],
            # N = 0..-2 has -1 values by subtraction, and a product of such
            # counts would be a negative, nonzero number of points.
            ["lower-decomp", "--max-k", "2", "--max-weight", "1", "--max-M", "1",
             "--max-N", "-2"],
        ],
        ids=["no-N", "no-weight", "no-k", "no-M", "negative-N"],
    )
    def test_empty_grid_exit_2(self, argv, capsys):
        from rigchar import cli

        assert cli.main(["verify", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"verify {argv[0]} has no grid points" in err

    def test_unknown_check_exit_2(self):
        run_cli(
            "verify", "nonsense", "--max-k", "1", "--max-M", "1", "--max-N", "1",
            expect=2,
        )

    def test_corrupted_tau_yields_counterexample(self, tau_plus_one):
        proc = verify_at_each_jobs(
            "recursion", "--max-k", "2", "--max-weight", "3", "--max-M", "1", "--max-N", "1",
            expect=1, path=tau_plus_one,
        )
        doc = json.loads(proc.stdout)
        assert doc["status"] == "fail"
        ce = doc["counterexample"]
        assert ce["detail"]["lhs"] != ce["detail"]["rhs"]
        assert set(ce) == {"point", "detail"}
        assert set(ce["point"]) == {"k", "l1", "l2", "l3", "M", "N", "m", "n"}

    @pytest.mark.parametrize("what", ["recursion", "lower-decomp"])
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_corrupted_tau_reaches_fresh_workers(self, method, what, tau_plus_one):
        # A spawn or forkserver worker starts from a fresh import of
        # rigchar, and must import the mutated copy the parent runs.
        argv = [
            "verify", what, "--max-k", "2", "--max-weight", "2",
            "--max-M", "1", "--max-N", "1", "--jobs", "2",
        ]
        proc = run_under(method, argv, tau_plus_one)
        assert proc.returncode == 1, (proc.returncode, proc.stderr)
        assert json.loads(proc.stdout)["status"] == "fail"
        assert proc.stdout == (DATA / f"verify_fail_{what}.json").read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "--k", "1", "--l1", "1", "--l2", "1", "--M", "1", "--N", "1",
             "--jobs", "1"],
            ["char-bruteforce", "--k", "1", "--l1", "1", "--l2", "1", "--l3", "1",
             "--M", "1", "--N", "1", "--jobs", "1"],
            ["sl2-char", "--k", "1", "--l", "0", "--M", "0", "--N", "0", "--jobs", "1"],
            ["enum", "--k", "1", "--l1", "1", "--l2", "1", "--l3", "1",
             "--M", "1", "--N", "1", "--jobs", "2"],
            ["verify", "fermionic", "--max-k", "1", "--max-M", "1", "--max-N", "1",
             "--format", "text"],
            ["verify", "recursion", "--max-k", "1", "--max-weight", "0", "--max-M", "0",
             "--max-N", "1", "--inject-tau-skew", "1"],
        ],
        ids=[
            "char --jobs", "char-bruteforce --jobs", "sl2-char --jobs", "enum --jobs",
            "verify --format", "verify --inject-tau-skew",
        ],
    )
    def test_flags_that_nothing_reads_are_rejected(self, argv, capsys):
        from rigchar import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("what", ["lower-decomp", "bijection"])
    def test_corrupted_tau_fails_the_table_driven_checks(self, what, jobs, tau_plus_one):
        # The memoised bounds depend on labels only; a corrupted tau must
        # still surface through the sets they are checked against.
        proc = run_cli(
            "verify", what, "--max-k", "2", "--max-weight", "2",
            "--max-M", "1", "--max-N", "1", "--jobs", jobs,
            expect=1, path=tau_plus_one,
        )
        doc = json.loads(proc.stdout)
        assert doc["status"] == "fail"
        # The document names its check once, outside the counterexample.
        assert doc["check"] == what
        assert set(doc["counterexample"]) == {"point", "detail"}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("what, grid", FAILURE_GRIDS)
    def test_failure_report_golden(self, what, grid, jobs, tau_plus_one):
        # Each check's report under the tau+1 mutant, recorded before the
        # checks were driven from one table.
        proc = run_cli(
            "verify", what, *grid.split(), "--jobs", jobs, expect=1, path=tau_plus_one
        )
        assert proc.stdout == (DATA / f"verify_fail_{what}.json").read_text()

    def test_checks_are_looked_up_at_call_time(self, monkeypatch, capsys):
        # A wrapper installed on the verifier's module (as the benchmark
        # tracer does) must be the function the check table runs.
        from rigchar import bijection, characters, cli

        calls = {}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(bijection, "verify_lower_decomposition")
        counting(characters, "char_recursion_check")
        grid = ["--max-k", "1", "--max-M", "1", "--max-N", "1", "--jobs", "1"]
        assert cli.main(["verify", "lower-decomp", *grid, "--max-weight", "1"]) == 0
        assert cli.main(["verify", "char-recursion", *grid]) == 0
        capsys.readouterr()
        assert calls["verify_lower_decomposition"] > 0
        assert calls["char_recursion_check"] > 0

    @pytest.mark.parametrize("what", sorted(_CHECKS))
    def test_each_row_names_a_verifier_that_takes_its_grid_point(self, what):
        # The row passes a grid point through unchanged: its verifier takes
        # k, the labels, M, N and, with weights, m and n, and nothing else,
        # under the names a failure report gives them, so a reported point
        # replays as verifier(**point).
        check = _CHECKS[what]
        verifier = getattr(importlib.import_module(f"rigchar.{check.module}"), check.verifier)
        labels = check.labels(1)[0]
        width = 1 + len(labels) + 2 + 2 * check.needs_weight
        assert len(inspect.signature(verifier).parameters) == width
        names = ("k", *check.label_names.split(), "M", "N", *("m", "n")[: 2 * check.needs_weight])
        assert tuple(inspect.signature(verifier).parameters) == names
        point = (1, *labels, 0, check.first_N, *((0, 0) if check.needs_weight else ()))
        assert len(point) == width
        rep = verifier(**dict(zip(names, point)))
        assert isinstance(rep, Report) and rep.ok, (point, rep.detail)

    def test_docs_tables_match_the_check_table(self):
        """README's verify table and cli's module docstring each list the
        rows of _CHECKS in order, with their label names, first N and
        weight flag: both are hand-kept copies of the table."""
        from rigchar import cli

        expected = [
            (name, check.label_names, check.first_N, "yes" if check.needs_weight else "no")
            for name, check in _CHECKS.items()
        ]
        readme = r"^\| `([\w-]+)` \| `\(([^)]*)\)`.* \| (\d+) \| (yes|no) \|$"
        docstring = r"^    ([\w-]+) +\(([^)]*)\).* (\d+) +(yes|no)$"
        for pattern, text in ((readme, README.read_text()), (docstring, cli.__doc__)):
            rows = [
                (name, labels.replace(",", ""), int(first_N), weights)
                for name, labels, first_N, weights in re.findall(pattern, text, re.M)
            ]
            assert rows == expected

    def test_internal_error_exit_3(self, inline_workers, monkeypatch, capsys):
        # Every exception but a plain ValueError is a fault of the program,
        # whatever its type: exit 3, never 1, the code of a counterexample.
        # A verifier's crash reaches main from a block run in-process and
        # from one run on a worker alike.
        from rigchar import bijection, characters, cli

        char = ["char", "--k", "1", "--l1", "1", "--l2", "1", "--M", "1", "--N", "1"]
        two_blocks = [
            "verify", "recursion", "--max-k", "1", "--max-weight", "0",
            "--max-M", "1", "--max-N", "1",
        ]
        cases = [
            (characters, "fermionic_char", char, ArithmeticError("packed cell lost a coefficient")),
            (characters, "fermionic_char", char, KeyError((0, 1))),
            (characters, "fermionic_char", char, TypeError("unsupported operand type(s)")),
        ] + [
            (bijection, "verify_recursion", argv, IndexError("list index out of range"))
            for argv in each_jobs(two_blocks)
        ]
        for module, name, argv, exc in cases:
            monkeypatch.setattr(module, name, raising(exc))
            assert cli.main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out.count("\n") == 1
            assert json.loads(captured.out) == {
                "status": "internal-error",
                "error": type(exc).__name__,
                "message": str(exc),
            }
            assert "error:" not in captured.err
        assert len(inline_workers.started) == 2

    @staticmethod
    def reverse_rows(monkeypatch):
        # The CLI builds every rigging itself, so one that fails its own
        # validation is an internal fault, not a usage error.  The fault
        # goes in beneath _row_choices' check of the rows it makes, which
        # runs on a fresh cache.
        from functools import lru_cache

        from rigchar import riggedsets

        real = riggedsets.combinations_with_replacement

        def reversed_rows(values, count):
            return (row[::-1] for row in real(values, count))

        monkeypatch.setattr(riggedsets, "combinations_with_replacement", reversed_rows)
        fresh = lru_cache(maxsize=None)(riggedsets._row_choices.__wrapped__)
        monkeypatch.setattr(riggedsets, "_row_choices", fresh)
        monkeypatch.setattr(riggedsets, "_R_CACHE", {})
        monkeypatch.setattr(riggedsets, "_SUM_CACHE", {})

    def test_invariant_failure_exits_3(self, monkeypatch, capsys):
        from rigchar import cli

        self.reverse_rows(monkeypatch)
        code = cli.main("char-bruteforce --k 1 --l1 1 --l2 1 --l3 0 --M 4 --N 4".split())
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out) == {
            "status": "internal-error",
            "error": "InvariantError",
            "message": "rigging row (0, 1) is not weakly decreasing",
        }
        assert "error:" not in captured.err

    def test_degree_level_mismatch_exits_3(self, monkeypatch, capsys):
        # char_R hands degree_D the partitions the program built itself, so
        # a level mismatch there is an internal fault, not a usage error.
        from rigchar import characters, cli

        def mismatched(p, read):
            return {(1, 1): (((1,), (1, 0), ((0, 1),)),)}

        monkeypatch.setattr(characters, "enumerate_total", mismatched)
        code = cli.main("char-bruteforce --k 1 --l1 1 --l2 1 --l3 0 --M 1 --N 1".split())
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {
            "status": "internal-error",
            "error": "InvariantError",
            "message": "mu and nu must share a level",
        }

    def test_enum_invariant_failure_exits_3(self, monkeypatch, capsys):
        # enum walks every piece before it writes a byte, so the error
        # line is all of stdout.
        from rigchar import cli

        self.reverse_rows(monkeypatch)
        code = cli.main("enum --k 2 --l1 2 --l2 2 --l3 0 --M 5 --N 4".split())
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        assert json.loads(captured.out)["error"] == "InvariantError"
        assert "error:" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            "char-bruteforce --k 2 --l1 2 --l2 1 --l3 2 --M 1 --N 1",
            "sl2-char --k 2 --l 3 --M 1 --N 1",
        ],
        ids=["l3", "sl2 --l"],
    )
    def test_usage_errors_still_exit_2(self, argv, capsys):
        from rigchar import cli

        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_jobs_do_not_change_output(self):
        base = [
            "verify", "lower-decomp", "--max-k", "2", "--max-weight", "3",
            "--max-M", "1", "--max-N", "1",
        ]
        one = run_cli(*base, "--jobs", "1")
        many = run_cli(*base, "--jobs", "3")
        assert one.stdout == many.stdout
        doc = json.loads(one.stdout)
        assert doc["status"] == "pass"
        # One progress line per finished block, in-process and on workers;
        # the block sizes, counted from the cutoffs, add up to the points.
        points = doc["points"]
        for proc in (one, many):
            assert proc.stderr.count("progress:") == 4
            assert proc.stderr.splitlines()[-1] == f"progress: {points}/{points}"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_job_count_exits_2(self, jobs):
        proc = run_cli(
            "verify", "recursion", "--max-k", "1", "--max-weight", "0",
            "--max-M", "1", "--max-N", "1", "--jobs", jobs, expect=2,
        )
        assert proc.stdout == ""
        assert proc.stderr == f"error: --jobs must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize(
        "what", ["upper-decomp", "bijection", "char-recursion"]
    )
    def test_remaining_checks_pass(self, what):
        args = [what, "--max-k", "2", "--max-M", "1", "--max-N", "1"]
        if what != "char-recursion":
            args += ["--max-weight", "3"]
        proc = verify_at_each_jobs(*args)
        assert json.loads(proc.stdout)["status"] == "pass"

    def test_progress_stays_on_stderr(self):
        proc = verify_at_each_jobs(
            "recursion", "--max-k", "2", "--max-weight", "4", "--max-M", "1", "--max-N", "2",
        )
        assert "progress" not in proc.stdout


def raising(exc):
    """A stand-in for a function that raises exc whatever its arguments."""

    def broken(*args):
        raise exc

    return broken


@pytest.fixture
def inline_workers(monkeypatch):
    """Replace multiprocessing's Process, Pipe and connection.wait with
    stand-ins that run a worker's loop in this process each time the
    parent sends it a task, so each block is checked when it is
    dispatched.  Returns a namespace whose started lists the stand-in
    processes started, pipes the pipes made, tasks every (stop point,
    block) task the parent sent, and failing_points the point of each
    failure the workers sent back, in the order sent."""
    import multiprocessing
    import multiprocessing.connection
    from collections import deque
    from types import SimpleNamespace

    seen = SimpleNamespace(started=[], pipes=[], tasks=[], failing_points=[])

    class Idle(Exception):
        """A stand-in worker has read every task sent to it so far."""

    class End:
        """One end of a stand-in pipe: what it sends lands in its peer's
        inbox, and a task sent to a worker's end runs that worker."""

        def __init__(self):
            self.inbox, self.peer, self.worker = deque(), None, None

        def send(self, obj):
            if self.worker is None:
                if obj is not None:
                    seen.tasks.append(obj)
            elif isinstance(obj, tuple):
                seen.failing_points.append(obj[0])
            self.peer.inbox.append(obj)
            if self.peer.worker is not None:
                self.peer.worker.run()

        def recv(self):
            if not self.inbox:
                raise Idle
            return self.inbox.popleft()

        def close(self):
            pass

    def pipe():
        parent, child = End(), End()
        parent.peer, child.peer = child, parent
        seen.pipes.append((parent, child))
        return parent, child

    class InlineProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args
            args[0].worker = self

        def start(self):
            seen.started.append(self)

        def run(self):
            try:
                self.target(*self.args)
            except Idle:
                pass

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    monkeypatch.setattr(multiprocessing, "Pipe", pipe)
    monkeypatch.setattr(
        multiprocessing.connection, "wait", lambda ends: [end for end in ends if end.inbox]
    )
    return seen


@pytest.fixture
def tau_one_up(monkeypatch):
    """Make tau one too large in this process, as the tau+1 source mutant
    does, with the rigged-set cache, the rigging-sum memo and the
    tau-matrix memo empty on entry and on exit, so that no piece built or
    counted either way is served the other."""
    from rigchar import core, riggedsets

    monkeypatch.setattr(
        riggedsets, "tau", lambda alpha, beta, l1, l2, l3: core.tau(alpha, beta, l1, l2, l3) + 1
    )
    monkeypatch.setattr(riggedsets, "_R_CACHE", {})
    monkeypatch.setattr(riggedsets, "_SUM_CACHE", {})
    riggedsets._tau_table.cache_clear()
    yield
    riggedsets._tau_table.cache_clear()


# Blocks (3, 1), (2, 1) and (1, 1) of this grid fail with tau one too
# large (tau_plus_one in a subprocess, tau_one_up in this one), first at
# the points (k, 1, 1, 1, 1, 1, 1, 1), the 464th, 194th and 86th of the
# grid; the first failure in grid order has k = 1.
FIRST_FAILURE_GRID = [
    "verify", "recursion", "--max-k", "3", "--max-weight", "2",
    "--max-M", "1", "--max-N", "1",
]


class TestBlockScheduler:
    """verify --jobs N checks whole blocks of equal (k, M) per worker task."""

    def test_workers_are_capped_by_the_block_count(self, inline_workers, capsys):
        from rigchar import cli

        two_blocks = [
            "verify", "recursion", "--max-k", "1", "--max-weight", "0",
            "--max-M", "1", "--max-N", "1",
        ]
        assert cli.main([*two_blocks, "--jobs", "64"]) == 0
        pooled = capsys.readouterr().out
        assert len(inline_workers.started) == 2
        assert cli.main([*two_blocks, "--jobs", "1"]) == 0
        assert capsys.readouterr().out == pooled

    def test_one_block_grid_starts_no_pool(self, inline_workers, capsys):
        from rigchar import cli

        one_block = [
            "verify", "recursion", "--max-k", "1", "--max-weight", "0",
            "--max-M", "0", "--max-N", "1", "--jobs", "2",
        ]
        assert cli.main(one_block) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        assert inline_workers.started == []
        assert inline_workers.pipes == []

    def test_lowest_failing_index_wins_in_process(self, inline_workers, tau_one_up, capsys):
        # Blocks run largest (k, M) first, and each later block still
        # checks its points below the least failing point found so far.
        from rigchar import cli

        assert cli.main([*FIRST_FAILURE_GRID, "--jobs", "2"]) == 1
        pooled = capsys.readouterr().out
        assert inline_workers.failing_points == [
            (3, 1, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)
        ]
        assert cli.main([*FIRST_FAILURE_GRID, "--jobs", "1"]) == 1
        assert capsys.readouterr().out == pooled
        assert json.loads(pooled)["counterexample"]["point"]["k"] == 1

    def test_in_process_blocks_stop_early(
        self, inline_workers, tau_one_up, monkeypatch, capsys
    ):
        # One worker runs the blocks in ascending (k, M) order, so once the
        # k = 1 failure at the grid's 86th point is found, no k >= 2 point
        # is checked.
        from rigchar import cli

        assert cli.main([*FIRST_FAILURE_GRID, "--jobs", "2"]) == 1
        pooled = capsys.readouterr().out
        check_point = cli._check_point
        levels = []

        def counted(what, module, point):
            levels.append(point[0])
            return check_point(what, module, point)

        monkeypatch.setattr(cli, "_check_point", counted)
        assert cli.main([*FIRST_FAILURE_GRID, "--jobs", "1"]) == 1
        assert capsys.readouterr().out == pooled
        # Block (1, 0) whole and block (1, 1) up to its failing point: as
        # many points as grid order checks.  --jobs 1 starts no worker.
        assert set(levels) == {1} and len(levels) == 86
        assert len(inline_workers.started) == 2

    def test_a_task_is_the_block_coordinates(self, inline_workers, capsys):
        # A task names its block and the cutoffs, and the worker builds the
        # points: it stays small however large the block.
        import pickle

        from rigchar import cli

        argv = [
            "verify", "recursion", "--max-k", "3", "--max-weight", "4",
            "--max-M", "2", "--max-N", "2", "--jobs", "2",
        ]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        assert len(inline_workers.tasks) == 9
        sizes = [len(pickle.dumps(task)) for task in inline_workers.tasks]
        assert max(sizes) <= 256, sizes

    @pytest.mark.parametrize("what", sorted(_CHECKS))
    def test_labels_ascend(self, what):
        # _check_block skips each point at or past the least failing point
        # known, which is sound only if it builds its points in grid order,
        # that is if each labels list ascends as a list of tuples.
        labels = _CHECKS[what].labels
        for k in range(1, 5):
            found = labels(k)
            assert len({len(label) for label in found}) == 1
            assert all(a < b for a, b in zip(found, found[1:]))

    @pytest.mark.parametrize("jobs", ["2", "4"])
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_first_failure_in_grid_order_wins_across_blocks(self, method, jobs, tau_plus_one):
        # Four workers on six blocks outnumber the cores of a small runner.
        proc = run_under(method, [*FIRST_FAILURE_GRID, "--jobs", jobs], tau_plus_one)
        assert proc.returncode == 1, (proc.returncode, proc.stderr)
        serial = run_cli(*FIRST_FAILURE_GRID, "--jobs", "1", expect=1, path=tau_plus_one)
        assert proc.stdout == serial.stdout
        assert json.loads(proc.stdout)["counterexample"]["point"]["k"] == 1

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_a_crash_in_a_pool_worker_exits_3(self, method, tmp_path):
        # The crash source mutant raises KeyError inside the workers, which
        # send it back; the parent raises it and terminates the workers:
        # the run must still end, with exit 3 and the one error line.
        root = mutants.mutate(mutants.BY_ID["crash"], tmp_path)
        argv = [
            "verify", "recursion", "--max-k", "3", "--max-weight", "4",
            "--max-M", "2", "--max-N", "2", "--jobs", "2",
        ]
        proc = run_under(method, argv, root)
        assert proc.returncode == 3, (proc.returncode, proc.stderr)
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["error"] == "KeyError"

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_killed_worker_exits_3(self, method, tmp_path):
        # A copy of rigchar whose workers log their pids before each point;
        # the one that gets block (k, M) = (3, 1), sent second and so to
        # the worker started last, waits until the other has logged, then
        # exits in the middle of that block with no reply.  The parent must
        # see the pipe close, exit 3 with one error line naming the block,
        # and leave no worker running.
        pids = tmp_path / "pids"
        pids.touch()
        old = "    rep = getattr(module, check.verifier)(*point)\n"
        new = (
            f"    with open({str(pids)!r}, 'a') as fh:\n"
            "        fh.write(f'{os.getpid()}\\n')\n"
            "    if (point[0], point[4]) == (3, 1):\n"
            f"        while len(set(open({str(pids)!r}).read().split())) < 2:\n"
            "            __import__('time').sleep(0.01)\n"
            "        os._exit(1)\n"
        ) + old
        root = mutants.mutate(mutants.Mutant("kill", "cli.py", old, new, codes=""), tmp_path)
        argv = [
            "verify", "recursion", "--max-k", "3", "--max-weight", "4",
            "--max-M", "2", "--max-N", "2", "--jobs", "2",
        ]
        proc = run_under(method, argv, root)
        assert proc.returncode == 3, (proc.returncode, proc.stderr)
        assert proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout) == {
            "status": "internal-error",
            "error": "RuntimeError",
            "message": "a worker died in block (k, M) = (3, 1)",
        }
        assert "Traceback" not in proc.stderr
        workers = set(map(int, pids.read_text().split()))
        assert len(workers) == 2
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_no_process_outlives_the_run(self, method, tmp_path):
        # The console entry ends with os._exit, which runs no exit handler:
        # the workers, and the fork server and resource tracker that spawn
        # and forkserver start, must still be gone within a second.  The
        # run has a process group of its own, so a signal 0 to the group
        # finds any of them that is left.  The fork server and the tracker
        # exit when the run's end closes their pipes, and init reaps them;
        # an init that reaps late leaves zombies in the group, which have
        # exited and are not counted.
        argv = [
            "verify", "recursion", "--max-k", "3", "--max-weight", "4",
            "--max-M", "2", "--max-N", "2", "--jobs", "2",
        ]
        # stdout goes to a file, not a pipe: a process left holding the
        # pipe would keep the reader waiting until it exits, and so hide.
        out = tmp_path / "out.json"
        with open(out, "w") as fh:
            proc = subprocess.Popen(
                [*entry_under(method), *argv],
                stdout=fh,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
        assert proc.wait(timeout=120) == 0
        assert json.loads(out.read_text())["status"] == "pass"
        deadline = time.monotonic() + 1
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            running = group_states(proc.pid) - {"Z"}
            if not running:
                break
            assert time.monotonic() < deadline, f"processes of the run outlived it: {running}"
            time.sleep(0.01)

    @pytest.mark.parametrize("what", sorted(_CHECKS))
    def test_block_key_is_sound(self, what, monkeypatch, capsys):
        # Run every point against an empty rigged-set cache, scan memo and
        # rigging-sum memo: each entry it creates must have the point's k
        # and M, or two blocks would repeat each other's work.  The four
        # bijection checks build pieces; fermionic and char-recursion reach
        # the sets through char_R, which counts them and builds none.
        from rigchar import cli, riggedsets

        check = _CHECKS[what]
        grid = ["--max-k", "2", "--max-M", "2", "--max-N", "2"]
        if check.needs_weight:
            grid += ["--max-weight", "2"]
        m_at = len(check.labels(1)[0]) + 1  # M's place in a point
        check_point = cli._check_point
        built = {"pieces": [], "scans": [], "sums": []}
        stray = []

        def isolated(what, module, point):
            pieces, scans, sums = {}, {}, {}
            monkeypatch.setattr(riggedsets, "_R_CACHE", pieces)
            monkeypatch.setattr(riggedsets, "_SCAN_CACHE", scans)
            monkeypatch.setattr(riggedsets, "_SUM_CACHE", sums)
            failure = check_point(what, module, point)
            keys = {
                "pieces": [(p.k, p.M) for p, _, _ in pieces],
                "scans": [(k, M) for k, _, _, M, *_ in scans],
                "sums": [(p.k, p.M) for p, _, _ in sums],
            }
            for name, found in keys.items():
                built[name].extend(found)
                stray.extend((name, point, km) for km in found if km != (point[0], point[m_at]))
            return failure

        monkeypatch.setattr(cli, "_check_point", isolated)
        assert cli.main(["verify", what, *grid, "--jobs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        counted = what in ("fermionic", "char-recursion")
        assert {name for name, found in built.items() if found} == (
            {"scans", "sums"} if counted else {"pieces", "scans"}
        )
        assert stray == []


class TestCountAnchors:
    """The enumerate_R counts bench/workloads.json anchors for the traced
    verify invocations, counted at the two bindings bench/traced.py wraps."""

    @pytest.mark.parametrize(
        "argv, anchors",
        [
            item
            for item in json.loads(WORKLOADS.read_text())["anchors"].items()
            if item[0].startswith("verify")
        ],
    )
    def test_enumerate_R_calls_and_cache_entries(self, argv, anchors, monkeypatch, capsys):
        from rigchar import bijection, cli, riggedsets

        real = riggedsets.enumerate_R
        calls = []

        def counted(p, m, n):
            calls.append(None)
            return real(p, m, n)

        cache = {}
        monkeypatch.setattr(riggedsets, "_R_CACHE", cache)
        for module in (riggedsets, bijection):
            monkeypatch.setattr(module, "enumerate_R", counted)
        assert cli.main(argv.split()) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        assert len(calls) == anchors["riggedsets.enumerate_R.calls"]
        assert len(cache) == anchors["riggedsets.cache_entries"]


def loaded_modules(argv) -> set[str]:
    """The rigchar modules that python -m rigchar imports to run argv,
    read from the -X importtime report on stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rigchar", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = (
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    )
    return {name for name in names if name.startswith("rigchar")}


# The verifier module each check reads: the others never load it.
CHECK_MODULES = {
    "recursion": "bijection",
    "lower-decomp": "bijection",
    "upper-decomp": "bijection",
    "bijection": "bijection",
    "fermionic": "characters",
    "char-recursion": "characters",
}


class TestImportCost:
    @pytest.mark.parametrize("name, flags", [(name, flags) for name, _, flags, _ in _COMMANDS])
    def test_a_command_does_not_load_bijection(self, name, flags):
        argv = [name]
        for flag in flags.split():
            argv += [f"--{flag}", "1" if flag == "k" else "0"]
        loaded = loaded_modules(argv)
        assert "rigchar.characters" in loaded
        assert "rigchar.bijection" not in loaded

    @pytest.mark.parametrize("what", sorted(_CHECKS))
    def test_a_check_loads_one_verifier_module(self, what):
        # The smallest grid: k = 1, M = 0, its first N and weight 0.
        check = _CHECKS[what]
        argv = ["verify", what, "--max-k", "1", "--max-M", "0", "--max-N", str(check.first_N)]
        if check.needs_weight:
            argv += ["--max-weight", "0"]
        loaded = loaded_modules(argv)
        verifiers = {"rigchar.bijection", "rigchar.characters"}
        assert loaded & verifiers == {f"rigchar.{CHECK_MODULES[what]}"}

    def test_char_does_not_import_multiprocessing(self):
        # Only verify's worker processes need multiprocessing; the commands
        # that start none do not import it.
        script = (
            "import sys\n"
            "from rigchar.cli import main\n"
            "code = main(['char', '--k', '2', '--l1', '2', '--l2', '1',"
            " '--M', '2', '--N', '2'])\n"
            "print('multiprocessing' in sys.modules, code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False 0"

    def test_workers_do_not_import_the_pool(self):
        # Two workers on a two-block grid are fed over pipes: the parent
        # imports neither multiprocessing.pool nor ctypes, which the pool's
        # shared stop index needed.
        script = (
            "import sys\n"
            "from rigchar.cli import main\n"
            "if __name__ == '__main__':\n"
            "    code = main(['verify', 'recursion', '--max-k', '1', '--max-weight', '0',"
            " '--max-M', '1', '--max-N', '1', '--jobs', '2'])\n"
            "    print(sorted({'multiprocessing.pool', 'ctypes'} & set(sys.modules)), code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[] 0"


class TestOutputFile:
    def test_output_flag_writes_file(self, tmp_path):
        out = tmp_path / "char.txt"
        run_cli(
            "char", "--k", "1", "--l1", "1", "--l2", "1", "--M", "1", "--N", "1",
            "--format", "text", "--output", str(out),
        )
        assert out.read_text() == "1 + z1*z2*q\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "--k", "1", "--l1", "0", "--l2", "0", "--M", "0", "--N", "0"],
            ["verify", "fermionic", "--max-k", "1", "--max-M", "1", "--max-N", "0"],
        ],
        ids=["char", "verify"],
    )
    def test_unwritable_output_exits_2(self, argv, tmp_path):
        """Exit 1 means a counterexample, so a file that cannot be opened
        is a usage error: exit 2, one error line, nothing on stdout."""
        out = tmp_path / "missing" / "x.json"
        for args in each_jobs(argv):
            proc = run_cli(*args, "--output", str(out), expect=2)
            assert proc.stdout == ""
            assert "Traceback" not in proc.stderr
            assert str(out) in proc.stderr
            assert not out.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_write_exits_2(self):
        """A write that fails after the file opened is a usage error too."""
        argv = ["char", "--k", "1", "--l1", "0", "--l2", "0", "--M", "0", "--N", "0"]
        proc = run_cli(*argv, "--output", "/dev/full", expect=2)
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_streamed_write_exits_2(self):
        """A document written in many chunks fails at its first one."""
        argv = ["enum", "--k", "2", "--l1", "2", "--l2", "2", "--l3", "0", "--M", "5", "--N", "4"]
        proc = run_cli(*argv, "--output", "/dev/full", expect=2)
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: cannot write --output /dev/full: {os.strerror(errno.ENOSPC)}\n"
        )

    def test_failed_stdout_write_exits_2(self, monkeypatch, capsys):
        """Without --output, a stdout that cannot be written is a usage
        error too: exit 2 and one error line, not a traceback and exit 1."""
        from rigchar import cli

        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def flush(self):
                pass

        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", FullStdout())
        argv = ["char", "--k", "1", "--l1", "0", "--l2", "0", "--M", "0", "--N", "0"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "--k", "1", "--l1", "0", "--l2", "0", "--M", "0", "--N", "0"],
            ["char", "--k", "2", "--l1", "2", "--l2", "1", "--M", "10", "--N", "10"],
            ["enum", "--k", "2", "--l1", "2", "--l2", "2", "--l3", "0", "--M", "3", "--N", "3"],
        ],
        ids=["short", "long", "enum"],
    )
    def test_stdout_to_full_device_exits_2(self, argv, unbuffered):
        """A short text fails only when stdout is flushed, a long one at the
        write; buffered, the final flush must not fail again and turn exit
        2 into 120."""
        proc = run_to_full_device(argv, unbuffered)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_unwritable_internal_error_report_exits_3(self, unbuffered, tmp_path):
        """The crash source mutant raises KeyError at the first point; its
        report cannot be written either, which must not turn exit 3 into a
        traceback and exit 1 (unbuffered) or exit 120 (buffered)."""
        root = mutants.mutate(mutants.BY_ID["crash"], tmp_path)
        argv = ["verify", "recursion", "--max-k", "2", "--max-weight", "1",
                "--max-M", "1", "--max-N", "1"]
        proc = run_to_full_device(argv, unbuffered, root)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def run_to_full_device(argv, unbuffered: str, path=None):
    """Run rigchar with argv and stdout on /dev/full, from the copy at path
    if one is given, with PYTHONUNBUFFERED set to unbuffered or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    if path is not None:
        env["PYTHONPATH"] = str(path)
    with open("/dev/full", "w") as full:
        return subprocess.run(
            [sys.executable, "-m", "rigchar", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )


# Keys mix plain text with the characters a JSON string must escape.
json_keys = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\n\t\r", "é", "ключ", "\u2028", "\ud800", "a\"b\\c"]
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | json_keys
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4)
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(json_keys, st.integers(), max_size=4),
    max_leaves=25,
)


# Tuples, lists and dicts of ints, bools and strs; equal tuples of
# different scalar types, and one tuple object reused, are likely.
tuple_leaves = st.integers(-2, 2) | st.booleans() | st.sampled_from(["", "a", "é"])
tuple_docs = st.recursive(
    tuple_leaves,
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4)
    | inner.map(lambda t: [t, {"again": t}, (t, t)]),
    max_leaves=25,
)


# Specs of the items of a top-level list given as a generator: nested
# lists of leaves, which build() turns into fresh tuples each time, so
# the id of an item the writer has dropped is soon handed to the next.
item_specs = st.lists(
    st.recursive(tuple_leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
    max_size=6,
)


def build(spec):
    return tuple(map(build, spec)) if isinstance(spec, list) else spec


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    """_json_text writes exactly the bytes of json.dumps(indent=2, sort_keys=True)."""

    @given(json_docs)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, doc):
        assert _json_text(doc) == reference_json(doc)

    def test_empty_and_nested_containers(self):
        for doc in ([], {}, [[]], [{}], {"a": []}, {"a": {}}, {"a": [[], {}, [1]]}):
            assert _json_text(doc) == reference_json(doc)

    def test_shared_tuples(self):
        # The writer renders each tuple object once per nesting level.
        row = (3, 1)
        rows = (row, (), row)
        docs = [
            {"a": row, "b": [row], "c": [[row, rows]], "d": rows},
            [row, [3, 1], (3, 1), list(row)],
            [(1, 0), (True, False), (1.0, 0), (1, 0), [(True, False)], {"x": (1.0, 0)}],
            [(), ((),), [(), ((),)], {"e": ()}, ((), ((),))],
            [{"t": (1, (2, 3)), "u": [{"v": ((4,), (4,))}]}, {"t": (1, (2, 3))}],
        ]
        for doc in docs:
            assert _json_text(doc) == reference_json(doc)

    @given(tuple_docs)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_with_tuples(self, doc):
        assert _json_text(doc) == reference_json(doc)

    @given(st.dictionaries(json_keys, item_specs, max_size=3) | item_specs)
    @settings(max_examples=300, deadline=None)
    def test_streamed_lists_match_json_dumps(self, spec):
        if isinstance(spec, dict):
            streamed = {k: (build(s) for s in v) for k, v in spec.items()}
            doc = {k: [build(s) for s in v] for k, v in spec.items()}
        else:
            streamed = (build(s) for s in spec)
            doc = [build(s) for s in spec]
        assert _json_text(streamed) == reference_json(doc)

    @given(
        st.lists(json_keys, min_size=1, max_size=4, unique=True),
        st.lists(st.lists(st.integers(), min_size=4, max_size=4), max_size=6),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_match_json_dumps(self, keys, values, nested):
        keys = sorted(keys)
        rows = _Rows(tuple(keys), (tuple(v[:len(keys)]) for v in values))
        doc = [dict(zip(keys, v)) for v in values]
        if nested:
            rows, doc = {"rows": rows, "x": 1}, {"rows": doc, "x": 1}
        assert _json_text(rows) == reference_json(doc)

    def test_rows_cross_batches(self):
        values = [(i, -i, 10**30 + i) for i in range(3000)]
        chunks = list(_json_chunks({"a": 0, "terms": _Rows(("c", "q", "z"), values)}))
        doc = {"a": 0, "terms": [dict(zip("cqz", v)) for v in values]}
        assert len(chunks) > 3 and max(map(len, chunks)) <= 64 * 1024
        assert "".join(chunks) == reference_json(doc)

    def test_enum_document(self, capsys):
        from rigchar import cli

        assert cli.main("enum --k 2 --l1 2 --l2 2 --l3 0 --M 2 --N 2".split()) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pieces"]
        assert out == reference_json(json.loads(out))

    @pytest.mark.parametrize(
        "argv",
        [
            ["char", "--k", "2", "--l1", "2", "--l2", "1", "--M", "3", "--N", "3"],
            ["char-bruteforce", "--k", "2", "--l1", "2", "--l2", "2", "--l3", "0",
             "--M", "2", "--N", "2"],
            ["sl2-char", "--k", "2", "--l", "1", "--M", "2", "--N", "2"],
            ["verify", "fermionic", "--max-k", "1", "--max-M", "1", "--max-N", "1"],
        ],
    )
    def test_cli_payloads(self, argv, capsys):
        from rigchar import cli

        for args in each_jobs(argv):
            assert cli.main(args) == 0
            out = capsys.readouterr().out
            assert out == reference_json(json.loads(out))


def character(command: str, flags: dict):
    """The polynomial a character command writes for flags, and its axis names."""
    from rigchar import characters

    if command == "char":
        return characters.fermionic_char(**flags), ("z1", "z2", "q")
    if command == "char-bruteforce":
        return characters.char_R(Params(**flags)), ("z1", "z2", "q")
    return characters.sl2_char(**flags), ("z", "_", "q")


# Character points: the zero polynomial first, sl2-char with negative z exponents.
CHAR_POINTS = [
    ("char", dict(k=1, l1=0, l2=0, M=0, N=0)),
    *(("char", dict(k=k, l1=l1, l2=l2, M=M, N=N))
      for k in (1, 2) for l1 in range(k + 1) for l2 in range(k + 1)
      for M in (0, 2) for N in (1, 2)),
    *(("char-bruteforce", dict(k=2, l1=l1, l2=2, l3=l3, M=2, N=1))
      for l1 in range(3) for l3 in range(l1 + 1)),
    ("char-bruteforce", dict(k=1, l1=0, l2=0, l3=0, M=0, N=0)),
    *(("sl2-char", dict(k=k, l=l, M=M, N=N))
      for k in (1, 2) for l in range(k + 1) for M in (0, 1) for N in (0, 2)),
]


class TestCharPayload:
    """A character's document is the one built from a dict per term."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_matches_its_reconstruction(self, fmt, capsys):
        from rigchar import cli

        for command, flags in CHAR_POINTS:
            argv = [command, *(f"--{k}={v}" for k, v in flags.items()), "--format", fmt]
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            poly, names = character(command, flags)
            if fmt == "text":
                assert out == poly.to_text(names) + "\n", argv
                continue
            if names[0] == "z":
                terms = [{"z": e1, "q": eq, "coeff": c} for (e1, _, eq), c in poly.terms()]
            else:
                terms = [
                    {"z1": e1, "z2": e2, "q": eq, "coeff": c}
                    for (e1, e2, eq), c in poly.terms()
                ]
            doc = {"command": command, **flags, "terms": terms, "text": poly.to_text(names)}
            assert out == reference_json(doc), argv

    def test_grid_covers_the_edge_cases(self):
        zero, _ = character(*CHAR_POINTS[0])
        assert zero.terms() == [] and zero.to_text() == "0"
        assert any(
            e1 < 0
            for command, flags in CHAR_POINTS if command == "sl2-char"
            for (e1, _, _), _ in character(command, flags)[0].terms()
        )


class RecordingStdout:
    """A stdout that keeps each string written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def streamed_invocations():
    """enum's benchmark invocation, then every char and char-bruteforce
    invocation whose stdout digest the benchmark records; the first two
    keep their short ids."""
    short = {
        "enum --k 2 --l1 2 --l2 2 --l3 0 --M 5 --N 4": "enum",
        "char --k 2 --l1 2 --l2 1 --M 10 --N 10": "char",
    }
    recorded = json.loads(WORKLOADS.read_text())["expected"]
    argvs = [*short, *(a for a in recorded if a.split()[0] in ("char", "char-bruteforce"))]
    return [pytest.param(a, id=short.get(a, a)) for a in dict.fromkeys(argvs)]


class TestStreaming:
    """Documents go out in bounded chunks with the bytes the benchmark pins."""

    @pytest.mark.parametrize("argv", streamed_invocations())
    def test_chunks_are_bounded_and_exact(self, argv, monkeypatch):
        from rigchar import cli

        expected = json.loads(WORKLOADS.read_text())["expected"][argv]["sha256"]
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv.split()) == 0
        chunks = [text.encode() for text in stdout.writes]
        assert hashlib.sha256(b"".join(chunks)).hexdigest() == expected
        assert max(map(len, chunks)) <= 64 * 1024
