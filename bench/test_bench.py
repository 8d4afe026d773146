"""Smoke test of the benchmark: every workload at its setup_s input.

Run with ``python -m pytest bench/test_bench.py``.  Each workload is cut
down to its cheapest invocation and measured with tracing off and on; the
test checks that every metric BENCHMARK.json names comes out with its unit
and that the traced CLI prints exactly what the plain CLI prints.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run  # dataclasses look their module up here
_spec.loader.exec_module(run)

SPEC = run.load_spec()
with open(BENCH.parent / "BENCHMARK.json") as _fh:
    CONTRACT = json.load(_fh)


def smoke(name: str) -> "run.Workload":
    w = run.select(SPEC, name, seed=0)
    return replace(w, invocations=(w.setup,), anchored=())


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


@pytest.mark.parametrize("name", list(SPEC["workloads"]))
def test_workload_at_setup_input(name):
    w = smoke(name)
    twin = smoke(w.twin) if w.twin else None
    runner = run.Runner(SPEC)

    plain = runner.invoke(w.setup)
    traced = runner.invoke(w.setup, traced=True)
    assert traced.sha256 == plain.sha256
    assert traced.nbytes == plain.nbytes > 0

    e2e = run.measure(runner, w, seconds=0, trace=False)
    layers = run.measure(runner, w, seconds=0, trace=True, twin=twin)
    assert {m: u for m, (_, u) in e2e.items()} == units("end_to_end")
    assert {m: u for m, (_, u) in layers.items()} == units("per_layer")
    assert runner.failed == 0
    assert runner.attempted > 0


def test_every_selectable_invocation_has_a_recorded_output():
    for name, entry in SPEC["workloads"].items():
        for argv in [entry["setup"], *(a for family in entry["families"] for a in family)]:
            assert argv in SPEC["expected"], (name, argv)


def test_wrong_output_or_count_is_a_failure():
    runner = run.Runner(SPEC)
    argv = tuple("char --k 4 --l1 4 --l2 4 --M 5 --N 5".split())
    trace = {"stats": {"core.vacancy_P": [514088, 0.0, 0.0]}, "counters": {}}
    out = run.Outcome(argv, 1.0, 1.0, 1.0, 0, "0" * 64, 1, trace)
    runner.check(out, stderr_tail="")
    runner.check_anchors(out)
    assert runner.attempted == 1
    # one digest mismatch plus four anchored counts off
    assert runner.failed == 5
