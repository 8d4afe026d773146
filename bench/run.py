"""Benchmark of the rigchar command line, end to end and per layer.

Usage::

    python3 bench/run.py --workload closed-form --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --trace 1

Run it from anywhere; it finds the repository as the parent of its own
directory and runs ``python -m rigchar`` there with ``src`` on
``PYTHONPATH``.  Each run is a closed loop: one CLI invocation after
another, each in a fresh process, for at most ``--seconds`` seconds and at
least one pass over the workload's invocations.  Every invocation's exit
code and stdout sha256 are checked against ``bench/workloads.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates plain passes with passes through
``bench/traced.py`` and reports the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "rigbench"


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    setup: tuple[str, ...]
    pool: str | None = None  # "serial" or "parallel" for the verify twins
    twin: str | None = None  # the other half of a serial/parallel pair
    anchored: tuple[tuple[str, ...], ...] = ()  # traced once to check count anchors


@dataclass(frozen=True)
class Outcome:
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    sha256: str
    nbytes: int
    trace: dict | None


def load_spec() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def select(spec: dict, name: str, seed: int) -> Workload:
    """The workload with one invocation drawn from each family by the seed.

    Family i is indexed by the seed's i-th digit in the mixed radix of the
    family sizes, so seed 0 gives the first (default) member of each.
    """
    entry = spec["workloads"][name]
    picks = []
    rest = seed
    for family in entry["families"]:
        picks.append(tuple(family[rest % len(family)].split()))
        rest //= len(family)
    return Workload(
        name, tuple(picks), tuple(entry["setup"].split()),
        entry.get("pool"), entry.get("twin"),
        tuple(tuple(a.split()) for a in entry.get("anchored", ())),
    )


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (x1, y1, q1), c1 in a.items():
        for (x2, y2, q2), c2 in b.items():
            key = (x1 + x2, y1 + y2, q1 + q2)
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


_FACTOR = {(i % 3, i % 5 - 2, i): i + 1 for i in range(40)}
REFERENCE_S = 0.012  # reference_work() on an idle core of a 2-vCPU Xeon VM
PROBE_REPS = 5
SETUP_REPS = 3  # set-up invocations per pass


def reference_work() -> int:
    """A fixed piece of pure-Python work of the kind rigchar does: products
    of sparse tuple-keyed polynomials, then many small tuples and a set of
    them.  It never changes, so its time measures the host, not the program.
    """
    poly = {(0, 0, 0): 1}
    for _ in range(4):
        poly = dict(sorted(_poly_mul(poly, _FACTOR).items())[:120])
    parts = [tuple(range(i % 9)) + (i,) for i in range(15000)]
    return len(poly) + len({p[-3:] for p in parts})


class Runner:
    """Runs CLI invocations, checks them and tallies failures."""

    def __init__(self, spec: dict) -> None:
        self.expected = spec["expected"]
        self.anchors = spec["anchors"]
        self.attempted = 0
        self.failed = 0
        self.probes: list[float] = []  # reference_work() seconds, one per invocation
        self.log: list[tuple[str, float, float]] = []  # (invocation, wall_s, probe)
        self.env = {k: v for k, v in os.environ.items() if k != "RIGCHAR_JOBS"}
        self.env["PYTHONPATH"] = str(SRC)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAIL: {message}", file=sys.stderr)

    def probe(self) -> None:
        """Time reference_work() PROBE_REPS times and keep the mean."""
        start = time.perf_counter()
        for _ in range(PROBE_REPS):
            reference_work()
        self.probes.append((time.perf_counter() - start) / PROBE_REPS)

    def slowdown(self) -> float:
        """How much slower than REFERENCE_S the host ran, over the run so far."""
        return statistics.mean(self.probes) / REFERENCE_S

    def invoke(self, argv: tuple[str, ...], traced: bool = False) -> Outcome:
        """One CLI process: wall time, rusage of it and its workers, stdout digest."""
        self.probe()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = WORK_DIR / f"trace-{os.getpid()}.json"
        trace_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-m", "rigchar", *argv]
        digest = hashlib.sha256()
        nbytes = 0
        with tempfile.TemporaryFile(dir=WORK_DIR) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT
            )
            try:
                with proc.stdout:
                    while chunk := proc.stdout.read(1 << 20):
                        digest.update(chunk)
                        nbytes += len(chunk)
                # wait4 rather than wait: its rusage covers the process and
                # every worker it reaped.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr_tail = err.read()[-2000:].decode(errors="replace")
        out = Outcome(
            argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            code, digest.hexdigest(), nbytes, None,
        )
        self.check(out, stderr_tail)
        if traced:
            try:
                with open(trace_path) as fh:
                    out = replace(out, trace=json.load(fh))
                trace_path.unlink()
            except (OSError, ValueError) as exc:
                self.fail(f"`{' '.join(argv)}` left no readable trace: {exc}")
                out = replace(out, trace={"stats": {}, "counters": {}})
            self.check_anchors(out)
        return out

    def check(self, out: Outcome, stderr_tail: str) -> None:
        self.attempted += 1
        key = " ".join(out.argv)
        self.log.append((key, out.wall_s, self.probes[-1] if self.probes else 0.0))
        want = self.expected.get(key)
        if want is None:
            self.fail(f"no recorded output for `{key}`")
        elif (out.code, out.sha256) != (want["exit"], want["sha256"]):
            self.fail(
                f"`{key}` exited {out.code} with stdout sha256 {out.sha256}; "
                f"recorded {want['exit']} and {want['sha256']}\n{stderr_tail}"
            )

    def check_anchors(self, out: Outcome) -> None:
        key = " ".join(out.argv)
        counts = layer_counts([out])
        for name, want in self.anchors.get(key, {}).items():
            if counts[name] != want:
                self.fail(f"`{key}`: count {name} is {counts[name]}, anchored at {want}")

    def run_pass(self, w: Workload, traced: bool = False) -> list[Outcome]:
        return [self.invoke(argv, traced) for argv in w.invocations]


def repeat(step, seconds: float) -> list:
    """Call step() at least once, and again while the next call fits in `seconds`."""
    start = time.perf_counter()
    results = []
    while True:
        t = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return results


# ------------------------------------------------------------------ metrics

def pass_wall(p: list[Outcome]) -> float:
    return sum(o.wall_s for o in p)


def pass_cpu(p: list[Outcome]) -> float:
    return sum(o.cpu_s for o in p)


def end_to_end(passes: list[list[Outcome]], setups: list[Outcome], slowdown: float) -> dict:
    # Times are means over the run divided by the host's mean slowdown over
    # the same run.  On a shared 2-vCPU VM each vCPU flips between full and
    # about half speed several times a second, as other tenants come and
    # go, and the share of slow time drifts over minutes.  A pass's time
    # grows with the share of slow time it meets, and so does the time of
    # reference_work() summed over the probes before every invocation: the
    # ratio of the two means cancels the drift, where medians or minima of
    # the passes alone spread by up to 30% (fastest pass: 43%) between runs.
    def mean_over_run(values) -> float:
        return statistics.mean(values) / slowdown

    return {
        "wall_s": (mean_over_run(map(pass_wall, passes)), "s"),
        "cpu_s": (mean_over_run(map(pass_cpu, passes)), "s"),
        "peak_rss_mb": (max(o.rss_mb for p in passes for o in p), "MB"),
        "setup_s": (mean_over_run(o.wall_s for o in setups), "s"),
    }


def layer_counts(outcomes: list[Outcome]) -> dict[str, int]:
    """Exact counts of a traced pass, summed over its invocations."""
    total: dict[str, int] = {}
    for o in outcomes:
        stats, c = o.trace["stats"], o.trace["counters"]

        def calls(*names):
            return sum(stats[n][0] for n in names if n in stats)

        counts = {
            "core.vacancy.pairs": calls("core.vacancy_P"),
            "core.vacancy.calls": calls("core.vacancy_P", "core.vacancy_Q"),
            "core.vacancy.p_feasible": c.get("core.vacancy.p_feasible", 0),
            "core.vacancy.both_feasible": c.get("core.vacancy.both_feasible", 0),
            "core.tau.calls": calls("core.tau"),
            "riggedsets.enumerate_R.calls": calls("riggedsets.enumerate_R"),
            "riggedsets.new_keys": c.get("riggedsets.new_keys", 0),
            "riggedsets.elements": c.get("riggedsets.elements", 0),
            "riggedsets.cache_entries": c.get("riggedsets.cache_entries", 0),
            "admissible.calls": calls(*(n for n in stats if n.startswith("admissible."))),
            "bijection.bounds.calls": calls("bijection.lower_bounds", "bijection.upper_bounds"),
            "bijection.bounds.distinct": c.get("bijection.bounds.distinct", 0),
            "bijection.cover.elements": c.get("bijection.cover.elements", 0),
            "bijection.map_m.calls": calls("bijection.map_m"),
            "characters.poly_mul.calls": calls("characters.poly_mul"),
            "characters.poly_mul.term_products": c.get("characters.poly_mul.term_products", 0),
            "characters.gauss.calls": calls("characters.gauss_binomial"),
            "characters.gauss.cache_entries": c.get("characters.gauss.cache_entries", 0),
            "characters.degree.calls": calls("characters.degree_D"),
            "cli.output_bytes": o.nbytes,
        }
        for name, value in counts.items():
            total[name] = total.get(name, 0) + value
    return total


def layer_times(outcomes: list[Outcome]) -> dict[str, float]:
    """Self seconds of a traced pass, summed over its invocations."""
    groups = {
        "core.vacancy.self_s": lambda n: n in ("core.vacancy_P", "core.vacancy_Q"),
        "riggedsets.enumerate_R.self_s": lambda n: n == "riggedsets.enumerate_R",
        "riggedsets.partitions.self_s": lambda n: n == "riggedsets.enumerate_partitions",
        "admissible.self_s": lambda n: n.startswith("admissible."),
        "bijection.verify.self_s": lambda n: n.startswith("bijection.verify_"),
        "characters.poly_mul.self_s": lambda n: n == "characters.poly_mul",
        "characters.degree.self_s": lambda n: n == "characters.degree_D",
        "cli.serialise_s": lambda n: n in (
            "cli.pair_to_obj", "cli._poly_payload", "cli._json_text", "cli._emit"
        ),
    }
    return {
        metric: sum(s[1] for o in outcomes for n, s in o.trace["stats"].items() if match(n))
        for metric, match in groups.items()
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runner: Runner, plain, traced, serial=None, parallel=None) -> dict:
    counts = layer_counts(traced[0])
    for later in traced[1:]:
        again = layer_counts(later)
        for name, value in counts.items():
            if again[name] != value:
                runner.fail(f"count {name} changed between traced passes: {value} then {again[name]}")
    times = [layer_times(p) for p in traced]
    metrics = {name: (value, "count") for name, value in counts.items()}
    for name in ("core.vacancy.p_feasible", "core.vacancy.both_feasible", "riggedsets.new_keys"):
        del metrics[name]
    metrics["cli.output_bytes"] = (counts["cli.output_bytes"], "bytes")
    metrics["core.vacancy.feasible_ratio"] = (
        ratio(counts["core.vacancy.both_feasible"], counts["core.vacancy.pairs"]), "ratio")
    calls = counts["riggedsets.enumerate_R.calls"]
    metrics["riggedsets.enumerate_R.hit_ratio"] = (
        ratio(calls - counts["riggedsets.new_keys"], calls), "ratio")
    for name in times[0]:
        metrics[name] = (min(t[name] for t in times), "s")
    if serial and parallel:
        speedup = ratio(min(map(pass_wall, serial)), min(map(pass_wall, parallel)))
        extra_cpu = min(map(pass_cpu, parallel)) - min(map(pass_cpu, serial))
    else:  # this workload starts no pool
        speedup, extra_cpu = 1.0, 0.0
    metrics["cli.pool.speedup"] = (speedup, "ratio")
    metrics["cli.pool.extra_cpu_s"] = (extra_cpu, "s")
    metrics["trace.overhead_s"] = (
        min(map(pass_wall, traced)) - min(map(pass_wall, plain)), "s")
    return metrics


def measure(runner: Runner, w: Workload, seconds: float, trace: bool,
            twin: Workload | None = None) -> dict:
    """Metrics of one run: name -> (value, unit)."""
    if not trace:
        # Set-up invocations before each pass, so that the set-up samples
        # are spread over the run like the passes are.
        runs = repeat(lambda: (
            [runner.invoke(w.setup) for _ in range(SETUP_REPS)], runner.run_pass(w)
        ), seconds)
        return end_to_end(
            [p for _, p in runs], [s for setups, _ in runs for s in setups], runner.slowdown()
        )
    pairs = repeat(lambda: (runner.run_pass(w), runner.run_pass(w, traced=True)), seconds)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    serial = parallel = None
    if twin is not None:
        other = repeat(lambda: runner.run_pass(twin), seconds / 2)
        serial, parallel = (plain, other) if w.pool == "serial" else (other, plain)
    for argv in w.anchored:
        runner.invoke(argv, traced=True)
    return per_layer(runner, plain, traced, serial, parallel)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "start_method": multiprocessing.get_start_method(),
    }


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> bool:
    w = select(spec, name, seed)
    twin = select(spec, w.twin, seed) if trace and w.twin else None
    runner = Runner(spec)
    env = {**environment(), "workload": name, "seed": seed, "trace": int(trace),
           "invocations": [" ".join(a) for a in w.invocations],
           "loadavg_before": os.getloadavg()}
    metrics = measure(runner, w, seconds, trace, twin)
    env["loadavg_after"] = os.getloadavg()
    env["host_slowdown"] = runner.slowdown()
    print(json.dumps({"env": env}))
    print(json.dumps({"invocations": runner.log}))
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value} {unit}")
    print(f"fail_ratio {ratio(runner.failed, runner.attempted)} "
          f"({runner.failed}/{runner.attempted} invocations)")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rigchar" / "cli.py").is_file():
        print(f"error: no rigchar sources under {SRC}", file=sys.stderr)
        return 2
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    ok = [run_one(spec, n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
