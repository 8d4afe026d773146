"""Run one rigchar CLI invocation with per-layer spans and counters.

Usage::

    python bench/traced.py TRACE_JSON ARG...

Put ``src`` on ``PYTHONPATH`` first.  The script replaces the public
functions of rigchar's modules, at the bindings their callers look them up
through, with wrappers that time each call and count it; then it runs
``rigchar.cli.main(ARG...)`` and writes the totals to TRACE_JSON.  Nothing
under ``src/`` changes, so the stdout of a traced invocation is the stdout
of the plain CLI, byte for byte.

Self time of a call is its duration minus the time covered by the wrapped
calls it made.  Totals are kept per wrapped name; individual spans
(name, start, end, parent) are kept only for the outermost two levels
(``cli.main`` and the calls it makes directly into a layer), since the
inner levels run to millions of calls.  Only the parent process is
recorded: pool workers inherit the wrappers but exit without writing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

SPAN_DEPTH = 2  # keep spans of calls at most this deep; cli.main is depth 1

# Functions each layer exposes, and the modules whose bindings are replaced.
# A module that calls a sibling through the module object (cli calls
# ``riggedsets.enumerate_R``) or through its own globals (gauss_binomial's
# recursion) sees the wrapper only if the defining module's binding is
# replaced too; vacancy_P is replaced only in its importers, so that the
# vacancy_P call inside vacancy_Q is not counted as a second pair.
ADMISSIBLE_API = (
    "all_index_sets", "delta_r", "delta_s", "epsilon", "is_admissible",
    "is_l1_admissible", "primed_labels", "rho", "rho_prime", "sigma",
    "sigma_prime",
)
PATCHES = (
    ("core", "vacancy_P", ("riggedsets", "characters", "bijection")),
    ("core", "vacancy_Q", ("riggedsets", "characters", "bijection")),
    ("core", "tau", ("riggedsets",)),
    ("riggedsets", "enumerate_R", ("riggedsets", "bijection")),
    ("riggedsets", "enumerate_partitions", ("riggedsets", "characters")),
    ("riggedsets", "enumerate_total", ("characters",)),
    *(("admissible", name, ("bijection", "characters")) for name in ADMISSIBLE_API),
    *(("bijection", name, ("bijection",)) for name in (
        "lower_bounds", "upper_bounds", "lower_member", "upper_member", "map_m",
        "verify_recursion", "verify_lower_decomposition",
        "verify_upper_decomposition", "verify_bijection",
    )),
    *(("characters", name, ("characters",)) for name in (
        "gauss_binomial", "degree_D", "rig_degree", "char_R", "fermionic_char",
        "char_recursion_check", "sl2_char",
    )),
    *(("cli", name, ("cli",)) for name in (
        "pair_to_obj", "_poly_payload", "_json_text", "_emit",
    )),
)


class Recorder:
    """In-memory spans, per-name totals and counters of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: Counter = Counter()
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.bound_keys: set = set()
        # One frame per open call, [seconds covered by children, span index];
        # the bottom frame stands for the process itself.
        self._stack: list[list] = [[0.0, -1]]

    def wrap(self, name: str, fn, after=None):
        """fn timed as span `name`; after(result, args) runs once it returns."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = -1
            if len(stack) <= SPAN_DEPTH:
                idx = len(spans)
                spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                stack[-1][0] += dur
                if idx >= 0:
                    spans[idx] = (name, t0, t1, stack[-1][1])
            if after is not None:
                after(result, args)
            return result

        return traced

    def to_json(self, modules) -> dict:
        return {
            "stats": self.stats,
            "counters": {
                **self.counters,
                "bijection.bounds.distinct": len(self.bound_keys),
                "riggedsets.cache_entries": len(modules["riggedsets"]._R_CACHE),
                "characters.gauss.cache_entries": len(modules["characters"]._GAUSS_CACHE),
            },
            "spans": self.spans,
        }


def _after_hooks(rec: Recorder) -> dict:
    """Result inspectors that turn wrapped calls into the layer counters."""
    last_p = [None, None, False]  # mu, nu and feasibility of the last vacancy_P

    def vacancy_p(P, args):
        ok = P.is_nonneg()
        last_p[:] = [args[0], args[1], ok]
        if ok:
            rec.counters["core.vacancy.p_feasible"] += 1

    def vacancy_q(Q, args):
        # Callers ask for Q right after P on the same (mu, nu) objects.
        if last_p[2] and args[0] is last_p[0] and args[1] is last_p[1] and Q.is_nonneg():
            rec.counters["core.vacancy.both_feasible"] += 1

    def bounds(kind):
        def hook(_result, args):
            rec.bound_keys.add((kind, args))
        return hook

    def cover(report, _args):
        rec.counters["bijection.cover.elements"] += report.detail.get("elements", 0)

    return {
        "vacancy_P": vacancy_p,
        "vacancy_Q": vacancy_q,
        "lower_bounds": bounds("lower"),
        "upper_bounds": bounds("upper"),
        "verify_lower_decomposition": cover,
        "verify_upper_decomposition": cover,
    }


def _counted_enumerate_R(rec: Recorder, riggedsets, fn):
    """enumerate_R that also counts new cache keys and the elements built."""
    cache = riggedsets._R_CACHE

    @functools.wraps(fn)
    def enumerate_R(p, m, n):
        before = len(cache)
        rs = fn(p, m, n)
        if len(cache) > before:
            rec.counters["riggedsets.new_keys"] += 1
            rec.counters["riggedsets.elements"] += len(rs)
        return rs

    return enumerate_R


def _materialised(fn):
    """A generator function run to completion inside its span."""

    @functools.wraps(fn)
    def eager(*args):
        return iter(tuple(fn(*args)))

    return eager


def install(rec: Recorder) -> dict:
    """Replace the bindings listed in PATCHES; return the rigchar modules."""
    modules = {
        name: importlib.import_module(f"rigchar.{name}")
        for name in ("core", "riggedsets", "admissible", "bijection", "characters", "cli")
    }
    hooks = _after_hooks(rec)
    for owner, name, targets in PATCHES:
        fn = getattr(modules[owner], name)
        if name == "enumerate_R":
            fn = _counted_enumerate_R(rec, modules["riggedsets"], fn)
        elif name == "all_index_sets":
            fn = _materialised(fn)
        wrapped = rec.wrap(f"{owner}.{name}", fn, hooks.get(name))
        for target in targets:
            if hasattr(modules[target], name):
                setattr(modules[target], name, wrapped)

    poly = modules["characters"].LaurentPoly

    def term_products(_result, args):
        a, b = args
        # Sparse product: one multiply-add per pair of terms.
        rec.counters["characters.poly_mul.term_products"] += len(a._terms) * (
            len(b._terms) if isinstance(b, poly) else 1
        )

    mul = rec.wrap("characters.poly_mul", poly.__mul__, term_products)
    poly.__mul__ = mul
    poly.__rmul__ = mul
    return modules


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE_JSON ARG...", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    modules = install(rec)
    cli_main = rec.wrap("cli.main", modules["cli"].main)
    try:
        code = cli_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(rec.to_json(modules), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
