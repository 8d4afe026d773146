"""Command-line front end: enumeration, characters, and every verifier.

Results go to stdout (JSON or canonical text), progress to stderr, so
captured output stays byte-stable.  Grid verification can fan out over
worker processes; results are merged in canonical grid order, making the
output independent of the parallelism degree.  Exit codes: 0 pass,
1 verified failure with a counterexample report, 2 usage error, 3 internal
invariant failure (an escaping AssertionError or ArithmeticError), reported
as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from multiprocessing import Pool

from . import bijection, characters, core, riggedsets
from .bijection import Report
from .core import Params, RiggedPair, pair_from_obj, params_from_obj, params_to_obj

JOBS_ENV_VAR = "RIGCHAR_JOBS"


# ---------------------------------------------------------------- serialization

def pair_to_obj(x: RiggedPair, l1: int | None = None, l2: int | None = None) -> dict:
    """JSON object for one rigged pair; includes the degree when labels given."""
    obj = core.pair_to_obj(x)
    if l1 is not None and l2 is not None:
        obj["degree"] = characters.rig_degree(x, l1, l2)
    return obj


def enum_document(p: Params, jobs: int = 1) -> dict:
    """The full enumeration document: every nonempty piece in (m, n) order."""
    mmax, nmax = riggedsets.weight_bound(p)
    cells = [(m, n) for m in range(mmax + 1) for n in range(nmax + 1)]
    if jobs > 1:
        with Pool(jobs) as pool:
            sets = pool.starmap(riggedsets.enumerate_R, [(p, m, n) for m, n in cells])
    else:
        sets = [riggedsets.enumerate_R(p, m, n) for m, n in cells]
    pieces = []
    for (m, n), rs in zip(cells, sets):
        if not rs.elements:
            continue
        elements = []
        for x, degree in zip(rs, characters.piece_degrees(rs, p.l1, p.l2)):
            obj = pair_to_obj(x)
            obj["degree"] = degree
            elements.append(obj)
        pieces.append({"m": m, "n": n, "count": len(rs), "elements": elements})
    return {"params": params_to_obj(p), "pieces": pieces}


def parse_enum_document(doc: dict):
    """Round-trip parser for enum_document output."""
    p = params_from_obj(doc["params"])
    pieces = {}
    for piece in doc["pieces"]:
        elems = [pair_from_obj(p.k, obj) for obj in piece["elements"]]
        if len(elems) != piece["count"]:
            raise ValueError("piece count does not match its element list")
        pieces[(piece["m"], piece["n"])] = elems
    return p, pieces


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_value(obj, nl: str) -> str:
    """obj as json.dumps(indent=2, sort_keys=True) writes it at the nesting
    whose line break and indent is nl.

    Lists and dicts are written here, a list of ints or a dict of int
    values with one join, and any other value by json.dumps.  Dict keys
    must be str, as in every document the CLI writes; another key raises
    TypeError.
    """
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        if all(type(v) is int for v in obj):
            body = map(int.__repr__, obj)
        else:
            body = [_json_value(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = sorted(obj.items())
        if all(type(v) is int for _, v in items):
            body = [_encode_str(k) + ": " + int.__repr__(v) for k, v in items]
        else:
            body = [_encode_str(k) + ": " + _json_value(v, inner) for k, v in items]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    return json.dumps(obj)


def _json_text(obj) -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) plus a newline.

    With an indent, json.dumps runs its pure-Python encoder, which is
    slower than _json_value on the CLI's documents.
    """
    return _json_value(obj, "\n") + "\n"


# ---------------------------------------------------------------- subcommands

def _add_params_flags(sp, with_l3: bool) -> None:
    sp.add_argument("--k", type=int, required=True, help="level")
    sp.add_argument("--l1", type=int, required=True)
    sp.add_argument("--l2", type=int, required=True)
    if with_l3:
        sp.add_argument("--l3", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)


def _add_common_flags(sp) -> None:
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--output", default=None, help="write to file instead of stdout")
    sp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"worker processes (default ${JOBS_ENV_VAR} or 1)",
    )


def _resolve_jobs(args) -> int:
    jobs = args.jobs
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV_VAR, "1"))
    return max(1, jobs)


def run_enum(args) -> int:
    p = Params(args.k, args.l1, args.l2, args.l3, args.M, args.N)
    doc = enum_document(p, jobs=_resolve_jobs(args))
    if args.format == "json":
        _emit(_json_text(doc), args.output)
    else:
        lines = []
        for piece in doc["pieces"]:
            lines.append(f"piece m={piece['m']} n={piece['n']} count={piece['count']}")
            for el in piece["elements"]:
                lines.append(
                    f"  mu={el['mu']} r={el['r']} nu={el['nu']} s={el['s']}"
                    f" degree={el['degree']}"
                )
        _emit("\n".join(lines) + "\n" if lines else "", args.output)
    return 0


def _poly_payload(poly, args, names, meta: dict) -> int:
    if args.format == "text":
        _emit(poly.to_text(names) + "\n", args.output)
    else:
        terms = [
            {"z1": e1, "z2": e2, "q": eq, "coeff": c} for (e1, e2, eq), c in poly.terms()
        ]
        if names[0] == "z":
            terms = [
                {"z": e1, "q": eq, "coeff": c} for (e1, _, eq), c in poly.terms()
            ]
        _emit(_json_text({**meta, "terms": terms, "text": poly.to_text(names)}), args.output)
    return 0


def run_char(args) -> int:
    Params(args.k, args.l1, args.l2, min(args.l1, args.l2), args.M, args.N)
    poly = characters.fermionic_char(args.k, args.l1, args.l2, args.M, args.N)
    meta = {
        "command": "char",
        "k": args.k,
        "l1": args.l1,
        "l2": args.l2,
        "M": args.M,
        "N": args.N,
    }
    return _poly_payload(poly, args, ("z1", "z2", "q"), meta)


def run_char_bruteforce(args) -> int:
    p = Params(args.k, args.l1, args.l2, args.l3, args.M, args.N)
    poly = characters.char_R(p)
    meta = {"command": "char-bruteforce", **params_to_obj(p)}
    return _poly_payload(poly, args, ("z1", "z2", "q"), meta)


def run_sl2_char(args) -> int:
    poly = characters.sl2_char(args.k, args.l, args.M, args.N)
    meta = {"command": "sl2-char", "k": args.k, "l": args.l, "M": args.M, "N": args.N}
    return _poly_payload(poly, args, ("z", "_", "q"), meta)


# ---------------------------------------------------------------- verify grids

def _legal_labels(k: int):
    for l1 in range(k + 1):
        for l2 in range(k + 1):
            for l3 in range(min(l1, l2) + 1):
                yield l1, l2, l3


def _grid_recursion(a):
    for k in range(1, a.max_k + 1):
        for l1, l2, l3 in _legal_labels(k):
            for M in range(a.max_M + 1):
                for N in range(1, a.max_N + 1):
                    for m in range(a.max_weight + 1):
                        for n in range(a.max_weight + 1):
                            yield ("recursion", (k, l1, l2, l3, M, N, m, n))


def _grid_lower(a):
    for k in range(1, a.max_k + 1):
        for l1, l2, l3 in _legal_labels(k):
            for M in range(a.max_M + 1):
                for N in range(a.max_N + 1):
                    for m in range(a.max_weight + 1):
                        for n in range(a.max_weight + 1):
                            yield ("lower-decomp", (k, l1, l2, l3, M, N, m, n))


def _grid_upper(a):
    for k in range(1, a.max_k + 1):
        for l1 in range(k + 1):
            for aa in range(l1 + 1):
                for c in range(k - aa + 1):
                    for M in range(a.max_M + 1):
                        for N in range(1, a.max_N + 1):
                            for m in range(a.max_weight + 1):
                                for n in range(a.max_weight + 1):
                                    yield ("upper-decomp", (k, l1, aa, c, M, N, m, n))


def _grid_bijection(a):
    for k in range(1, a.max_k + 1):
        for l1 in range(k + 1):
            for l2 in range(k + 1):
                for M in range(a.max_M + 1):
                    for N in range(1, a.max_N + 1):
                        for m in range(a.max_weight + 1):
                            for n in range(a.max_weight + 1):
                                yield ("bijection", (k, l1, l2, M, N, m, n))


def _grid_fermionic(a):
    for k in range(1, a.max_k + 1):
        for l1 in range(k + 1):
            for l2 in range(k + 1):
                for M in range(a.max_M + 1):
                    for N in range(a.max_N + 1):
                        yield ("fermionic", (k, l1, l2, M, N))


def _grid_char_recursion(a):
    for k in range(1, a.max_k + 1):
        for l1, l2, l3 in _legal_labels(k):
            for M in range(a.max_M + 1):
                for N in range(1, a.max_N + 1):
                    yield ("char-recursion", (k, l1, l2, l3, M, N))


_GRIDS = {
    "recursion": (_grid_recursion, True),
    "lower-decomp": (_grid_lower, True),
    "upper-decomp": (_grid_upper, True),
    "bijection": (_grid_bijection, True),
    "fermionic": (_grid_fermionic, False),
    "char-recursion": (_grid_char_recursion, False),
}


def _check_point(task) -> tuple[bool, dict | None]:
    kind, point = task
    if kind == "recursion":
        k, l1, l2, l3, M, N, m, n = point
        rep = bijection.verify_recursion(Params(k, l1, l2, l3, M, N), m, n)
    elif kind == "lower-decomp":
        k, l1, l2, l3, M, N, m, n = point
        rep = bijection.verify_lower_decomposition(Params(k, l1, l2, l3, M, N), m, n)
    elif kind == "upper-decomp":
        k, l1, aa, c, M, N, m, n = point
        rep = bijection.verify_upper_decomposition(
            l1, aa, c, Params(k, k, k, 0, M, N), m, n
        )
    elif kind == "bijection":
        k, l1, l2, M, N, m, n = point
        rep = bijection.verify_bijection(Params(k, l1, l2, min(l1, l2), M, N), m, n)
    elif kind == "fermionic":
        k, l1, l2, M, N = point
        f = characters.fermionic_char(k, l1, l2, M, N)
        b = characters.char_R(Params(k, l1, l2, min(l1, l2), M, N))
        rep = Report(
            ok=(f == b),
            check="fermionic",
            context={"k": k, "l1": l1, "l2": l2, "M": M, "N": N},
            detail={"closed_form": f.to_text(), "bruteforce": b.to_text()},
        )
    elif kind == "char-recursion":
        k, l1, l2, l3, M, N = point
        rep = characters.char_recursion_check(k, l1, l2, l3, M, N)
    else:
        raise ValueError(f"unknown check {kind}")
    if rep.ok:
        return True, None
    return False, {"check": rep.check, "context": rep.context, "detail": rep.detail}


def _set_tau_skew(skew: int) -> None:
    """Install the fault-injection skew in this process.

    Also the pool initializer, so the skew reaches workers under every
    start method: a spawned or forkserver worker imports core afresh and
    would otherwise run with the default skew of zero.  Cached pieces were
    built under the old tau, so a change of skew drops them.
    """
    if core.TAU_SKEW != skew:
        core.TAU_SKEW = skew
        riggedsets.clear_cache()


def run_verify(args) -> int:
    grid_fn, needs_weight = _GRIDS[args.what]
    if needs_weight and args.max_weight is None:
        print(f"error: verify {args.what} requires --max-weight", file=sys.stderr)
        return 2
    _set_tau_skew(args.inject_tau_skew)
    tasks = list(grid_fn(args))
    jobs = _resolve_jobs(args)
    total = len(tasks)
    failure = None
    done = 0
    if jobs > 1:
        with Pool(
            jobs, initializer=_set_tau_skew, initargs=(args.inject_tau_skew,)
        ) as pool:
            for ok, payload in pool.imap(_check_point, tasks, chunksize=64):
                done += 1
                if done % 2000 == 0:
                    print(f"progress: {done}/{total}", file=sys.stderr)
                if not ok:
                    failure = payload
                    pool.terminate()
                    break
    else:
        for task in tasks:
            ok, payload = _check_point(task)
            done += 1
            if done % 2000 == 0:
                print(f"progress: {done}/{total}", file=sys.stderr)
            if not ok:
                failure = payload
                break
    grid_obj = {"max_k": args.max_k, "max_M": args.max_M, "max_N": args.max_N}
    if needs_weight:
        grid_obj["max_weight"] = args.max_weight
    if failure is None:
        _emit(
            _json_text(
                {
                    "command": "verify",
                    "check": args.what,
                    "grid": grid_obj,
                    "points": total,
                    "status": "pass",
                }
            ),
            args.output,
        )
        return 0
    _emit(
        _json_text(
            {
                "command": "verify",
                "check": args.what,
                "grid": grid_obj,
                "status": "fail",
                "counterexample": failure,
            }
        ),
        args.output,
    )
    return 1


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rigchar",
        description="Enumerate level-restricted rigged partition sets, compute "
        "their characters, and verify the recursion and decomposition "
        "identities exhaustively.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enum", help="enumerate every nonempty graded piece")
    _add_params_flags(sp, with_l3=True)
    _add_common_flags(sp)
    sp.set_defaults(fn=run_enum)

    sp = sub.add_parser("char", help="closed-form character (l3 = min(l1, l2))")
    _add_params_flags(sp, with_l3=False)
    _add_common_flags(sp)
    sp.set_defaults(fn=run_char)

    sp = sub.add_parser("char-bruteforce", help="character by direct enumeration")
    _add_params_flags(sp, with_l3=True)
    _add_common_flags(sp)
    sp.set_defaults(fn=run_char_bruteforce)

    sp = sub.add_parser("sl2-char", help="two-variable character in (z, q)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    _add_common_flags(sp)
    sp.set_defaults(fn=run_sl2_char)

    sp = sub.add_parser("verify", help="run one verifier over a parameter grid")
    sp.add_argument("what", choices=sorted(_GRIDS))
    sp.add_argument("--max-k", type=int, required=True)
    sp.add_argument("--max-M", type=int, required=True)
    sp.add_argument("--max-N", type=int, required=True)
    sp.add_argument("--max-weight", type=int, default=None)
    sp.add_argument("--inject-tau-skew", type=int, default=0, help=argparse.SUPPRESS)
    _add_common_flags(sp)
    sp.set_defaults(fn=run_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        report = {"status": "internal-error", "error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report, sort_keys=True))
        return 3


if __name__ == "__main__":
    sys.exit(main())
