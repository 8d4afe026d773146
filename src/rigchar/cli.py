"""Command-line front end: enumeration, characters, and every verifier.

Results go to stdout (JSON or canonical text), progress to stderr, so
captured output stays byte-stable.  verify splits its grid into blocks of
equal (k, M), which share no rigged-set cache entries, and checks whole
blocks on min(--jobs, number of blocks) workers: one runs the blocks
in-process in ascending (k, M) order, more are processes fed one block at
a time over pipes in descending order.  A block skips the points past the
lowest failing grid index known when it starts, and the lowest is
reported, so the output does not depend on the worker count.  Exit codes:
0 pass, 1 verified failure with a counterexample report, 2 usage error (a
plain ValueError), 3 internal failure (any other exception, or a dead
worker), reported as one JSON line on stdout.  main alone maps an
exception to its code.

Each verify check is one row of _CHECKS.  Its grid runs over k = 1..max_k,
the labels below, M = 0..max_M, N = first N..max_N and, with weights,
m, n = 0..max_weight:

    check           labels at level k                first N  weights
    recursion       (l1, l2, l3), l3 <= min(l1, l2)  1        yes
    lower-decomp    (l1, l2, l3)                     0        yes
    upper-decomp    (l1, a, c), a <= l1, a + c <= k  1        yes
    bijection       (l1, l2)                         1        yes
    fermionic       (l1, l2)                         0        no
    char-recursion  (l1, l2, l3)                     1        no
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from itertools import chain, product
from typing import Callable, NamedTuple

from . import bijection, characters, riggedsets
from .core import (
    Params,
    Report,
    pair_from_obj,
    pair_to_obj,
    params_from_obj,
    params_to_obj,
)

# ---------------------------------------------------------------- serialization

def _enum_pieces(p: Params, pieces: dict):
    """enum's pieces, given enumerate_total(p), each built when reached."""
    for (m, n), piece in pieces.items():
        elements = []
        for x, degree in zip(piece, characters.piece_degrees(piece, p.l1, p.l2)):
            obj = pair_to_obj(x)
            obj["degree"] = degree
            elements.append(obj)
        yield {"m": m, "n": n, "count": len(piece), "elements": elements}


def parse_enum_document(doc: dict):
    """Round-trip parser for the JSON document of enum."""
    p = params_from_obj(doc["params"])
    pieces = {}
    for piece in doc["pieces"]:
        elems = [pair_from_obj(p.k, obj) for obj in piece["elements"]]
        if len(elems) != piece["count"]:
            raise ValueError("piece count does not match its element list")
        pieces[(piece["m"], piece["n"])] = elems
    return p, pieces


def _emit(chunks, output: str | None) -> None:
    """Write each string of chunks to the file output, or to stdout if None.

    An output that cannot be written is a usage error (exit 2), not a
    failure report.  stdout is flushed here, so a failed write is seen
    here and not when the interpreter exits.
    """
    try:
        with open(output, "w") if output else nullcontext(sys.stdout) as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
    except OSError as exc:
        if output:
            raise ValueError(f"cannot write --output {output}: {exc.strerror}") from exc
        _discard_stdout()
        raise ValueError(f"cannot write stdout: {exc.strerror}") from exc


def _discard_stdout() -> None:
    """Point the file descriptor of stdout at os.devnull.

    Text a failed write left in stdout's buffer would fail again when the
    interpreter flushes stdout at exit, which prints a traceback and turns
    the exit code into 120.  A stdout with no descriptor is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


_encode_str = json.encoder.encode_basestring_ascii

_CHUNK = 1 << 16  # characters: a batch of list items reaches it, a JSON chunk never exceeds it


def _json_value(obj, nl: str, memo: dict) -> str:
    """obj as json.dumps(indent=2, sort_keys=True) writes it at the nesting
    whose line break and indent is nl.

    Lists and dicts are written here, a list of ints with one join, and
    any other value by json.dumps.  Dict keys must be str, as in every
    document the CLI writes; another key raises TypeError.

    memo maps (id(t), nl) to the text of each tuple t written so far and
    to t, which keeps the id from being reused: the rows of an enum
    document are tuples shared by many elements, so each is rendered once.
    Keying on identity, not equality, keeps (True, False) and (1.0, 0)
    apart from (1, 0).  memo also maps (keys, nl), a dict's keys in order,
    to a %-template, so dicts that share keys (enum elements, character
    terms) are written from one.  A tuple subclass (a core.Record value or
    a named tuple) is not a JSON value here and raises TypeError, where
    json.dumps would write a list.
    """
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is tuple:
        key = (id(obj), nl)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (_json_value(list(obj), nl, memo), obj)
        return hit[0]
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = nl + "  "
        if all(type(v) is int for v in obj):
            body = map(int.__repr__, obj)
        else:
            body = [_json_value(v, inner, memo) for v in obj]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        key = (tuple(obj), nl)
        form = memo.get(key)
        if form is None:
            inner = nl + "  "
            keys = sorted(obj)
            heads = [_encode_str(k).replace("%", "%%") + ": %s" for k in keys]
            form = memo[key] = ("{" + inner + ("," + inner).join(heads) + nl + "}", keys, inner)
        template, keys, inner = form
        return template % tuple([_json_value(obj[k], inner, memo) for k in keys])
    if isinstance(obj, tuple):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return json.dumps(obj)


def _json_parts(obj, nl: str, memo: dict):
    """obj as _json_value writes it, in parts.  obj, or a value of a dict
    written here, may be an iterator standing for the list of its items;
    these go out in batches of about _CHUNK characters, so many small items
    take few writes, and the memo lives for one batch."""
    inner = nl + "  "
    if isinstance(obj, Iterator):
        batch, size, sep = [], 0, "[" + inner
        for item in obj:
            batch.append(sep + _json_value(item, inner, memo))
            size += len(batch[-1])
            sep = "," + inner
            if size >= _CHUNK:
                yield "".join(batch)
                batch, size = [], 0
                memo.clear()
        batch.append("[]" if sep[0] == "[" else nl + "]")
        yield "".join(batch)
    elif isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key in sorted(obj):
            yield sep + _encode_str(key) + ": "
            yield from _json_parts(obj[key], inner, memo)
            sep = "," + inner
        yield nl + "}"
    else:
        yield _json_value(obj, nl, memo)


def _json_chunks(obj):
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, in chunks
    of at most _CHUNK characters; with an indent, json.dumps runs its slower
    pure-Python encoder.  A list outside any list may be an iterator."""
    for part in chain(_json_parts(obj, "\n", {}), ("\n",)):
        for start in range(0, len(part), _CHUNK):
            yield part[start:start + _CHUNK]


def _json_text(obj) -> str:
    """The chunks of _json_chunks(obj), joined."""
    return "".join(_json_chunks(obj))


# ---------------------------------------------------------------- subcommands

def _enum_text(pieces):
    """enum's text, a string per piece: a header, then a line per element."""
    for piece in pieces:
        yield f"piece m={piece['m']} n={piece['n']} count={piece['count']}\n" + "".join(
            f"  mu={list(el['mu'])} r={list(map(list, el['r']))}"
            f" nu={list(el['nu'])} s={list(map(list, el['s']))}"
            f" degree={el['degree']}\n"
            for el in piece["elements"]
        )


def run_enum(args) -> int:
    p = Params(args.k, args.l1, args.l2, args.l3, args.M, args.N)
    pieces = _enum_pieces(p, riggedsets.enumerate_total(p))
    if args.format == "json":
        _emit(_json_chunks({"params": params_to_obj(p), "pieces": pieces}), args.output)
    else:
        _emit(_enum_text(pieces), args.output)
    return 0


def _poly_payload(poly, args, names, meta: dict) -> int:
    if args.format == "text":
        _emit((poly.to_text(names), "\n"), args.output)
    else:
        if names[0] == "z":
            terms = ({"z": e1, "q": eq, "coeff": c} for (e1, _, eq), c in poly.terms())
        else:
            terms = (
                {"z1": e1, "z2": e2, "q": eq, "coeff": c} for (e1, e2, eq), c in poly.terms()
            )
        _emit(_json_chunks({**meta, "terms": terms, "text": poly.to_text(names)}), args.output)
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

def _labels_pair(k: int) -> list[tuple[int, ...]]:
    return list(product(range(k + 1), repeat=2))


def _labels_l3(k: int) -> list[tuple[int, ...]]:
    return [(l1, l2, l3) for l1, l2 in _labels_pair(k) for l3 in range(min(l1, l2) + 1)]


def _labels_upper(k: int) -> list[tuple[int, ...]]:
    return [(l1, a, c) for l1 in range(k + 1) for a in range(l1 + 1) for c in range(k - a + 1)]


class _Check(NamedTuple):
    """One verify check: the axes of its grid (see the module docstring)
    and run, which takes a point's coordinates and returns a Report.

    run looks its verifier up through the module at call time, so a
    wrapper installed there is the one run.
    """

    labels: Callable[[int], list[tuple[int, ...]]]
    first_N: int
    needs_weight: bool
    run: Callable[..., Report]


_CHECKS = {
    "recursion": _Check(
        _labels_l3, 1, True,
        lambda k, l1, l2, l3, M, N, m, n: bijection.verify_recursion(
            Params(k, l1, l2, l3, M, N), m, n
        ),
    ),
    "lower-decomp": _Check(
        _labels_l3, 0, True,
        lambda k, l1, l2, l3, M, N, m, n: bijection.verify_lower_decomposition(
            Params(k, l1, l2, l3, M, N), m, n
        ),
    ),
    "upper-decomp": _Check(
        _labels_upper, 1, True,
        lambda k, l1, a, c, M, N, m, n: bijection.verify_upper_decomposition(
            l1, a, c, Params(k, k, k, 0, M, N), m, n
        ),
    ),
    "bijection": _Check(
        _labels_pair, 1, True,
        lambda k, l1, l2, M, N, m, n: bijection.verify_bijection(
            Params(k, l1, l2, min(l1, l2), M, N), m, n
        ),
    ),
    "fermionic": _Check(
        _labels_pair, 0, False,
        lambda k, l1, l2, M, N: characters.verify_fermionic(
            Params(k, l1, l2, min(l1, l2), M, N)
        ),
    ),
    "char-recursion": _Check(
        _labels_l3, 1, False, lambda *point: characters.char_recursion_check(*point)
    ),
}


def _check_point(what: str, point: tuple) -> dict | None:
    """None if the grid point passes check what, else its counterexample report."""
    rep = _CHECKS[what].run(*point)
    if rep.ok:
        return None
    return {"check": rep.check, "context": rep.context, "detail": rep.detail}


def _check_block(stop_at: int, block) -> tuple[int, tuple[int, dict] | None]:
    """The size of a block and the grid index and report of its first
    failing point, or None.

    A block is (check name, (k, M), points), its points (grid index,
    point) pairs in grid order.  Points at or past stop_at, the lowest
    failing index seen when the block starts, are skipped: a failure
    there cannot be the first in grid order.
    """
    what, _, points = block
    for index, point in points:
        if index >= stop_at:
            break
        failure = _check_point(what, point)
        if failure is not None:
            return len(points), (index, failure)
    return len(points), None


def _worker(conn) -> None:
    """Answer each (stop index, block) on conn with _check_block's result, until None."""
    for task in iter(conn.recv, None):
        try:
            result = _check_block(*task)
        except Exception as exc:
            result = exc
        conn.send(result)


def _on_workers(blocks: list[tuple], workers: int, stop_at: Callable[[], int]):
    """The results of blocks checked on worker processes, as they finish.
    A worker gets its next block with stop_at() once its last result is
    taken, then None.  Its exception, or RuntimeError if it dies, is
    raised here once every worker is terminated."""
    # Imported here so that the runs that start no worker do not pay for it.
    import multiprocessing
    from multiprocessing.connection import wait

    todo, procs, busy = iter(blocks), {}, {}  # busy: pipe end -> its block
    try:
        for _ in range(workers):
            conn, child = multiprocessing.Pipe()
            procs[conn] = multiprocessing.Process(target=_worker, args=(child,))
            procs[conn].start()
            child.close()
        idle = list(procs)
        while idle:
            for conn in idle:
                block = next(todo, None)
                conn.send(None if block is None else (stop_at(), block))
                if block is not None:
                    busy[conn] = block
            idle = wait(list(busy)) if busy else []
            for conn in idle:
                block = busy.pop(conn)
                try:
                    result = conn.recv()
                except EOFError:
                    raise RuntimeError(f"a worker died in block (k, M) = {block[1]}") from None
                if isinstance(result, BaseException):
                    raise result
                yield result
    except BaseException:
        for proc in procs.values():
            proc.terminate()
        raise
    finally:
        for proc in procs.values():
            proc.join()


def _run_blocks(blocks: list[tuple], workers: int, total: int) -> dict | None:
    """The report of the first failing point in grid order, or None.

    blocks come in ascending (k, M) order.  One worker checks them
    in-process in that order, so a failure in a small block stops the
    larger ones early; more check them in descending order, costliest
    first, and read every result, since a block that finishes later may
    hold an earlier failure.  A block reads stop_at once, when handed out.
    """
    stop_at, failure, done = total, None, 0
    if workers > 1:
        results = _on_workers(blocks[::-1], workers, lambda: stop_at)
    else:
        # The generator reads stop_at afresh for each block.
        results = (_check_block(stop_at, block) for block in blocks)
    for size, found in results:
        done += size
        print(f"progress: {done}/{total}", file=sys.stderr)
        if found is not None and found[0] < stop_at:
            stop_at, failure = found
    return failure


def run_verify(args) -> int:
    check = _CHECKS[args.what]
    if check.needs_weight != (args.max_weight is not None):
        need = "requires" if check.needs_weight else "does not take"
        raise ValueError(f"verify {args.what} {need} --max-weight")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    weights = [range(args.max_weight + 1)] * 2 if check.needs_weight else []
    points = product(
        [(k, *labels) for k in range(1, args.max_k + 1) for labels in check.labels(k)],
        range(args.max_M + 1),
        range(check.first_N, args.max_N + 1),
        *weights,
    )
    # Every enumerate_R piece a check reads at a point has the point's k
    # and M; only its labels and N may differ.  So blocks of equal (k, M)
    # share no _R_CACHE entries, where blocks of equal labels would.
    blocks: dict[tuple[int, int], list] = {}
    for index, (kl, M, N, *mn) in enumerate(points):
        blocks.setdefault((kl[0], M), []).append((index, (*kl, M, N, *mn)))
    if not blocks:
        raise ValueError(f"verify {args.what} has no grid points")
    total = sum(map(len, blocks.values()))
    order = [(args.what, key, blocks[key]) for key in sorted(blocks)]
    failure = _run_blocks(order, min(args.jobs, len(blocks)), total)
    grid_obj = {"max_k": args.max_k, "max_M": args.max_M, "max_N": args.max_N}
    if check.needs_weight:
        grid_obj["max_weight"] = args.max_weight
    doc = {"command": "verify", "check": args.what, "grid": grid_obj}
    if failure is None:
        doc.update(status="pass", points=total)
    else:
        doc.update(status="fail", counterexample=failure)
    _emit(_json_chunks(doc), args.output)
    return 0 if failure is None else 1


# ---------------------------------------------------------------- entry point

# The commands that write one result: name, help, integer flags (space-separated), runner.
_COMMANDS = (
    ("enum", "enumerate every nonempty graded piece", "k l1 l2 l3 M N", run_enum),
    ("char", "closed-form character (l3 = min(l1, l2))", "k l1 l2 M N", run_char),
    ("char-bruteforce", "character by direct enumeration", "k l1 l2 l3 M N", run_char_bruteforce),
    ("sl2-char", "two-variable character in (z, q)", "k l M N", run_sl2_char),
)
_FLAG_HELP = {"k": "level"}
_OUTPUT_HELP = "write to file instead of stdout"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rigchar",
        description="Enumerate level-restricted rigged partition sets, compute "
        "their characters, and verify the recursion and decomposition "
        "identities exhaustively.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_text, flags, fn in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            sp.add_argument(f"--{flag}", type=int, required=True, help=_FLAG_HELP.get(flag))
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--output", default=None, help=_OUTPUT_HELP)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("verify", help="run one verifier over a parameter grid")
    sp.add_argument("what", choices=sorted(_CHECKS))
    sp.add_argument("--max-k", type=int, required=True)
    sp.add_argument("--max-M", type=int, required=True)
    sp.add_argument("--max-N", type=int, required=True)
    sp.add_argument("--max-weight", type=int, default=None)
    sp.add_argument("--output", default=None, help=_OUTPUT_HELP)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sp.set_defaults(fn=run_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        # A plain ValueError is a usage error.  Any other exception, a
        # core.InvariantError too, is a fault of the program: never exit 1.
        if type(exc) is ValueError:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = {"status": "internal-error", "error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report, sort_keys=True))
        return 3


if __name__ == "__main__":
    sys.exit(main())
