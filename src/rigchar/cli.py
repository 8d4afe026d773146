"""Command-line front end: enumeration, characters, and every verifier.

Results go to stdout (JSON or canonical text), progress to stderr, so
captured output stays byte-stable.  verify splits its grid into blocks of
equal (k, M), which share no rigged-set cache entries, and checks whole
blocks on min(--jobs, number of blocks) workers: one runs the blocks
in-process in ascending (k, M) order, more are processes fed one block at
a time over pipes in descending order.  A block builds its points, skips
those at or past the least failing point known when it starts, and the
least failing point wins, a point's fault as much as its failure, so the
output does not depend on the worker count.  Exit codes: 0 pass, 1
verified failure with a counterexample report, 2 usage error (a plain
ValueError), 3 internal failure (a point's fault, any other exception, or
a dead worker), which _internal_error reports as one JSON line on stdout,
or, if stdout cannot take it, as one error line on stderr.  main alone
maps an exception to its code; console_entry, the entry point of python
-m rigchar and of the rigchar script, runs main and ends the process
without the interpreter's teardown.  A command imports the modules it
runs when it runs, so the character commands never load bijection and
the bijection checks never load characters.

JSON is written by _json_chunks, byte for byte as json.dumps(indent=2,
sort_keys=True) writes it, in chunks of at most _CHUNK characters; a long
list goes out a batch of items at a time.  A character's terms are
sorted once, for its "terms" and its "text", and each term is written
from one %-template (_Rows), with no dict built for it.

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

A failing point is reported as {"point": {"k", the labels named above, "M",
"N"[, "m", "n"]}, "detail": its Report's evidence}, and a point whose
verifier raises, its fault, as {"point", "error", "message"}, by _check_point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from functools import partial
from itertools import chain, product
from types import ModuleType
from typing import Callable, NamedTuple, NoReturn

from .core import (
    Params,
    pair_from_obj,
    pair_to_obj,
    params_from_obj,
    params_to_obj,
)

# ---------------------------------------------------------------- serialization

def _enum_pieces(pieces: dict, l1: int, l2: int):
    """enum's pieces, given enumerate_total of a set with labels l1 and l2,
    each built when reached."""
    from . import characters

    for (m, n), piece in pieces.items():
        elements = []
        for x, degree in zip(piece, characters.piece_degrees(piece, l1, l2)):
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

    Text a failed write left in stdout's buffer would fail again at the
    final flush, console_entry's or the interpreter's at exit, which turns
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


def _dict_template(keys, nl: str) -> str:
    """The %-template of a dict with the given sorted, non-empty str keys,
    written at the nesting whose line break and indent is nl: one %s
    field per key, in order, for the text of its value."""
    inner = nl + "  "
    heads = [_encode_str(k).replace("%", "%%") + ": %s" for k in keys]
    return "{" + inner + ("," + inner).join(heads) + nl + "}"


class _Rows(NamedTuple):
    """A list of dicts that share their keys and hold only ints, given as
    keys, sorted, and an iterable of one tuple of values per dict, in key
    order.  It may stand wherever an iterator may in a document given to
    _json_chunks.  Each dict is written from one %-template, and none is
    built.  The values must be of type int, whose str is their JSON text;
    a bool's is not."""

    keys: tuple[str, ...]
    values: Iterable[tuple[int, ...]]


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
    to a %-template, so dicts that share keys (enum elements) are written
    from one.  A tuple subclass (a core.Record value or
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
            keys = sorted(obj)
            form = memo[key] = (_dict_template(keys, nl), keys, nl + "  ")
        template, keys, inner = form
        return template % tuple([_json_value(obj[k], inner, memo) for k in keys])
    if isinstance(obj, tuple):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return json.dumps(obj)


def _json_parts(obj, nl: str, memo: dict):
    """obj as _json_value writes it, in parts.  obj, or a value of a dict
    written here, may be an iterator standing for the list of its items,
    or _Rows; the items go out in batches of about _CHUNK characters, so
    many small items take few writes, and the memo lives for one batch."""
    inner = nl + "  "
    if isinstance(obj, _Rows):
        rows = map(_dict_template(obj.keys, inner).__mod__, obj.values)
        yield from _list_parts(rows, nl, memo)
    elif isinstance(obj, Iterator):
        items = (_json_value(item, inner, memo) for item in obj)
        yield from _list_parts(items, nl, memo)
    elif isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key in sorted(obj):
            yield sep + _encode_str(key) + ": "
            yield from _json_parts(obj[key], inner, memo)
            sep = "," + inner
        yield nl + "}"
    else:
        yield _json_value(obj, nl, memo)


def _list_parts(items, nl: str, memo: dict):
    """The list whose items are written as the strings of items, at the
    nesting whose line break and indent is nl, in batches of about _CHUNK
    characters; memo is cleared after each batch."""
    # head opens the next batch: the list, or the separator after the last.
    batch, size, head, sep = [], 0, "[" + nl + "  ", "," + nl + "  "
    for item in items:
        batch.append(item)
        size += len(item)
        if size >= _CHUNK:
            yield head + sep.join(batch)
            batch, size, head = [], 0, sep
            memo.clear()
    if batch:
        yield head + sep.join(batch) + nl + "]"
    else:
        yield nl + "]" if head is sep else "[]"


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
    from . import riggedsets

    p = Params(args.k, args.l1, args.l2, args.l3, args.M, args.N)
    pieces = _enum_pieces(riggedsets.enumerate_total(p), args.l1, args.l2)
    if args.format == "json":
        _emit(_json_chunks({"params": params_to_obj(p), "pieces": pieces}), args.output)
    else:
        _emit(_enum_text(pieces), args.output)
    return 0


def _poly_payload(poly, args, names, meta: dict) -> int:
    """Write a character: its canonical text, or meta with its "terms",
    one {"coeff", "q", and a key per z axis} row per term, and "text".
    The terms are sorted once, for both."""
    items = poly.terms()
    text = poly.to_text(names, items)
    if args.format == "text":
        _emit((text, "\n"), args.output)
        return 0
    if names[0] == "z":
        terms = _Rows(("coeff", "q", "z"), ((c, eq, e1) for (e1, _, eq), c in items))
    else:
        terms = _Rows(
            ("coeff", "q", "z1", "z2"), ((c, eq, e1, e2) for (e1, e2, eq), c in items)
        )
    _emit(_json_chunks({**meta, "terms": terms, "text": text}), args.output)
    return 0


def _run_character(poly_of, names, args) -> int:
    """Write the character poly_of(characters module, *values) of a
    character command, in the variables names.  args.flags names the
    command's integer flags in order, values are theirs, and the JSON head
    is the command's name and those flags with their values."""
    from . import characters

    flags = {flag: getattr(args, flag) for flag in args.flags}
    poly = poly_of(characters, *flags.values())
    return _poly_payload(poly, args, names, {"command": args.command, **flags})


# ---------------------------------------------------------------- verify grids

def _labels_pair(k: int) -> list[tuple[int, ...]]:
    return list(product(range(k + 1), repeat=2))


def _labels_l3(k: int) -> list[tuple[int, ...]]:
    return [(l1, l2, l3) for l1, l2 in _labels_pair(k) for l3 in range(min(l1, l2) + 1)]


def _labels_upper(k: int) -> list[tuple[int, ...]]:
    return [(l1, a, c) for l1 in range(k + 1) for a in range(l1 + 1) for c in range(k - a + 1)]


_LABELS = {"l1 l2 l3": _labels_l3, "l1 a c": _labels_upper, "l1 l2": _labels_pair}


class _Check(NamedTuple):
    """One verify check: the axes of its grid (see the module docstring),
    label_names, its labels' names, which key their lists in _LABELS,
    module, the name of the rigchar module that holds its verifier, and
    verifier, the name of that function, which takes a point's coordinates
    (k, *labels, M, N[, m, n]) as parameters of those names and returns a
    Report.

    Each block imports module once, so a run imports only the modules its
    check reads.  The verifier is looked up through the module at call
    time, so a wrapper installed there is the one run.
    """

    label_names: str
    first_N: int
    needs_weight: bool
    module: str
    verifier: str

    def labels(self, k: int) -> list[tuple[int, ...]]:
        """The label tuples at level k, in ascending order."""
        return _LABELS[self.label_names](k)


_CHECKS = {
    "recursion": _Check("l1 l2 l3", 1, True, "bijection", "verify_recursion"),
    "lower-decomp": _Check("l1 l2 l3", 0, True, "bijection", "verify_lower_decomposition"),
    "upper-decomp": _Check("l1 a c", 1, True, "bijection", "verify_upper_decomposition"),
    "bijection": _Check("l1 l2", 1, True, "bijection", "verify_bijection"),
    "fermionic": _Check("l1 l2", 0, False, "characters", "verify_fermionic"),
    "char-recursion": _Check("l1 l2 l3", 1, False, "characters", "char_recursion_check"),
}


def _check_point(what: str, module: ModuleType, point: tuple) -> dict | None:
    """None if the grid point passes check what, whose verifier module is
    module, else its failure or fault report, whose "point" names each
    coordinate as the verifier's parameter, so that it replays as verifier(**point)."""
    check = _CHECKS[what]
    try:
        rep = getattr(module, check.verifier)(*point)
        if rep.ok:
            return None
        found = {"detail": rep.detail}
    except Exception as exc:
        found = {"error": type(exc).__name__, "message": str(exc)}
    names = ("k", *check.label_names.split(), "M", "N", "m", "n")
    return {"point": dict(zip(names, point)), **found}


def _check_block(stop_at: tuple, block) -> tuple[tuple, dict] | None:
    """The least failing point of a block and its report, or None.

    A block is (check name, k, M, max_N, max_weight).  Its points
    (k, *labels, M, N, m, n) are built here in grid order, their order as
    tuples, since each labels list ascends.  Points at or past stop_at, the
    least failing point seen when the block starts, cannot fail first.
    """
    what, k, M, max_N, max_weight = block
    check = _CHECKS[what]
    # __import__ takes the interpreter's import path, which python -X importtime
    # reports; importlib.import_module bypasses it.
    module = getattr(__import__(__package__, fromlist=[check.module]), check.module)
    weights = [range(max_weight + 1)] * 2 if check.needs_weight else []
    for labels, N, *mn in product(check.labels(k), range(check.first_N, max_N + 1), *weights):
        point = (k, *labels, M, N, *mn)
        if point >= stop_at:
            break
        failure = _check_point(what, module, point)
        if failure is not None:
            return point, failure
    return None


def _worker(conn) -> None:
    """Answer each (stop point, block) on conn with _check_block's result, until None."""
    for task in iter(conn.recv, None):
        conn.send(_check_block(*task))


def _on_workers(blocks: list[tuple], workers: int, stop_at: Callable[[], tuple]):
    """(block, result) for blocks checked on worker processes, as they
    finish.  A worker gets its next block with stop_at() once its last
    result is taken, then None.  If one dies, RuntimeError is raised here
    once every worker is terminated."""
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
                    raise RuntimeError(f"a worker died in block (k, M) = {block[1:3]}") from None
                yield block, result
    except BaseException:
        for proc in procs.values():
            proc.terminate()
        raise
    finally:
        for proc in procs.values():
            proc.join()


def _run_blocks(blocks: dict[tuple, int], workers: int, total: int) -> dict | None:
    """The report of the least failing or faulty point, or None.

    blocks map each to its size, in ascending (k, M) order.  One worker
    checks them in-process in that order, so a failure in a small block
    stops the larger ones early; more check them in descending order,
    costliest first, and read every result, since a block that finishes
    later may hold a lesser failing point.  A block reads stop_at once, when
    handed out; it starts at (max_k + 1,), above every point.
    """
    stop_at, failure, done = (max(blocks)[1] + 1,), None, 0
    if workers > 1:
        results = _on_workers(list(blocks)[::-1], workers, lambda: stop_at)
    else:
        # The generator reads stop_at afresh for each block.
        results = ((block, _check_block(stop_at, block)) for block in blocks)
    for block, found in results:
        done += blocks[block]
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
    per_labels = len(range(check.first_N, args.max_N + 1))
    if check.needs_weight:
        per_labels *= len(range(args.max_weight + 1)) ** 2
    # Every enumerate_R piece a check reads at a point has the point's k
    # and M; only its labels and N may differ.  So blocks of equal (k, M)
    # share no _R_CACHE entries, where blocks of equal labels would.
    blocks = {
        (args.what, k, M, args.max_N, args.max_weight): len(check.labels(k)) * per_labels
        for k in range(1, args.max_k + 1)
        for M in range(args.max_M + 1)
    }
    total = sum(blocks.values())
    if not total:
        raise ValueError(f"verify {args.what} has no grid points")
    failure = _run_blocks(blocks, min(args.jobs, len(blocks)), total)
    if failure is not None and "error" in failure:
        return _internal_error(failure)
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

# The commands that write one result: name, help, integer flags (space-separated),
# runner.  A character command runs _run_character with its polynomial, a
# function of the characters module and its flags' values in order, and the
# names of its variables.
_COMMANDS = (
    ("enum", "enumerate every nonempty graded piece", "k l1 l2 l3 M N", run_enum),
    ("char", "closed-form character (l3 = min(l1, l2))", "k l1 l2 M N", partial(
        _run_character, lambda mod, *flags: mod.fermionic_char(*flags), ("z1", "z2", "q")
    )),
    ("char-bruteforce", "character by direct enumeration", "k l1 l2 l3 M N", partial(
        _run_character, lambda mod, *flags: mod.char_R(Params(*flags)), ("z1", "z2", "q")
    )),
    ("sl2-char", "two-variable character in (z, q)", "k l M N", partial(
        _run_character, lambda mod, *flags: mod.sl2_char(*flags), ("z", "_", "q")
    )),
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
        sp.set_defaults(fn=fn, flags=flags.split())

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


def _internal_error(report: dict) -> int:
    """Write a fault's report as one JSON line on stdout, or why it cannot on stderr; 3."""
    try:
        _emit((json.dumps({**report, "status": "internal-error"}, sort_keys=True), "\n"), None)
    except ValueError as unwritten:
        print(f"error: {unwritten}", file=sys.stderr)
    return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        # A plain ValueError is a usage error; any other is a fault: never exit 1.
        if type(exc) is ValueError:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _internal_error({"error": type(exc).__name__, "message": str(exc)})


def console_entry(argv=None) -> NoReturn:
    """Run main and end the process with its exit code, skipping the
    interpreter's teardown, which would free every object still alive,
    the rigged-set caches included.

    os._exit runs no exit handler and flushes no stream, so stdout and
    stderr are flushed here; a flush that fails exits 120, as the
    interpreter's own exit would.  Worker processes are joined before
    main returns.  Tests call main in-process instead.
    """
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: --help, or a usage error
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        code = 120
    os._exit(code)


if __name__ == "__main__":
    console_entry()
