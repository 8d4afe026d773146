"""Source mutants of rigchar and the verify battery that must tell them apart.

Each row of MUTANTS replaces one exact piece of text in one module of
src/rigchar.  Its codes are the exit codes of the six BATTERY checks, in
order, on the mutated copy: 0 pass, 1 counterexample, 2 usage error,
3 internal error.  A row that no check catches says why in its note: an
equivalent control, or the open ROADMAP item whose check will catch it.

Run from anywhere, with no arguments:

    python tests/mutants.py

For each row it copies src/rigchar into a temporary directory, applies
the row, runs the battery at --jobs 1 with PYTHONPATH set to the copy,
and prints the row's codes.  A check that exits 3 runs again at --jobs 2,
on worker processes: a fault is reported as the least faulty or failing
point, so both runs must give the same code and stdout, and a check whose
do not reads J.  It exits 1 if any codes differ from the table.  A row
whose old text does not occur exactly once is an error.

A row's expected codes change only together with a stated reason: a
check that catches less than it did is a regression of the verifier.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src" / "rigchar"

# The six checks, each on a grid that takes well under a second unmutated.
BATTERY = (
    "recursion --max-k 3 --max-weight 4 --max-M 2 --max-N 2",
    "lower-decomp --max-k 3 --max-weight 2 --max-M 1 --max-N 2",
    "upper-decomp --max-k 3 --max-weight 4 --max-M 2 --max-N 2",
    "bijection --max-k 3 --max-weight 4 --max-M 2 --max-N 2",
    "char-recursion --max-k 2 --max-M 2 --max-N 2",
    "fermionic --max-k 3 --max-M 2 --max-N 2",
)

# A mutant can loop forever; no unmutated battery check comes near this.
TIMEOUT_S = 60


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    codes: str  # one exit code per BATTERY check, in order
    note: str = ""  # why no BATTERY check catches it, where none does


MUTANTS = (
    # core
    Mutant(
        "vac+1", "core.py",
        "alpha * M - pos_part(alpha - l) - 2 * a\n",
        "alpha * M - pos_part(alpha - l) - 2 * a + 1\n",
        "100111",
    ),
    Mutant(
        "vac-l", "core.py",
        "pos_part(alpha - l) - 2 * a\n",
        "pos_part(alpha - l - 1) - 2 * a\n",
        "111111",
    ),
    Mutant(
        "minsum", "core.py",
        "        acc += tail\n        tail -= x\n",
        "        tail -= x\n        acc += tail\n",
        "111111",
    ),
    Mutant(
        "tau-l3", "core.py",
        "- pos_part(beta - l2)\n        - l3\n",
        "- pos_part(beta - l2)\n        - l3 // 2\n",
        "111111",
    ),
    Mutant(
        "tau-min", "core.py",
        "min(alpha, beta)\n        - pos_part(alpha - l1)",
        "max(alpha, beta)\n        - pos_part(alpha - l1)",
        "111111",
    ),
    Mutant(
        "tau-swap", "core.py",
        "- pos_part(alpha - l1)\n        - pos_part(beta - l2)\n",
        "- pos_part(alpha - l2)\n        - pos_part(beta - l1)\n",
        "111010",
    ),
    Mutant(
        "tau+1", "core.py",
        "- pos_part(beta - l2)\n        - l3\n",
        "- pos_part(beta - l2)\n        - l3\n        + 1\n",
        "111111",
    ),
    Mutant(
        "tau-1", "core.py",
        "- pos_part(beta - l2)\n        - l3\n",
        "- pos_part(beta - l2)\n        - l3\n        - 1\n",
        "111010",
    ),
    Mutant(
        "tau+2", "core.py",
        "- pos_part(beta - l2)\n        - l3\n",
        "- pos_part(beta - l2)\n        - l3\n        + 2\n",
        "111111",
    ),
    # riggedsets
    Mutant(
        "empty", "riggedsets.py",
        "    if m < 0 or n < 0:\n        return\n",
        "    if True:\n        return\n",
        "000001",
    ),
    Mutant(
        "feas", "riggedsets.py",
        "if min(P) < 0:",
        "if min(P) < -1:",
        "000001",
    ),
    Mutant(
        "cell", "riggedsets.py",
        "k - p.l1 - k * p.M",
        "k - p.l1 - k * p.M + 1",
        "100111",
    ),
    Mutant(
        "need0", "riggedsets.py",
        "need = tuple(max(0, max(map(sub, col, bottoms))) for _, col in cols)",
        "need = tuple(max(0, max(map(sub, col, bottoms)) + 1) for _, col in cols)",
        "111010",
    ),
    Mutant(
        "cutoff", "riggedsets.py",
        "if row and row[0] > bound:",
        "if row and row[0] >= bound:",
        "000100",
    ),
    Mutant(
        "crash", "riggedsets.py",
        "s_objs = s_by_need.get(need)",
        "s_objs = s_by_need[need]",
        "333333",
    ),
    Mutant(
        "wbound", "riggedsets.py",
        "(2 * k * M + k * N) // 3,\n",
        "(2 * k * M + k * N) // 3 - 1,\n",
        "000010",
    ),
    Mutant(
        "rsum", "riggedsets.py",
        "sum(map(sum, r))",
        "sum(map(len, r))",
        "000011",
    ),
    # admissible
    Mutant(
        "kappa<", "admissible.py",
        "sum(v <= a for v in plus)",
        "sum(v < a for v in plus)",
        "011100",
    ),
    Mutant(
        "eps", "admissible.py",
        "(a in I) - (a + 1 in I)",
        "(a in I) - (a - 1 in I)",
        "011100",
    ),
    Mutant(
        "t-pad", "admissible.py",
        "vprime = [k + 1] * p",
        "vprime = [k] * p",
        "011100",
    ),
    Mutant(
        "adm", "admissible.py",
        "v <= u < vp for u, v, vp",
        "v <= u <= vp for u, v, vp",
        "003300",
    ),
    Mutant(
        "primed", "admissible.py",
        "    l2p = k - c\n",
        "    l2p = k - c - (c > 1)\n",
        "303330",
    ),
    Mutant(
        "sigma", "admissible.py",
        "kappa(k, range(1, l2 + 1), J)",
        "kappa(k, range(1, l2), J)",
        "010100",
    ),
    Mutant(
        "rho'", "admissible.py",
        "kappa(k, tI, range(l1p + 1, k + 1))",
        "kappa(k, tI, range(l1p + 2, k + 1))",
        "001100",
    ),
    Mutant(
        "dr", "admissible.py",
        "(*I, *I, *range(l1 + 1, k + 1))",
        "(*I, *range(l1 + 1, k + 1))",
        "000100",
    ),
    # bijection
    Mutant(
        "mark", "bijection.py",
        "tuple(e == 1 for e in epsilon(k, I)) +",
        "tuple(False for e in epsilon(k, I)) +",
        "010100",
    ),
    Mutant(
        "markU", "bijection.py",
        "+ tuple(e == -1 for e in epsilon(k, J))",
        "+ tuple(e == 1 for e in epsilon(k, J))",
        "001100",
    ),
    # characters
    Mutant(
        "degD", "characters.py",
        "pos_part(alpha - l2) * y",
        "pos_part(alpha - l1) * y",
        "000010",
    ),
    Mutant(
        "degX", "characters.py",
        "total += x * (ax - ay) + y * ay\n",
        "total += x * ax - (x - y) * ay\n",
        "000000",
        "equivalent control: the same degree, rewritten",
    ),
    Mutant(
        "pascal", "characters.py",
        "gauss_binomial(m - 1, n).mapped(times=(0, 0, n))",
        "gauss_binomial(m - 1, n).mapped(times=(0, 0, n - 1))",
        "000001",
    ),
    Mutant(
        "width", "characters.py",
        "width = total.bit_length()\n",
        "width = (total.bit_length() + 1) // 2\n",
        "000003",
    ),
    Mutant(
        "width18", "characters.py",
        "width = total.bit_length()\n",
        "width = min(total.bit_length(), 18)\n",
        "000000",
        "ROADMAP item 1: no battery cell is wider than 18 bits",
    ),
    Mutant(
        "sl2M", "characters.py",
        "first = fermionic_char(k, l, k - l, M + 1, N)",
        "first = fermionic_char(k, l, k - l, M, N)",
        "000000",
        "ROADMAP item 9: no verify check reads sl2_char",
    ),
    Mutant(
        "sl2c", "characters.py",
        "poly = first - second\n",
        "poly = first\n",
        "000000",
        "ROADMAP item 9: no verify check reads sl2_char",
    ),
    Mutant(
        "sl2q", "characters.py",
        "z1=(2, 0, -1)",
        "z1=(2, 0, 0)",
        "000000",
        "ROADMAP item 9: no verify check reads sl2_char",
    ),
    Mutant(
        "recq", "characters.py",
        "z2=(0, 1, 1)",
        "z2=(0, 1, 0)",
        "000010",
    ),
)
BY_ID = {row.id: row for row in MUTANTS}


def mutate(row: Mutant, root: Path) -> Path:
    """Copy src/rigchar to root/rigchar with row applied; return root, the
    directory to put on PYTHONPATH.  The old text must occur exactly once."""
    dest = root / "rigchar"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    path = dest / row.file
    text = path.read_text()
    found = text.count(row.old)
    if found != 1:
        raise ValueError(f"mutant {row.id}: old text occurs {found} times in {row.file}")
    path.write_text(text.replace(row.old, row.new))
    return root


def run_check(check: str, jobs: str, env: dict) -> tuple[int, bytes] | None:
    """The exit code and stdout of verify check at --jobs jobs in env, or
    None if it ran past TIMEOUT_S."""
    argv = [sys.executable, "-m", "rigchar", "verify", *check.split(), "--jobs", jobs]
    try:
        proc = subprocess.run(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, proc.stdout


def run_battery(root: Path) -> str:
    """The exit code of each BATTERY check at --jobs 1 with root on
    PYTHONPATH, as a string; T marks a check that ran past TIMEOUT_S, and J
    one that exits 3 but gives another code or stdout at --jobs 2."""
    env = {**os.environ, "PYTHONPATH": str(root)}
    codes = ""
    for check in BATTERY:
        found = run_check(check, "1", env)
        if found is None:
            codes += "T"
        elif found[0] == 3 and run_check(check, "2", env) != found:
            codes += "J"
        else:
            codes += str(found[0])
    return codes


def main() -> int:
    start = time.perf_counter()
    print(f"{'mutant':<10}{' '.join(check[:3] for check in BATTERY)}")
    wrong = []
    for row in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            codes = run_battery(mutate(row, Path(tmp)))
        flag = "" if codes == row.codes else f"  expected {' '.join(row.codes)}"
        print(f"{row.id:<10}{'   '.join(codes)}{flag}", flush=True)
        if flag:
            wrong.append(row.id)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    if wrong:
        print(f"codes differ from the table: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
