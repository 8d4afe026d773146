"""Write digests_closed_form.json: the sha256 of the text form of the closed
character at every point of its reference grid, and of sl2_char at every
point of its own.

    fermionic_char(k, l1, l2, M, N)   1 <= k <= 4, 0 <= l1, l2 <= k, 0 <= M, N <= 4
    sl2_char(k, l, M, N)              1 <= k <= 4, 0 <= l <= k,      0 <= M, N <= 4

A key is the point's arguments joined by commas.  Run from the repository
root, writing the document to stdout:

    PYTHONPATH=src python tests/data/digests_closed_form.py > tests/data/digests_closed_form.json

The tests never run this script; they recompute the points with k <= 3
and compare them with the file.  Regenerate the file only with a change
that changes the mathematics, and say why.
"""

import hashlib
import json
import sys
from itertools import product

from rigchar.characters import fermionic_char, sl2_char

MAX_K = 4
MAX_CUTOFF = 4


def digest(poly) -> str:
    return hashlib.sha256(poly.to_text().encode()).hexdigest()


def main() -> None:
    cutoffs = range(MAX_CUTOFF + 1)
    doc = {"fermionic_char": {}, "sl2_char": {}}
    for k in range(1, MAX_K + 1):
        labels = range(k + 1)
        for point in product([k], labels, labels, cutoffs, cutoffs):
            doc["fermionic_char"][",".join(map(str, point))] = digest(fermionic_char(*point))
        for point in product([k], labels, cutoffs, cutoffs):
            doc["sl2_char"][",".join(map(str, point))] = digest(sl2_char(*point))
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
