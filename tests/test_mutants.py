"""The source-mutant table of tests/mutants.py: every row applies to today's
src/rigchar, README's mutation matrix lists the same rows, and a subset of
one mutant per module, the tau+1 mutant and the equivalent control gets
exactly its recorded battery codes."""

import re
from pathlib import Path

import pytest

import mutants

README = Path(__file__).resolve().parent.parent / "README.md"

# One mutant per module, plus the tau+1 mutant (the failure goldens) and
# the control, which must pass all six checks: a copy broken by the runner
# itself would fail them and pass for a kill.
TIER1 = ("tau-l3", "feas", "primed", "mark", "pascal", "tau+1", "degX")


def test_ids_are_unique():
    assert len(mutants.BY_ID) == len(mutants.MUTANTS)


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row.id)
def test_old_text_occurs_once(row):
    text = (mutants.SRC / row.file).read_text()
    assert text.count(row.old) == 1
    assert row.new != row.old


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row.id)
def test_codes_are_one_exit_code_per_check(row):
    assert re.fullmatch(f"[0-3]{{{len(mutants.BATTERY)}}}", row.codes)
    # A row the battery does not catch says why; a caught one needs no note.
    assert bool(row.note) == (set(row.codes) == {"0"})


def test_a_mismatched_row_is_an_error(tmp_path):
    row = mutants.BY_ID["degX"]._replace(old="no such text")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutate(row, tmp_path)


def test_tier1_subset_covers_every_module():
    files = {mutants.BY_ID[name].file for name in TIER1}
    assert files == {row.file for row in mutants.MUTANTS}
    assert mutants.BY_ID["degX"].codes == "0" * len(mutants.BATTERY)


@pytest.mark.parametrize("name", TIER1)
def test_battery_codes(name, tmp_path, tau_plus_one):
    row = mutants.BY_ID[name]
    root = tau_plus_one if name == "tau+1" else mutants.mutate(row, tmp_path)
    assert mutants.run_battery(root) == row.codes


def test_readme_matrix_matches_the_table():
    """README's "Mutation matrix" table has one row per mutant, in table
    order, with its module and its codes."""
    section = README.read_text().split("\n## Mutation matrix\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [(name, f"{module}.py", "".join(codes)) for name, module, *codes in rows] == [
        (row.id, row.file, row.codes) for row in mutants.MUTANTS
    ]
