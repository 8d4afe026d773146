"""Fixtures shared by the test modules."""

import pytest

import mutants


@pytest.fixture(scope="session")
def tau_plus_one(tmp_path_factory):
    """The directory to put on PYTHONPATH for a copy of rigchar whose tau
    is one too large (the tau+1 source mutant): every verify check reports
    a counterexample on a small grid."""
    return mutants.mutate(mutants.BY_ID["tau+1"], tmp_path_factory.mktemp("tau_plus_one"))
