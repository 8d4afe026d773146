"""Exact combinatorics of level-restricted rigged partitions.

Enumerates the cutoff sets of rigged partition pairs, computes their
graded characters as exact Laurent polynomials, implements the
admissible-pair machinery with the rigging map between upper and lower
subsets, and verifies the recursion and decomposition identities
exhaustively at small levels.

Each name of __all__ is imported from its submodule when it is first
read (PEP 562), so importing the package, or running one command with
python -m rigchar, loads only the submodules that are used.
"""

from importlib import import_module

__all__ = [
    "KVector",
    "LaurentPoly",
    "MarkedBound",
    "Params",
    "Report",
    "RiggedPair",
    "boundary_ok",
    "char_R",
    "char_recursion_check",
    "degree_D",
    "delta_r",
    "delta_s",
    "enumerate_partitions",
    "enumerate_R",
    "enumerate_total",
    "epsilon",
    "fermionic_char",
    "gauss_binomial",
    "gauss_binomial_product",
    "is_admissible",
    "is_l1_admissible",
    "kappa",
    "label_complement",
    "lower_member",
    "map_m",
    "primed_labels",
    "rho",
    "rho_prime",
    "rig_degree",
    "sigma",
    "sigma_prime",
    "sl2_char",
    "tau",
    "tau_min_form",
    "tilde_pair",
    "upper_member",
    "vacancy_P",
    "vacancy_Q",
    "verify_bijection",
    "verify_lower_decomposition",
    "verify_recursion",
    "verify_upper_decomposition",
    "weight",
    "weight_bound",
]

# In import order: each module imports only those before it, so the first
# that holds a name is the one that defines it.
_SUBMODULES = ("core", "riggedsets", "admissible", "characters", "bijection")


def __getattr__(name: str):
    if name in __all__:
        for submodule in _SUBMODULES:
            module = import_module(f".{submodule}", __name__)
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
