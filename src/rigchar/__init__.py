"""Exact combinatorics of level-restricted rigged partitions.

Enumerates the cutoff sets of rigged partition pairs, computes their
graded characters as exact Laurent polynomials, implements the
admissible-pair machinery with the rigging map between upper and lower
subsets, and verifies the recursion and decomposition identities
exhaustively at small levels.
"""

from .admissible import (
    delta_r,
    delta_s,
    epsilon,
    is_admissible,
    is_l1_admissible,
    kappa,
    label_complement,
    primed_labels,
    rho,
    rho_prime,
    sigma,
    sigma_prime,
    tilde_pair,
)
from .bijection import (
    MarkedBound,
    lower_member,
    map_m,
    upper_member,
    verify_bijection,
    verify_lower_decomposition,
    verify_recursion,
    verify_upper_decomposition,
)
from .characters import (
    LaurentPoly,
    char_R,
    char_recursion_check,
    degree_D,
    fermionic_char,
    gauss_binomial,
    gauss_binomial_product,
    rig_degree,
    sl2_char,
)
from .core import (
    KVector,
    Params,
    Report,
    RiggedPair,
    Rigging,
    boundary_ok,
    tau,
    tau_min_form,
    vacancy_P,
    vacancy_Q,
    weight,
)
from .riggedsets import (
    enumerate_partitions,
    enumerate_R,
    enumerate_total,
    weight_bound,
)

__all__ = [
    "KVector",
    "LaurentPoly",
    "MarkedBound",
    "Params",
    "Report",
    "RiggedPair",
    "Rigging",
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
