"""Acceptance suite: the exit criteria, each exact with tolerance zero.

Each test prints one CRITERION line so a -s run reads as a checklist.
Grids follow the stated bounds; nothing is sampled, everything is
exhaustive.
"""

import json
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from operator import add, sub

from rigchar.admissible import (
    all_index_sets,
    delta_r,
    delta_s,
    epsilon,
    is_l1_admissible,
    kappa,
    label_complement,
    primed_labels,
    rho,
    rho_prime,
    sigma,
    sigma_prime,
)
from rigchar.bijection import (
    verify_bijection,
    verify_lower_decomposition,
    verify_recursion,
    verify_upper_decomposition,
)
from rigchar.characters import (
    LaurentPoly,
    char_R,
    char_recursion_check,
    fermionic_char,
    gauss_binomial,
)
from rigchar.core import (
    Params,
    boundary_ok,
    pos_part,
    vacancy_P,
    vacancy_Q,
    weight,
)
from rigchar.riggedsets import enumerate_partitions, enumerate_R, enumerate_total


def _report(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num} {name}: {status}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def legal_labels(k):
    for l1 in range(k + 1):
        for l2 in range(k + 1):
            for l3 in range(min(l1, l2) + 1):
                yield l1, l2, l3


def test_criterion_1_initial_condition():
    t0 = time.time()
    ok = True
    for k in (1, 2, 3):
        for l1, l2, l3 in legal_labels(k):
            p = Params(k, l1, l2, l3, 0, 0)
            total = enumerate_total(p)
            if l1 == k and l2 == k:
                ok = ok and list(total) == [(0, 0)] and len(total[(0, 0)]) == 1
                x = total[(0, 0)][0]
                ok = ok and weight(x.mu) == 0 and weight(x.nu) == 0
            else:
                ok = ok and total == {}
                ok = ok and len(enumerate_R(p, 0, 0)) == 0
            for m in range(3):
                for n in range(3):
                    if (m, n) != (0, 0):
                        ok = ok and len(enumerate_R(p, m, n)) == 0
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(1, "initial-condition", ok, f"{elapsed:.2f}s")


def test_criterion_2_recursion():
    t0 = time.time()
    points = 0
    ok = True
    for k in (1, 2, 3):
        for l1, l2, l3 in legal_labels(k):
            for M in (0, 1, 2):
                for N in (1, 2):
                    for m in range(7):
                        for n in range(7):
                            rep = verify_recursion(k, l1, l2, l3, M, N, m, n)
                            points += 1
                            if not rep.ok:
                                ok = False
                                print("counterexample:", (k, l1, l2, l3, M, N, m, n), rep.detail)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(2, "cardinality-recursion", ok, f"{points} points, {elapsed:.1f}s")


def test_criterion_3_fermionic_equals_bruteforce():
    t0 = time.time()
    points = 0
    ok = True
    for k in (1, 2, 3):
        for l1 in range(k + 1):
            for l2 in range(k + 1):
                for M in (0, 1, 2):
                    for N in (0, 1, 2):
                        f = fermionic_char(k, l1, l2, M, N)
                        b = char_R(Params(k, l1, l2, min(l1, l2), M, N))
                        points += 1
                        if f != b:
                            ok = False
                            print("mismatch:", (k, l1, l2, M, N))
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(3, "closed-form-character", ok, f"{points} points, {elapsed:.1f}s")


def test_criterion_4_character_recursion():
    t0 = time.time()
    points = 0
    ok = True
    for k in (1, 2):
        for l1, l2, l3 in legal_labels(k):
            for M in (0, 1, 2):
                for N in (1, 2):
                    rep = char_recursion_check(k, l1, l2, l3, M, N)
                    points += 1
                    if not rep.ok:
                        ok = False
                        print("mismatch:", (k, l1, l2, l3, M, N), rep.detail)
    _report(4, "character-recursion", ok, f"{points} points, {time.time()-t0:.1f}s")


def test_criterion_5_decompositions():
    t0 = time.time()
    points = 0
    ok = True
    for k in (1, 2, 3):
        for l1, l2, l3 in legal_labels(k):
            for M in (0, 1, 2):
                for N in (0, 1, 2):
                    for m in range(6):
                        for n in range(6):
                            rep = verify_lower_decomposition(k, l1, l2, l3, M, N, m, n)
                            points += 1
                            if not rep.ok:
                                ok = False
                                point = (k, l1, l2, l3, M, N, m, n)
                                print("lower counterexample:", point, rep.detail)
    for k in (1, 2, 3):
        for l1 in range(k + 1):
            for a in range(l1 + 1):
                for c in range(k - a + 1):
                    for M in (0, 1, 2):
                        for N in (1, 2):
                            for m in range(6):
                                for n in range(6):
                                    rep = verify_upper_decomposition(
                                        k, l1, a, c, M, N, m, n
                                    )
                                    points += 1
                                    if not rep.ok:
                                        ok = False
                                        print(
                                            "upper counterexample:",
                                            (k, l1, a, c, M, N, m, n),
                                            rep.detail,
                                        )
    _report(5, "exact-cover-decompositions", ok, f"{points} points, {time.time()-t0:.1f}s")


def test_criterion_6_rigging_map_bijection():
    t0 = time.time()
    points = 0
    ok = True
    for k in (1, 2, 3):
        for l1 in range(k + 1):
            for l2 in range(k + 1):
                for M in (0, 1, 2):
                    for N in (1, 2):
                        for m in range(6):
                            for n in range(6):
                                rep = verify_bijection(k, l1, l2, M, N, m, n)
                                points += 1
                                if not rep.ok:
                                    ok = False
                                    print("bijection failure:", (k, l1, l2, M, N, m, n), rep.detail)
    _report(6, "rigging-map-bijection", ok, f"{points} points, {time.time()-t0:.1f}s")


def test_criterion_7_property_suites():
    ok = True

    # staircase vectors: worked example and additivity
    ok = ok and kappa(5, (2, 4, 5)) == (0, 1, 1, 2, 3)
    for k in range(1, 6):
        sets = list(all_index_sets(k))
        for I1 in sets:
            for I2 in sets:
                if set(I1) & set(I2):
                    continue
                u = tuple(sorted(I1 + I2))
                ok = ok and kappa(k, u) == tuple(map(add, kappa(k, I1), kappa(k, I2)))
                ok = ok and epsilon(k, u) == tuple(map(add, epsilon(k, I1), epsilon(k, I2)))

    # bound vectors: non-negativity and vanishing k-th entries
    for k in range(1, 5):
        for l1 in range(k + 1):
            for I in all_index_sets(k):
                for J in all_index_sets(k):
                    if not is_l1_admissible(k, I, J, l1):
                        continue
                    ok = ok and min(rho(k, I, J, l1)) >= 0
                    ok = ok and min(sigma(k, J, k)) >= 0
                    rp = rho_prime(k, I, J, l1)
                    sp = sigma_prime(k, I, J, l1)
                    ok = ok and min(rp) >= 0 and min(sp) >= 0
                    ok = ok and rp[-1] == 0 and sp[-1] == 0

    # labelled-complement identity
    for k in range(1, 5):
        for l1 in range(k + 1):
            for J in all_index_sets(k):
                b = len(J)
                diff = kappa(k, J, range(l1 + 1, l1 + b + 1))
                vprime = label_complement(k, J, l1)
                # sum over i <= p of kappa(v_i) - kappa(v'_i), one index at a time
                rhs = (0,) * k
                for i in range(len(vprime)):
                    step = kappa(k, (J[i],), (vprime[i],))
                    rhs = tuple(map(add, rhs, step))
                ok = ok and tuple(map(pos_part, diff)) == rhs

    # boundary equivalence by exhaustive counterexample search
    for k in (1, 2, 3):
        for M in (0, 1, 2):
            for N in (0, 1, 2):
                for l1 in range(k + 1):
                    for l2 in range(k + 1):
                        for m in range(7):
                            for n in range(7):
                                for mu in enumerate_partitions(m, k):
                                    for nu in enumerate_partitions(n, k):
                                        P = vacancy_P(mu, nu, M, l1)
                                        Q = vacancy_Q(mu, nu, N, l2)
                                        feasible = all(
                                            x >= 0
                                            for x, c in zip(
                                                P + Q, mu + nu
                                            )
                                            if c > 0
                                        )
                                        if not feasible:
                                            continue
                                        coc = P.is_nonneg() and Q.is_nonneg()
                                        ok = ok and coc == boundary_ok(k, l1, l2, M, N, mu, nu)
                                        if M >= 1:
                                            ok = ok and P[-1] >= 0

    # Gaussian binomials: bounded-sum identity and q=1 specialization
    from math import comb

    for M in range(7):
        for n in range(7):
            acc = {}
            for seq in combinations_with_replacement(range(M + 1), n):
                e = sum(seq)
                acc[(0, 0, e)] = acc.get((0, 0, e), 0) + 1
            g = gauss_binomial(M + n, n)
            ok = ok and LaurentPoly(acc) == g
            ok = ok and sum(c for _, c in g.terms()) == comb(M + n, n)

    # bound-change vectors against vacancy differences
    import random

    rng = random.Random(20260808)
    checked = 0
    while checked < 500:
        k = rng.randint(1, 3)
        I = tuple(i for i in range(1, k + 1) if rng.random() < 0.5)
        J = tuple(i for i in range(1, k + 1) if rng.random() < 0.5)
        a, b = len(I), len(J)
        if b < a:
            continue
        l1, l2 = rng.randint(0, k), rng.randint(0, k)
        mup = tuple(rng.randint(0, 2) for _ in range(k))
        nup = tuple(rng.randint(0, 2) for _ in range(k))
        mu = tuple(map(add, mup, epsilon(k, I)))
        nu = tuple(map(add, nup, epsilon(k, J)))
        if min(mu + nu) < 0:
            continue
        M, N = rng.randint(0, 2), rng.randint(1, 2)
        l1p, l2p, _ = primed_labels(k, l1, a, b - a)
        dr = map(sub, vacancy_P(mu, nu, M, l1), vacancy_P(mup, nup, M, l1p))
        ds = map(sub, vacancy_Q(mu, nu, N, l2), vacancy_Q(mup, nup, N - 1, l2p))
        ok = ok and tuple(dr) == delta_r(k, I, J, l1)
        ok = ok and tuple(ds) == delta_s(k, I, J, l1, l2)
        checked += 1

    _report(7, "property-suites", ok)


def test_criterion_8_determinism():
    base = [
        sys.executable, "-m", "rigchar", "verify", "recursion",
        "--max-k", "3", "--max-weight", "6", "--max-M", "2", "--max-N", "2",
    ]
    one = subprocess.run(base + ["--jobs", "1"], capture_output=True, text=True)
    many = subprocess.run(base + ["--jobs", "4"], capture_output=True, text=True)
    ok = one.returncode == 0 and many.returncode == 0
    ok = ok and one.stdout == many.stdout
    ok = ok and json.loads(one.stdout)["status"] == "pass"

    enum_base = [
        sys.executable, "-m", "rigchar", "enum",
        "--k", "3", "--l1", "3", "--l2", "3", "--l3", "2", "--M", "2", "--N", "2",
    ]
    # enum runs in one process; two processes (each with its own string
    # hash seed) must still write the same bytes.
    e1 = subprocess.run(enum_base, capture_output=True, text=True)
    e2 = subprocess.run(enum_base, capture_output=True, text=True)
    ok = ok and e1.returncode == 0 and e2.returncode == 0 and e1.stdout == e2.stdout
    _report(8, "deterministic-output", ok)
