"""Acceptance gate: ten checks, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
Budgets: counting and exact probabilities under a second, the strong
generating set under a minute, Monte Carlo within three standard errors.
"""

import math
import time
from fractions import Fraction

import numpy as np

from revcube import counting, cube, oracle, perm, sims


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def test_criterion_01_marked_class_count():
    t0 = time.monotonic()
    got = counting.num_classes("marked")
    dt = time.monotonic() - t0
    report(
        1,
        "marked assemblies fall into 1594323 classes",
        got == 1_594_323 and dt < 1.0,
        f"got {got} in {dt:.3f}s",
    )


def test_criterion_02_mechanical_class_count():
    t0 = time.monotonic()
    got = counting.num_classes("mechanical")
    dt = time.monotonic() - t0
    report(
        2,
        "mechanical assemblies fall into 3 classes",
        got == 3 and dt < 1.0,
        f"got {got} in {dt:.3f}s",
    )


def test_criterion_03_exact_probabilities():
    t0 = time.monotonic()
    pm = counting.exact_probability("marked")
    pq = counting.exact_probability("mechanical")
    dt = time.monotonic() - t0
    report(
        3,
        "exact solvable probabilities are 1/12288 and 1/3",
        pm == Fraction(1, 12288) and pq == Fraction(1, 3) and dt < 1.0,
        f"got {pm}, {pq} in {dt:.3f}s",
    )


def test_criterion_04_edge_pair_intermediate_count():
    got = counting.edge_pair_class_count()
    report(
        4,
        "edge pairs alone contribute 3^12 classes",
        got == 3**12,
        f"got {got}",
    )


def test_criterion_05_strong_generating_set_order(timed_slice_group):
    sgs, dt = timed_slice_group
    want = math.factorial(24) ** 2 * 3**8 * math.factorial(8) // 6
    report(
        5,
        "computed group order matches 24!^2 * 3^8 * 8! / 6",
        sgs.order() == want and dt < 60.0,
        f"built in {dt:.1f}s, order {sgs.order()}",
    )


def test_criterion_06_sifting_matches_predicate(slice_group):
    rng = make_rng(2026)
    n_in = n_out = bad = 0
    for _ in range(1500):
        t = cube.random_assembly(rng, "mechanical")
        member = slice_group.contains(sims.embed(t))
        if member != cube.is_licit(t):
            bad += 1
        n_in += member
        n_out += not member
    report(
        6,
        "membership by sifting equals the closed-form predicate",
        bad == 0 and n_in > 0 and n_out > 0,
        f"1500 samples, {n_in} inside, {n_out} outside, {bad} mismatches",
    )


def test_criterion_07_small_model_oracle():
    model = oracle.MiniModel(2, 2, 1)
    classes = model.class_count()
    total, mismatches = model.sweep_closed_form()
    prob = model.solvable_probability()
    report(
        7,
        "reduced model: 27 classes, exhaustive sweep clean, probability 1/12",
        classes == 27 and total == 165888 and mismatches == 0 and prob == Fraction(1, 12),
        f"{classes} classes, {mismatches} mismatches of {total}, p={prob}",
    )


def test_criterion_08_monte_carlo_within_three_sigma():
    n_mech, n_marked = 1_000_000, 10_000_000

    est_q, err_q = counting.estimate_probability("mechanical", n_mech, seed=2026)
    p = 1 / 3
    sigma_q = math.sqrt(p * (1 - p) / n_mech)
    ok_q = abs(float(est_q) - p) <= 3 * sigma_q

    est_m, err_m = counting.estimate_probability(
        "marked", n_marked, seed=2026, workers=4
    )
    p = 1 / 12288
    sigma_m = math.sqrt(p * (1 - p) / n_marked)
    ok_m = abs(float(est_m) - p) <= 3 * sigma_m

    again = counting.estimate_probability("mechanical", n_mech, seed=2026, workers=4)
    deterministic = again == (est_q, err_q)

    report(
        8,
        "Monte Carlo lands within 3 sigma and is reproducible",
        ok_q and ok_m and deterministic,
        f"mech {est_q} (3s={3*sigma_q:.2e}), marked {est_m} (3s={3*sigma_m:.2e})",
    )


def test_criterion_09_orbit_tables_and_invariance():
    table_ok = oracle.pair_orbits() == [((0, 0), (1, 1)), ((0, 1),), ((1, 0),)]
    twists = oracle.twist_sign_orbits()
    twist_ok = len(twists) == 3 and all(len(o) == 2 for o in twists)

    rng = make_rng(2027)
    moves = list(cube.Move)
    invariant_ok = True
    for _ in range(100):
        t = cube.random_assembly(rng)
        i = cube.random_relabeling(rng)
        word = [moves[int(rng.integers(0, 12))] for _ in range(8)]
        if cube.classify(i * t * cube.apply_word(word)) != cube.classify(t):
            invariant_ok = False
            break
    report(
        9,
        "orbit tables verbatim and class invariance under both actions",
        table_ok and twist_ok and invariant_ok,
        f"pair orbits {oracle.pair_orbits()}",
    )


def test_criterion_10_class_count_reciprocal_trap():
    pm = counting.exact_probability("marked")
    pq = counting.exact_probability("mechanical")
    naive_m = Fraction(1, counting.num_classes("marked"))
    naive_q = Fraction(1, counting.num_classes("mechanical"))
    report(
        10,
        "1/class-count misses the marked probability but hits the mechanical one",
        naive_m != pm and naive_q == pq,
        f"{naive_m} vs {pm}; {naive_q} vs {pq}",
    )
