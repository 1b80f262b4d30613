import math
from itertools import permutations, product

import numpy as np
import pytest

from revcube import perm

from conftest import random_perm


def test_identity():
    assert perm.identity(4) == (0, 1, 2, 3)
    assert perm.identity(0) == ()


def test_compose_hand_checked():
    # p(q(i)) with q applied first
    assert perm.compose((1, 0, 2), (0, 2, 1)) == (1, 2, 0)
    assert perm.compose((0, 2, 1), (1, 0, 2)) == (2, 0, 1)


def test_inverse_hand_checked():
    assert perm.inverse((1, 2, 3, 0)) == (3, 0, 1, 2)
    assert perm.inverse((0, 1, 2)) == (0, 1, 2)


def test_compose_inverse_random(make_rng):
    rng = make_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        p = random_perm(n, rng)
        q = random_perm(n, rng)
        assert perm.compose(p, perm.inverse(p)) == perm.identity(n)
        assert perm.compose(perm.inverse(p), p) == perm.identity(n)
        assert perm.inverse(perm.compose(p, q)) == perm.compose(
            perm.inverse(q), perm.inverse(p)
        )


def test_associativity_random(make_rng):
    rng = make_rng(102)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        p = random_perm(n, rng)
        q = random_perm(n, rng)
        r = random_perm(n, rng)
        assert perm.compose(perm.compose(p, q), r) == perm.compose(
            p, perm.compose(q, r)
        )


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        perm.compose((0, 1), (0, 1, 2))


def test_check_perm():
    assert perm.check_perm((2, 0, 1)) == (2, 0, 1)
    assert perm.check_perm([]) == ()
    got = perm.check_perm(np.array([1, 2, 0]))  # numpy ints become Python ints
    assert got == (1, 2, 0) and all(type(x) is int for x in got)
    for bad in (
        (0, 0, 1),
        (0, 1, 3),
        (0, -1),
        (True, False),  # bools are not point labels
        (0.0, 1.0),
        (0, 1, 2.0),
        (1, 1),
    ):
        with pytest.raises(ValueError, match="not a permutation"):
            perm.check_perm(bad)


def _sign_by_inversions(p):
    # brute force count of out-of-order pairs
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inv % 2 else 1


def test_sign_matches_inversion_count_exhaustive():
    for n in range(1, 6):
        for p in permutations(range(n)):
            assert perm.sign(p) == _sign_by_inversions(p)


def test_sign_multiplicative(make_rng):
    rng = make_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        p = random_perm(n, rng)
        q = random_perm(n, rng)
        assert perm.sign(perm.compose(p, q)) == perm.sign(p) * perm.sign(q)
    assert perm.sign((0, 1, 5, 3, 4, 2, 6, 7)) == -1  # swaps 2 and 5


def test_cycles_hand_checked():
    assert perm.cycles((1, 2, 0, 4, 3, 5)) == [(0, 1, 2), (3, 4)]
    assert perm.cycles(perm.identity(6)) == []


def test_cycles_random(make_rng):
    # exactly the moved points, once each, smallest first in each cycle,
    # cycles in order of that point, and each cycle follows p
    rng = make_rng(104)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        p = random_perm(n, rng)
        cyc = perm.cycles(p)
        points = [x for c in cyc for x in c]
        assert sorted(points) == [i for i in range(n) if p[i] != i]
        assert [c[0] for c in cyc] == sorted(min(c) for c in cyc)
        for c in cyc:
            assert all(p[c[i]] == c[(i + 1) % len(c)] for i in range(len(c)))


def test_random_perm_pinned(make_rng):
    # the test helper's draws: seeded test inputs stay the same across changes
    rng = make_rng(42)
    assert random_perm(10, rng) == (1, 8, 7, 9, 4, 2, 3, 5, 6, 0)
    assert random_perm(10, rng) == (2, 9, 1, 6, 3, 8, 5, 7, 4, 0)
    assert random_perm(10, rng) == (6, 0, 5, 3, 7, 1, 2, 9, 4, 8)


def test_fisher_yates_is_a_bijection_onto_sn():
    # the n! draw sequences for the bounds n, n-1, ..., 2, which the samplers
    # draw uniformly, give every permutation exactly once: the shuffle is uniform
    for n in range(7):
        draws = product(*map(range, range(n, 1, -1)))
        perms = [perm.fisher_yates(n, iter(d)) for d in draws]
        assert len(perms) == math.factorial(n)
        assert set(perms) == set(permutations(range(n)))
