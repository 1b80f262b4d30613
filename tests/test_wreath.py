import numpy as np
import pytest

from revcube import perm
from revcube.wreath import WreathElem

from conftest import random_perm


def random_elem(k, n, rng):
    twists = tuple(int(rng.integers(0, k)) for _ in range(n))
    return WreathElem(k, twists, random_perm(n, rng))


def test_validation():
    with pytest.raises(ValueError):
        WreathElem(4, (0, 0), (0, 1))  # unsupported modulus
    with pytest.raises(ValueError):
        WreathElem(2, (0, 2), (0, 1))  # twist out of range
    with pytest.raises(ValueError):
        WreathElem(2, (0, 0, 0), (0, 1))
    with pytest.raises(ValueError):
        WreathElem(3, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        WreathElem(2, np.array([0, 1]), (0, 1))  # twists must be Python ints
    with pytest.raises(ValueError):
        WreathElem(2, (True, True) + (0,) * 22, perm.identity(24))  # not bools
    with pytest.raises(ValueError):
        WreathElem(2, (0,) * 4, (True, False, 2, 3))  # nor in the permutation
    with pytest.raises(ValueError):
        WreathElem(2.0, (0, 1), (1, 0))  # the modulus too
    # products check that their operands live in the same group
    with pytest.raises(ValueError):
        WreathElem.identity(2, 3) * WreathElem.identity(3, 3)
    with pytest.raises(ValueError, match="degree mismatch: 3 vs 2"):
        WreathElem.identity(2, 3) * WreathElem.identity(2, 2)


def test_constructor_keeps_normalised_tuples():
    ref = WreathElem(2, (0, 1, 0), (2, 0, 1))
    for twists, p in [([0, 1, 0], [2, 0, 1]), ((0, 1, 0), np.array([2, 0, 1]))]:
        e = WreathElem(2, twists, p)
        assert e == ref and hash(e) == hash(ref)


def test_identity_and_degree():
    e = WreathElem.identity(3, 8)
    assert e.degree == 8
    assert e.twists == (0,) * 8
    assert e * e == e


def test_squared_flip_swap_is_identity():
    g = WreathElem(2, (1, 1), (1, 0))
    assert g * g == WreathElem.identity(2, 2)


def test_product_hand_checked():
    # (r, s) * (t, u) == (r + s.t, s u) with (s.t)[s(i)] == t[i]
    g = WreathElem(3, (1, 0, 2), (1, 2, 0))  # (r, s)
    h = WreathElem(3, (0, 2, 0), (0, 2, 1))  # (t, u)
    # s u == (1, 0, 2); s.t == (0, 0, 2); r + s.t == (1, 0, 1)
    assert g * h == WreathElem(3, (1, 0, 1), (1, 0, 2))
    # u s == (2, 1, 0); u.r == (1, 2, 0); t + u.r == (1, 1, 0)
    assert h * g == WreathElem(3, (1, 1, 0), (2, 1, 0))


def test_inverse_random(make_rng):
    rng = make_rng(201)
    for k in (2, 3):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            g = random_elem(k, n, rng)
            e = WreathElem.identity(k, n)
            assert g * g.inverse() == e
            assert g.inverse() * g == e


def test_associativity_random(make_rng):
    rng = make_rng(202)
    for k in (2, 3):
        for _ in range(60):
            n = int(rng.integers(1, 10))
            a = random_elem(k, n, rng)
            b = random_elem(k, n, rng)
            c = random_elem(k, n, rng)
            assert (a * b) * c == a * (b * c)


def test_twist_sum_additive(make_rng):
    rng = make_rng(204)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        g = random_elem(3, n, rng)
        h = random_elem(3, n, rng)
        assert (g * h).twist_sum() == (g.twist_sum() + h.twist_sum()) % 3


def test_to_point_perm_is_homomorphism(make_rng):
    rng = make_rng(205)
    for k in (2, 3):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            g = random_elem(k, n, rng)
            h = random_elem(k, n, rng)
            perm.check_perm(g.to_point_perm())
            assert (g * h).to_point_perm() == perm.compose(
                g.to_point_perm(), h.to_point_perm()
            )


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 8, 24, 31])
def test_to_point_perm_matches_formula(k, n, make_rng):
    # the docstring's formula, point by point, at any degree; first shifts
    # every image and leaves the map otherwise unchanged
    rng = make_rng(207)
    for _ in range(10):
        g = random_elem(k, n, rng)
        want = [0] * (n * k)
        for i in range(n):
            for b in range(k):
                want[i * k + b] = g.perm[i] * k + (b + g.twists[g.perm[i]]) % k
        assert g.to_point_perm() == tuple(want)
        assert g.to_point_perm(5) == tuple(5 + x for x in want)


def test_to_point_perm_faithful(make_rng):
    rng = make_rng(206)
    seen = {}
    for _ in range(300):
        g = random_elem(3, 4, rng)
        pts = g.to_point_perm()
        if pts in seen:
            assert seen[pts] == g
        seen[pts] = g
    # identity maps to identity, nothing else does
    e = WreathElem.identity(3, 4)
    assert e.to_point_perm() == perm.identity(12)
    g = WreathElem(3, (1, 0, 0, 0), perm.identity(4))
    assert g.to_point_perm() != perm.identity(12)
