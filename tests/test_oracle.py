import itertools
from fractions import Fraction

import numpy as np
import pytest

from revcube import cube, oracle, perm


def test_oracle_sign_agrees_with_cycle_sign():
    # inversion parity against the main path's cycle walk, degrees 0-6
    checked = 0
    for n in range(7):
        for p in itertools.permutations(range(n)):
            assert oracle._perm_sign(p) == perm.sign(p), p
            checked += 1
    assert checked == 874


def test_pair_flip_orbits():
    # the double flip merges (0,0) with (1,1); the two singles stay apart
    orbits = oracle.pair_orbits()
    assert orbits == [((0, 0), (1, 1)), ((0, 1),), ((1, 0),)]
    reps = [o[0] for o in orbits]
    assert reps == [(0, 0), (0, 1), (1, 0)]


def test_twist_sign_orbits():
    # the sign coordinate collapses, the twist residue survives
    orbits = oracle.twist_sign_orbits()
    assert len(orbits) == 3
    assert [o[0][0] for o in orbits] == [0, 1, 2]
    for o in orbits:
        assert len(o) == 2
        assert {e for _, e in o} == {-1, 1}


def test_burnside_agrees_with_orbit_count():
    pts, grp, act = oracle.pair_flip_action()
    assert oracle.burnside_count(pts, grp, act) == len(oracle.pair_orbits())
    pts, grp, act = oracle.twist_sign_action()
    assert oracle.burnside_count(pts, grp, act) == len(
        oracle.twist_sign_orbits()
    )


def test_orbits_partition(make_rng):
    pts, grp, act = oracle.twist_sign_action()
    orbits = oracle.orbits(pts, grp, act)
    flat = [p for o in orbits for p in o]
    assert sorted(flat) == sorted(pts)
    assert len(set(flat)) == len(flat)


def test_mini_sizes():
    assert oracle.MiniModel(1, 1, 1).size() == 576
    assert oracle.MiniModel(2, 2, 1).size() == 165888
    assert oracle.MiniModel(0, 1, 1).size() == 72


def test_mini_size_cap():
    with pytest.raises(ValueError):
        oracle.MiniModel(4, 4, 2)


def test_mini_group_axioms(make_rng):
    rng = make_rng(401)
    m = oracle.MiniModel(2, 2, 1)
    elems = list(itertools.product(*m._axes))
    e = m.identity()
    for _ in range(100):
        a = elems[int(rng.integers(0, len(elems)))]
        b = elems[int(rng.integers(0, len(elems)))]
        c = elems[int(rng.integers(0, len(elems)))]
        assert oracle.mini_mul(oracle.mini_mul(a, b), c) == oracle.mini_mul(
            a, oracle.mini_mul(b, c)
        )
    assert oracle.mini_mul(e, elems[5]) == elems[5]


def test_mini_subgroup_constructions():
    oracle.MiniModel(1, 1, 1).check_subgroup_constructions()
    oracle.MiniModel(2, 2, 1).check_subgroup_constructions()
    # three corners: the corner 3-cycle licit generator
    oracle.MiniModel(1, 3, 1).check_subgroup_constructions()
    # no corners: no corner generators, and centers move only by 3-cycles
    oracle.MiniModel(2, 0, 1).check_subgroup_constructions()


def _reference_closure(gens, e):
    """The subgroup generated by gens: e's orbit under right products with
    mini_mul, element by element."""
    return set(oracle.orbits([e], gens, lambda g, x: oracle.mini_mul(x, g))[0])


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (2, 2, 1), (0, 0, 2), (1, 1, 2)], ids=lambda s: "-".join(map(str, s))
)
def test_rank_closure_matches_reference(shape):
    # the breadth-first closure on the rank tables spans the same subgroups
    # as the per-element orbit of the identity under mini_mul
    m = oracle.MiniModel(*shape)
    for gens, tables in zip((m.relabeling_generators(), m.licit_generators()), m._tables):
        digits = zip(*np.unravel_index(sorted(m._closure(tables)), tuple(map(len, m._axes))))
        got = {tuple(values[d] for values, d in zip(m._axes, ds)) for ds in digits}
        assert got == _reference_closure(gens, m.identity())


def test_subgroup_check_fails_without_a_licit_generator(monkeypatch):
    licit_generators = oracle.MiniModel.licit_generators
    monkeypatch.setattr(oracle.MiniModel, "licit_generators", lambda m: licit_generators(m)[1:])
    with pytest.raises(AssertionError, match="licit generators do not close correctly"):
        oracle.MiniModel(2, 2, 1).check_subgroup_constructions()


def test_mini_relabeling_count():
    # 2^pairs pair choices times 24 placements per block
    assert len(oracle.MiniModel(1, 1, 1).relabelings()) == 2 * 24
    assert len(oracle.MiniModel(2, 2, 1).relabelings()) == 4 * 24


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (2, 0, 1), (0, 1, 1), (0, 0, 2)], ids=lambda s: "-".join(map(str, s))
)
def test_relabeling_predicate_matches_construction(shape):
    # exhaustive: every element of the model, 576, 9,216, 72 and 40,320 of
    # them; (0, 0, 2) is the one with two center blocks
    m = oracle.MiniModel(*shape)
    found = {t for t in itertools.product(*m._axes) if m.is_relabeling(t)}
    assert found == set(m.relabelings())


def test_mini_licit_index():
    # licit elements sit at index 6 inside the flip-free part
    m = oracle.MiniModel(2, 2, 1)
    flip_free = m.size() >> (2 * m.pairs)
    assert len(m.licit_elements()) * 6 == flip_free
    m = oracle.MiniModel(1, 1, 1)
    assert len(m.licit_elements()) * 6 == m.size() >> (2 * m.pairs)


# shape -> (classes, flip-free classes, elements, probability, flip-free probability)
ORACLE_ROWS = {
    (0, 1, 1): (3, 3, 72, Fraction(1, 3), Fraction(1, 3)),
    (1, 1, 1): (9, 3, 576, Fraction(1, 6), Fraction(1, 3)),
    (2, 2, 1): (27, 3, 165888, Fraction(1, 12), Fraction(1, 3)),
    (1, 2, 1): (9, 3, 3456, Fraction(1, 6), Fraction(1, 3)),
    (2, 1, 1): (27, 3, 27648, Fraction(1, 12), Fraction(1, 3)),
    (1, 3, 1): (9, 3, 31104, Fraction(1, 6), Fraction(1, 3)),
    (0, 2, 1): (3, 3, 432, Fraction(1, 3), Fraction(1, 3)),
    (0, 3, 1): (3, 3, 3888, Fraction(1, 3), Fraction(1, 3)),
    # two center blocks: |I| = 2^pairs * 24^2 and |I & L| = 24^2 / 2
    (1, 1, 2): (9, 3, 967680, Fraction(1, 6), Fraction(1, 3)),
    (0, 2, 2): (3, 3, 725760, Fraction(1, 3), Fraction(1, 3)),
    (1, 2, 2): (9, 3, 5806080, Fraction(1, 6), Fraction(1, 3)),
    (0, 3, 2): (3, 3, 6531840, Fraction(1, 3), Fraction(1, 3)),
    # no corners: no twist to carry, so the flip-free part is one class
    (2, 0, 1): (9, 1, 9216, Fraction(1, 4), Fraction(1)),
    (2, 3, 1): (27, 3, 1492992, Fraction(1, 12), Fraction(1, 3)),
    (3, 1, 1): (81, 3, 3317760, Fraction(1, 24), Fraction(1, 3)),
}


@pytest.mark.parametrize("shape", ORACLE_ROWS, ids=lambda s: "-".join(map(str, s)))
def test_mini_oracle_answers(shape):
    classes, free, total, p, p_free = ORACLE_ROWS[shape]
    m = oracle.MiniModel(*shape)
    assert m.class_count() == classes
    assert m.class_count(flip_free=True) == free
    assert m.sweep_closed_form() == (total, 0)
    assert m.solvable_probability() == p
    assert m.solvable_probability(flip_free=True) == p_free


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (0, 2, 1), (0, 3, 1), (2, 0, 1)], ids=lambda s: "-".join(map(str, s))
)
def test_component_labels_match_reference(shape):
    # each rank's label is the least rank of its orbit under mini_mul, with the
    # relabeling generators on the left and the licit ones on the right;
    # (0, 3, 1) has corner 3-cycles, so some maps have order 3
    m = oracle.MiniModel(*shape)
    elements = list(itertools.product(*m._axes))
    rank = {t: r for r, t in enumerate(elements)}
    gens = [(g, True) for g in m.relabeling_generators()]
    gens += [(l, False) for l in m.licit_generators()]

    def act(gen, r):
        g, left = gen
        return rank[oracle.mini_mul(g, elements[r]) if left else oracle.mini_mul(elements[r], g)]

    want = np.empty(len(elements), dtype=np.int64)
    for orbit in oracle.orbits(range(len(elements)), gens, act):
        want[list(orbit)] = orbit[0]
    assert np.array_equal(m._components.ravel(), want)


def test_mini_answers_share_one_enumeration(monkeypatch):
    # one labeling serves all five answers; the flip-free ones read a slice of it
    calls = []
    label = oracle._label_components

    def spy(maps, shape):
        calls.append(shape)
        return label(maps, shape)

    monkeypatch.setattr(oracle, "_label_components", spy)
    m = oracle.MiniModel(1, 1, 1)
    m.class_count()
    m.class_count(flip_free=True)
    m.sweep_closed_form()
    m.solvable_probability()
    m.solvable_probability(flip_free=True)
    assert len(calls) == 1


def test_mini_solvable_set_contains_both_factors():
    # with the 0-mismatch sweep, the closed form holding on I and on L puts
    # both factors inside the brute-force solvable set I*L
    m = oracle.MiniModel(1, 1, 1)
    for t in m.relabelings() + m.licit_elements():
        assert cube.solvable_by_invariants(t[0][0], t[1][0])


@pytest.mark.parametrize("shape", [(1, 1, 1), (0, 2, 1), (2, 0, 1)])
def test_ranks_decode_in_element_order(shape):
    m = oracle.MiniModel(*shape)
    edges, corners, centers = m._axes
    elements = list(itertools.product(*m._axes))
    assert len(elements) == m.size() == len(edges) * len(corners) * len(centers)
    for rank, t in enumerate(elements):
        i, j, k = np.unravel_index(rank, (len(edges), len(corners), len(centers)))
        assert (edges[i], corners[j], centers[k]) == t
    assert elements[0] == m.identity()
    # the flip_free answers read this slice of the edge axis as the flip-free part
    assert edges[:: 2**m.edge_n] == [e for e in edges if not any(e[0])]
    # digits from slowest to fastest: edge perm, flips, corner perm, twists, centers
    flips = list(itertools.product((0, 1), repeat=m.edge_n))
    twists = list(itertools.product((0, 1, 2), repeat=m.corners))
    perms = [list(itertools.permutations(range(n))) for n in (m.edge_n, m.corners, m.center_n)]
    assert elements == [
        ((eb, ep), (ct, cp), zp)
        for ep in perms[0]
        for eb in flips
        for cp in perms[1]
        for ct in twists
        for zp in perms[2]
    ]


@pytest.mark.parametrize("shape", [(1, 2, 1), (2, 1, 1), (0, 0, 2)])
def test_image_tables_are_products(shape, make_rng):
    # relabeling generators act on the left, licit ones on the right; (0, 0, 2)
    # has empty edge and corner axes and two center blocks
    m = oracle.MiniModel(*shape)
    elements = list(itertools.product(*m._axes))
    rank = {t: r for r, t in enumerate(elements)}
    gens = [(g, True) for g in m.relabeling_generators()]
    gens += [(l, False) for l in m.licit_generators()]
    shape3 = tuple(map(len, m._axes))
    rng = make_rng(1701)
    for (g, left), tables in zip(gens, sum(m._tables, [])):
        for r in rng.integers(0, len(elements), size=200):
            t = elements[r]
            want = rank[oracle.mini_mul(g, t) if left else oracle.mini_mul(t, g)]
            digits = np.unravel_index(r, shape3)
            image = np.ravel_multi_index([tab[d] for tab, d in zip(tables, digits)], shape3)
            assert image == want
