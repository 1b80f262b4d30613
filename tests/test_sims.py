import hashlib
import itertools

import numpy as np
import pytest

from revcube import counting, cube, perm, sims
from revcube.wreath import WreathElem

from conftest import random_perm


def bsgs_order(gens):
    return sims.build_bsgs(gens).order()


def test_symmetric_and_alternating_small():
    s4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
    assert bsgs_order(s4) == 24
    a4 = [(1, 2, 0, 3), (0, 2, 3, 1)]  # the 3-cycles (0 1 2) and (1 2 3)
    assert bsgs_order(a4) == 12


def test_cyclic_and_trivial():
    assert bsgs_order([(1, 2, 3, 4, 0)]) == 5
    assert bsgs_order([perm.identity(6)]) == 1
    with pytest.raises(ValueError):
        sims.build_bsgs([])  # no degree to infer
    with pytest.raises(ValueError):
        sims.build_bsgs([(1, 0), (0, 2, 1)])  # mixed degrees


def test_dihedral():
    rot = (1, 2, 3, 4, 5, 0)
    refl = (0, 5, 4, 3, 2, 1)
    assert bsgs_order([rot, refl]) == 12


def test_membership_small():
    s = sims.build_bsgs([(1, 2, 0, 3), (0, 2, 3, 1)])  # A4
    assert s.contains((2, 0, 1, 3))  # the 3-cycle (0 2 1)
    assert not s.contains((1, 0, 2, 3))
    assert s.contains(perm.identity(4))
    # any integer sequence is read as a permutation, a list or an array too
    trivial = sims.build_bsgs([(0, 1, 2)])
    assert trivial.contains([0, 1, 2]) is True
    assert trivial.contains(np.arange(3)) is True
    assert trivial.contains([1, 0, 2]) is False


def test_generator_order_does_not_change_group(make_rng):
    rng = make_rng(601)
    gens = [random_perm(9, rng) for _ in range(4)]
    want = bsgs_order(gens)
    for _ in range(5):
        idx = random_perm(len(gens), rng)
        shuffled = [gens[i] for i in idx]
        assert bsgs_order(shuffled) == want


def test_against_library_groups(make_rng):
    sympy = pytest.importorskip("sympy.combinatorics")
    rng = make_rng(602)
    for _ in range(15):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        gens = [random_perm(n, rng) for _ in range(k)]
        ours = bsgs_order(gens)
        theirs = sympy.PermutationGroup(
            [sympy.Permutation(list(g)) for g in gens]
        ).order()
        assert ours == theirs


def _closure(gens, n):
    """Every element of the group the generators span, by breadth-first
    search over right multiplication with the generators."""
    seen = {perm.identity(n)}
    frontier = list(seen)
    while frontier:
        frontier = [perm.compose(p, g) for p in frontier for g in gens]
        frontier = [p for p in frontier if p not in seen]
        seen.update(frontier)
    return seen


def test_contains_agrees_with_closure(make_rng):
    rng = make_rng(607)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        gens = [random_perm(n, rng) for _ in range(int(rng.integers(1, 3)))]
        s = sims.build_bsgs(gens)
        group = _closure(gens, n)
        assert s.order() == len(group)
        for p in itertools.permutations(range(n)):
            assert s.contains(p) == (p in group)


def test_degree_limit():
    assert bsgs_order([tuple(range(1, 256)) + (0,)]) == 256
    with pytest.raises(ValueError, match="exceeds 256"):
        sims.build_bsgs([tuple(range(1, 257)) + (0,)])


def test_check_structure_small(make_rng):
    rng = make_rng(603)
    gens = [random_perm(8, rng) for _ in range(3)]
    s = sims.build_bsgs(gens)
    s.check_structure()
    assert all(s.contains(g) for g in gens)


def test_check_structure_catches_corruption():
    def s4():
        s = sims.build_bsgs([(1, 0, 2, 3), (1, 2, 3, 0)])
        s.check_structure()
        pt = next(x for x in s.transversal[0] if x != s.base[0])
        return s, pt

    padded = bytes(range(256))  # the layout: inverses are 256-byte tables
    s, pt = s4()
    s.inv_transversal[0][pt] = padded
    with pytest.raises(AssertionError, match=f"inverse representative for {pt}"):
        s.check_structure()
    s, pt = s4()
    s.transversal[0][pt] = s._identity
    with pytest.raises(AssertionError, match=f"^representative for {pt}"):
        s.check_structure()
    # a base point's representative that fixes it but is not the identity
    # passes the orbit and inverse checks; _sift would skip it wrongly
    s, _ = s4()
    b, g = s.base[0], s.gens[1][0]
    s.transversal[0][b] = g[: s.degree]
    s.inv_transversal[0][b] = bytes.maketrans(g[: s.degree], s._identity)
    with pytest.raises(AssertionError, match="level 0 base representative is not"):
        s.check_structure()
    s, _ = s4()
    s.gens[1].append(next(g for g in s.gens[0] if g[s.base[0]] != s.base[0]))
    with pytest.raises(AssertionError, match="level 1 generator moves base"):
        s.check_structure()
    # a table of the wrong length is reported, not left to translate's ValueError
    for cut in ("inverse", "generator", "representative"):
        s, pt = s4()
        if cut == "inverse":
            s.inv_transversal[0][pt] = s.inv_transversal[0][pt][: s.degree]
        elif cut == "generator":
            s.gens[0][0] = s.gens[0][0][: s.degree]
        else:
            s.transversal[0][pt] += padded[s.degree :]
        with pytest.raises(AssertionError, match="level 0 has a table of the wrong length"):
            s.check_structure()
    # an inverse table off the orbit
    s, pt = s4()
    s.inv_transversal[0][s.degree] = padded
    with pytest.raises(AssertionError, match="level 0 inverses are not exactly on the orbit"):
        s.check_structure()


def test_embed_is_homomorphism(make_rng):
    rng = make_rng(604)
    for _ in range(100):
        a = cube.random_assembly(rng)
        b = cube.random_assembly(rng)
        assert sims.embed(a * b) == perm.compose(sims.embed(a), sims.embed(b))
    assert sims.embed(cube.identity_state()) == perm.identity(sims.DEGREE)


def test_embed_faithful_on_fibres():
    ident = cube.identity_state()
    flip = cube.CubeState(
        WreathElem(2, (1,) + (0,) * 23, perm.identity(24)),
        ident.corners,
        ident.centers,
    )
    twist = cube.CubeState(
        ident.edges,
        WreathElem(3, (1,) + (0,) * 7, perm.identity(8)),
        ident.centers,
    )
    assert sims.embed(flip) != perm.identity(sims.DEGREE)
    assert sims.embed(twist) != perm.identity(sims.DEGREE)
    assert sims.embed(flip) != sims.embed(twist)


def test_embed_layout_centers_first(slice_group, make_rng):
    # centers are points 0..23, so the smallest point moved, and with it the
    # first base point, is a center; edge and corner stickers follow as blocks
    rng = make_rng(607)
    for _ in range(20):
        t = cube.random_assembly(rng)
        p = sims.embed(t)
        assert p[:24] == t.centers
        assert p[24:72] == tuple(24 + x for x in t.edges.to_point_perm())
        assert p[72:] == tuple(72 + x for x in t.corners.to_point_perm())
    assert slice_group.base[0] < 24


def test_slice_group_order(slice_group):
    assert slice_group.order() == counting.num_licit()


def test_slice_group_tables_pinned(slice_group):
    """Base, strong generators and both transversals, each table cut to the
    96 points, are pinned by their sha256: a change to the base, to the
    order generators are found in or to any chosen representative shows."""
    def cut(p):
        return tuple(p[: sims.DEGREE])

    tables = (
        slice_group.base,
        [[cut(g) for g in gens] for gens in slice_group.gens],
        [[(pt, cut(u)) for pt, u in t.items()] for t in slice_group.transversal],
        [
            [(pt, cut(ti[pt])) for pt in t]
            for t, ti in zip(slice_group.transversal, slice_group.inv_transversal)
        ],
    )
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == "a25b2dd97b8b93ad64253115a59feaef6996b9fdd5e5d56b76cdd5ff14ce305f"


def test_slice_group_structure(slice_group):
    slice_group.check_structure()
    assert len(slice_group.base) > 0


def test_slice_group_membership_agrees_with_predicate(slice_group, make_rng):
    rng = make_rng(605)
    n_in = n_out = 0
    for _ in range(600):
        t = cube.random_assembly(rng, "mechanical")
        member = slice_group.contains(sims.embed(t))
        assert member == cube.is_licit(t)
        n_in += member
        n_out += not member
    assert n_in > 0 and n_out > 0  # both directions exercised


def test_slice_group_contains_all_words(slice_group, make_rng):
    rng = make_rng(606)
    moves = list(cube.Move)
    for _ in range(50):
        word = [moves[int(rng.integers(0, 12))] for _ in range(25)]
        assert slice_group.contains(sims.embed(cube.apply_word(word)))


def test_slice_group_excludes_single_twist(slice_group):
    ident = cube.identity_state()
    twist = cube.CubeState(
        ident.edges,
        WreathElem(3, (1,) + (0,) * 7, perm.identity(8)),
        ident.centers,
    )
    assert not slice_group.contains(sims.embed(twist))
    swap = cube.CubeState(
        ident.edges,
        WreathElem(3, (0,) * 8, (1, 0) + tuple(range(2, 8))),
        ident.centers,
    )
    # odd corner permutation with even centers fails the sign condition
    assert not slice_group.contains(sims.embed(swap))


def test_contains_rejects_degree_mismatch(slice_group):
    with pytest.raises(ValueError):
        slice_group.contains(perm.identity(5))
    # a sequence that is no permutation is rejected as build_bsgs rejects it
    small = sims.build_bsgs([(0, 1, 2)])
    for bad in ((0.0, 1.0, 2.0), (0, 0, 1), (False, True, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            sims.build_bsgs([bad])
        with pytest.raises(ValueError, match="not a permutation"):
            small.contains(bad)
