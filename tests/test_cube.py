import hashlib
import re

import numpy as np
import pytest

from revcube import cube, geometry, perm
from revcube.wreath import WreathElem

from conftest import random_perm, run_cli

IDENT = cube.identity_state()
MOVES = list(cube.Move)


def random_word(rng, length):
    return [MOVES[int(rng.integers(0, len(MOVES)))] for _ in range(length)]


def test_geometry_validation_rows():
    assert geometry.validate_geometry() == [
        ("piece counts 8/24/24", True, ""),
        ("edge pairs {2k,2k+1} share colors, pairwise distinct", True, ""),
        ("center blocks {4k..4k+3} monochrome per face", True, ""),
        ("edge marking distinguishes each pair", True, ""),
        ("slice moves permute their slab only", True, ""),
    ]


def test_move_tables_pinned():
    # every (twists, perm) table of the twelve moves, in MOVE_SLABS order
    tables = [geometry.move_components(*s) for s in geometry.MOVE_SLABS.values()]
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == "880483f5f3108688fbee27ac4f066aae8e8455554ef9a69b2b98675b0c1781e6"


@pytest.fixture
def fresh_generators():
    """cube.generator's cache cleared on both sides of the test, so that no
    table built from a corrupted piece model outlives it."""
    cube.generator.cache_clear()
    yield
    cube.generator.cache_clear()


@pytest.fixture
def stickers(monkeypatch, fresh_generators):
    """Setter for one entry of geometry's sticker table, undone after the test."""
    return lambda p, normals: monkeypatch.setitem(geometry._STICKERS, p, normals)


def assert_verify_stops_at_geometry(detail):
    # a broken piece model fails its geometry row and ends verify there: exit
    # 3 and no traceback, as every later row reads the same model
    r = run_cli("verify")
    assert r.returncode == 3
    assert r.stdout.splitlines()[-2:] == [
        f"FAIL: geometry: slice moves permute their slab only ({detail})",
        "1 check(s) failed",
    ]


def test_geometry_rejects_a_sticker_map_that_is_no_twist(stickers):
    # B turns the slab z == -3 first, and its first corner is corner 0
    p = geometry.CORNER_POSITIONS[0]
    s0, s1, s2 = geometry._STICKERS[p]
    stickers(p, (s0, s2, s1))
    with pytest.raises(geometry.GeometryError, match="sticker map not a twist"):
        geometry.move_components(*geometry.MOVE_SLABS["B"])
    rows = geometry.validate_geometry()
    assert [ok for _, ok, _ in rows] == [True, True, True, True, False]
    assert rows[-1] == (
        "slice moves permute their slab only",
        False,
        "B: sticker map not a twist at (-3, -3, -3)",
    )
    assert_verify_stops_at_geometry("B: sticker map not a twist at (-3, -3, -3)")


# B (z == -3, sense +1) sends (x, y, -3) to (-y, x, -3): corner 0 lands on
# (3, -3, -3), and (-3, 3, -3) on corner 0's slot
@pytest.mark.parametrize(
    "src, dst",
    [((-3, -3, -3), (-3, -3, 3)), ((-3, 3, -3), (3, -3, -3))],
    ids=["off the slab", "onto a taken slot"],
)
def test_geometry_rejects_a_move_that_leaves_its_slab(
    monkeypatch, fresh_generators, src, dst
):
    honest = geometry.rotate
    monkeypatch.setattr(
        geometry,
        "rotate",
        lambda v, axis, sense: dst if (v, axis) == (src, 2) else honest(v, axis, sense),
    )
    detail = f"slab not stable at {src}"
    with pytest.raises(geometry.GeometryError, match=re.escape(detail)):
        geometry.move_components(*geometry.MOVE_SLABS["B"])
    rows = geometry.validate_geometry()
    assert [ok for _, ok, _ in rows] == [True, True, True, True, False]
    assert rows[-1] == ("slice moves permute their slab only", False, f"B: {detail}")
    assert_verify_stops_at_geometry(f"B: {detail}")


def test_geometry_rejects_a_sticker_off_the_destination(stickers):
    # corner 0 given a normal that no corner sticker has: B moves it onto no
    # sticker of its destination, a failed row and not a crash
    p = geometry.CORNER_POSITIONS[0]
    _, *rest = geometry._STICKERS[p]
    stickers(p, ((1, 0, 0), *rest))
    with pytest.raises(geometry.GeometryError, match="sticker map not a twist"):
        geometry.move_components(*geometry.MOVE_SLABS["B"])
    assert geometry.validate_geometry()[-1] == (
        "slice moves permute their slab only",
        False,
        "B: sticker map not a twist at (-3, -3, -3)",
    )


def test_geometry_rejects_a_pair_marked_on_one_color(stickers):
    k = 5
    p = geometry.EDGE_POSITIONS[2 * k + 1]
    marked, other = geometry._STICKERS[p]
    stickers(p, (other, marked))
    rows = geometry.validate_geometry()
    assert [ok for _, ok, _ in rows] == [True, True, True, False, True]
    assert rows[3] == ("edge marking distinguishes each pair", False, f"pairs [{k}]")


def test_slab_table_complete():
    assert len(geometry.MOVE_SLABS) == 12
    layers = sorted(
        layer for axis, layer in geometry.MOVE_SLABS.values() if axis == 1
    )
    assert layers == [-3, -1, 1, 3]


def test_move_order_is_the_slab_table_order():
    # generator order fixes all_generators(), the BSGS build and seeded words
    names = ["B", "MB", "MF", "F", "L", "ML", "MR", "R", "D", "MD", "MU", "U"]
    assert [m.value for m in cube.Move] == names
    assert list(geometry.MOVE_SLABS) == names


@pytest.mark.parametrize("move", MOVES, ids=[m.value for m in MOVES])
def test_generator_postconditions(move):
    g = cube.generator(move)
    assert g * g != IDENT
    assert g * g * g * g == IDENT
    assert cube.preserves_marking(g)
    assert cube.characteristic(g) == (0, 1)
    assert cube.is_licit(g)
    assert not cube.is_relabeling(g)


def test_outer_face_cycle_structure():
    g = cube.generator(cube.Move.U)
    assert sorted(map(len, perm.cycles(g.corners.perm)), reverse=True) == [4]
    assert sorted(map(len, perm.cycles(g.centers)), reverse=True) == [4]
    assert sorted(map(len, perm.cycles(g.edges.perm)), reverse=True) == [4, 4]
    assert perm.sign(g.corners.perm) == -1
    assert perm.sign(g.centers) == -1


def test_inner_slice_cycle_structure():
    g = cube.generator(cube.Move.MU)
    assert g.corners.perm == perm.identity(8)
    assert g.corners.twists == (0,) * 8
    assert sorted(map(len, perm.cycles(g.centers)), reverse=True) == [4, 4]
    assert sorted(map(len, perm.cycles(g.edges.perm)), reverse=True) == [4]


def test_opposite_slices_commute():
    a = cube.generator(cube.Move.R)
    b = cube.generator(cube.Move.L)
    assert a * b == b * a
    a = cube.generator(cube.Move.MU)
    b = cube.generator(cube.Move.MD)
    assert a * b == b * a


def test_apply_word_matches_products(make_rng):
    rng = make_rng(301)
    for _ in range(40):
        word = random_word(rng, int(rng.integers(0, 12)))
        t = IDENT
        for m in word:
            t = t * cube.generator(m)
        assert cube.apply_word(word) == t
        assert cube.is_licit(cube.apply_word(word))


def test_characteristic_homomorphism(make_rng):
    rng = make_rng(302)
    for _ in range(200):
        a = cube.random_assembly(rng, "mechanical")
        b = cube.random_assembly(rng, "mechanical")
        ta, sa = cube.characteristic(a)
        tb, sb = cube.characteristic(b)
        assert cube.characteristic(a * b) == ((ta + tb) % 3, sa * sb)


def test_characteristic_rejects_flips():
    flips = (1,) + (0,) * 23
    t = cube.CubeState(
        WreathElem(2, flips, perm.identity(24)), IDENT.corners, IDENT.centers
    )
    with pytest.raises(ValueError):
        cube.characteristic(t)


def test_relabeling_closed_under_product(make_rng):
    rng = make_rng(303)
    for _ in range(100):
        a = cube.random_relabeling(rng)
        b = cube.random_relabeling(rng)
        assert cube.is_relabeling(a * b)
        assert cube.is_relabeling(a.inverse())


def test_is_relabeling_rejects_moved_corners():
    tw = (1,) + (0,) * 7
    t = cube.CubeState(
        IDENT.edges, WreathElem(3, tw, perm.identity(8)), IDENT.centers
    )
    assert not cube.is_relabeling(t)


def _cycle(n, *points):
    """The permutation of range(n) taking each of points to the next, cyclically."""
    p = list(range(n))
    for x, y in zip(points, points[1:] + points[:1]):
        p[x] = y
    return tuple(p)


def _edited(flips=(), edges=(), corners=(), centers=()):
    """The identity with these edge bits set and these cycles of edges,
    corners and centers."""
    bits = tuple(int(i in flips) for i in range(cube.NUM_EDGES))
    return cube.CubeState(
        WreathElem(2, bits, _cycle(cube.NUM_EDGES, *edges)),
        WreathElem(3, IDENT.corners.twists, _cycle(cube.NUM_CORNERS, *corners)),
        _cycle(cube.NUM_CENTERS, *centers),
    )


RELABELING_CASES = {
    "identity": (True, {}),
    **{
        f"pair {k} swapped and flipped": (True, dict(edges=pair, flips=pair))
        for k in range(cube.NUM_EDGE_PAIRS)
        for pair in [(2 * k, 2 * k + 1)]
    },
    "4-cycle in center block 2": (True, dict(centers=(8, 10, 9, 11))),
    "pair 3 swapped without flips": (False, dict(edges=(6, 7))),
    "pair 3 fixed with both flips": (False, dict(flips=(6, 7))),
    "one member of fixed pair 3 flipped": (False, dict(flips=(7,))),
    "edges 0 and 2 swapped and flipped": (False, dict(edges=(0, 2), flips=(0, 2))),
    "centers 0 and 4 swapped": (False, dict(centers=(0, 4))),
    "corners 0 and 1 swapped": (False, dict(corners=(0, 1))),
}


@pytest.mark.parametrize("case", RELABELING_CASES)
def test_is_relabeling_cases(case):
    want, edits = RELABELING_CASES[case]
    assert cube.is_relabeling(_edited(**edits)) is want


def test_pair_flip_state_factors_through_relabeling():
    # flipping both stickers of one pair is a relabeling times a licit element
    flips = (1, 1) + (0,) * 22
    t = cube.CubeState(
        WreathElem(2, flips, perm.identity(24)), IDENT.corners, IDENT.centers
    )
    assert not cube.preserves_marking(t)
    assert cube.is_solvable(t)
    # the pair-0 swap carries the double flip, so it is never flip-free
    swap = WreathElem(2, flips, (1, 0) + tuple(range(2, 24)))
    i = cube.CubeState(swap, IDENT.corners, IDENT.centers)
    assert cube.is_relabeling(i)
    assert not cube.preserves_marking(i)
    assert i.edges.twists == flips
    rest = i.inverse() * t
    assert cube.is_licit(rest)
    assert i * rest == t


def test_single_flip_is_unsolvable():
    flips = (1,) + (0,) * 23
    t = cube.CubeState(
        WreathElem(2, flips, perm.identity(24)), IDENT.corners, IDENT.centers
    )
    assert not cube.is_solvable(t)
    assert cube.classify(t).pair_labels[0] != 0


def test_single_twist_is_unsolvable():
    tw = (1,) + (0,) * 7
    t = cube.CubeState(
        IDENT.edges, WreathElem(3, tw, perm.identity(8)), IDENT.centers
    )
    assert not cube.is_solvable(t)
    assert cube.classify(t).twist == 1
    # a compensating twist elsewhere restores solvability
    tw2 = (1, 0, 0, 0, 0, 0, 0, 2)
    t2 = cube.CubeState(
        IDENT.edges, WreathElem(3, tw2, perm.identity(8)), IDENT.centers
    )
    assert cube.is_solvable(t2)


def test_any_permutation_alone_is_solvable(make_rng):
    # with no flips and no twists, parity never obstructs
    rng = make_rng(304)
    for _ in range(50):
        t = cube.CubeState(
            WreathElem(2, (0,) * 24, random_perm(24, rng)),
            WreathElem(3, (0,) * 8, random_perm(8, rng)),
            random_perm(24, rng),
        )
        assert cube.is_solvable(t)


def test_identity_class_string():
    assert cube.classify(IDENT).to_string() == "000000000000:0"
    assert cube.classify(IDENT).twist == 0


def test_classify_constant_on_classes(make_rng):
    rng = make_rng(305)
    for _ in range(150):
        t = cube.random_assembly(rng)
        i = cube.random_relabeling(rng)
        l = cube.apply_word(random_word(rng, 10))
        assert cube.classify(i * t * l) == cube.classify(t)


def test_solvable_iff_identity_class(make_rng):
    rng = make_rng(306)
    ident_cls = cube.classify(IDENT)
    hits = 0
    for _ in range(300):
        t = cube.random_assembly(rng)
        same = cube.classify(t) == ident_cls
        assert cube.is_solvable(t) == same
        hits += same
    assert hits < 30  # solvable rate is 1/12288, expect none


def test_classify_mechanical_matches_twist(make_rng):
    rng = make_rng(307)
    for _ in range(100):
        t = cube.random_assembly(rng, "mechanical")
        assert cube.classify(t).twist == t.corners.twist_sum()
        assert cube.is_solvable(t) == (cube.classify(t).twist == 0)


def test_representative_round_trip(make_rng):
    rng = make_rng(308)
    for _ in range(100):
        labels = tuple(int(rng.integers(0, 3)) for _ in range(12))
        tw = int(rng.integers(0, 3))
        cls = cube.StateClass(labels, tw)
        assert cube.classify(cube.representative(cls)) == cls


def test_representative_of_random_state_lands_in_same_class(make_rng):
    rng = make_rng(309)
    for _ in range(50):
        t = cube.random_assembly(rng)
        cls = cube.classify(t)
        assert cube.classify(cube.representative(cls)) == cls


def test_state_class_string_round_trip():
    s = "201000200000:2"
    cls = cube.StateClass.from_string(s)
    assert cls.to_string() == s
    with pytest.raises(ValueError):
        cube.StateClass.from_string("201:1")
    with pytest.raises(ValueError):
        cube.StateClass.from_string("0000000000003:1")
    with pytest.raises(ValueError):
        cube.StateClass((0,) * 12, 3)
    # to_string would print 'True' or '1.0'
    zeros = (0,) * 12
    for labels, twist in [((True,) + zeros[1:], 0), (zeros, True), (zeros, 1.0)]:
        with pytest.raises(ValueError):
            cube.StateClass(labels, twist)


def test_random_assembly_pinned_class(make_rng):
    t = cube.random_assembly(make_rng(3))
    assert cube.classify(t).to_string() == "201000200000:2"
    t = cube.random_assembly(make_rng(0))
    assert cube.classify(t).to_string() == "020010000012:1"
    assert t.edges.twists[:4] == (1, 1, 1, 0)
    assert t.corners.twists == (1, 0, 1, 2, 1, 1, 2, 2)


# sha256 of format_state for seeds 0, 1, 2: each mode's whole stream,
# flip bits and placement draws alike
SAMPLER_PINS = {
    "marked": (
        "8a87c5f43b64da07e887ac76952b5a58cbb079368daf882659362e37e538b68c",
        "a40c1e140a2ee5d85b66a223e801f686daebe3bb0d6efe9d111a923cdf1eb5e3",
        "537349a7fb8ff947fec4f944c0ba7c3075648a441ee670d508df8d07ec498778",
    ),
    "mechanical": (
        "3e660d2586fdbcf1df5fb994710e60f49ed184f1aecd094071b9c4e64c4517c8",
        "b881a9eec0854d2387d7a445d5a4abfc6aa0f600dba35691c02400153ff7c061",
        "cbd058b6d0c9dbd316faa097826ee820d7ac77001141529fa5e44d2dbd8179ca",
    ),
}


@pytest.mark.parametrize("mode", sorted(SAMPLER_PINS))
def test_sampler_streams_pinned(make_rng, mode):
    got = tuple(
        hashlib.sha256(
            cube.format_state(cube.random_assembly(make_rng(seed), mode)).encode()
        ).hexdigest()
        for seed in range(3)
    )
    assert got == SAMPLER_PINS[mode]


def test_consecutive_draws_pinned(make_rng):
    # SAMPLER_PINS reads only each seed's first draw; this pins a run of
    # draws from one generator and where the generator stands afterwards
    rng = make_rng(330)
    h = hashlib.sha256()
    for mode in cube.MODES:
        for _ in range(20):
            h.update(cube.format_state(cube.random_assembly(rng, mode)).encode())
    for _ in range(20):
        h.update(cube.format_state(cube.random_relabeling(rng)).encode())
    h.update(str(int(rng.integers(0, 2**30))).encode())
    assert h.hexdigest() == (
        "e403b916bec480ab8586abf08a4f8467020ff64543362f368016c298c5f862ca"
    )


@pytest.mark.parametrize("mode", cube.MODES)
@pytest.mark.parametrize("n", [0, 1, 5])
def test_random_assemblies_match_single_draws(make_rng, mode, n):
    # one draw call for n assemblies gives those of n random_assembly calls,
    # and leaves the generator where they leave it
    batched, single = make_rng(331), make_rng(331)
    got = list(cube.random_assemblies(batched, n, mode))
    assert got == [cube.random_assembly(single, mode) for _ in range(n)]
    after = [rng.integers(0, 2**30, size=4).tolist() for rng in (batched, single)]
    assert after[0] == after[1]


def test_random_mechanical_assembly_is_flip_free(make_rng):
    rng = make_rng(310)
    for _ in range(50):
        t = cube.random_assembly(rng, "mechanical")
        assert t.edges.twists == (0,) * 24


def test_group_axioms_on_states(make_rng):
    rng = make_rng(311)
    for _ in range(60):
        a = cube.random_assembly(rng)
        b = cube.random_assembly(rng)
        c = cube.random_assembly(rng)
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == IDENT
        assert a.inverse() * a == IDENT


def test_constructor_keeps_normalised_tuples():
    listed = cube.CubeState(
        WreathElem(2, [0] * 24, list(range(24))),
        WreathElem(3, [0] * 8, list(range(8))),
        list(range(24)),
    )
    arrays = cube.CubeState(
        WreathElem(2, (0,) * 24, np.arange(24)),
        WreathElem(3, (0,) * 8, np.arange(8)),
        np.arange(24),
    )
    for t in (listed, arrays):
        assert t == IDENT and hash(t) == hash(IDENT)
    listed = cube.StateClass([0] * 12, 0)
    ref = cube.StateClass((0,) * 12, 0)
    assert listed == ref and hash(listed) == hash(ref)


def test_constructor_rejects_bad_components():
    edges, corners, centers = IDENT.edges, IDENT.corners, IDENT.centers
    for bad in [
        (WreathElem.identity(3, 24), corners, centers),
        (WreathElem.identity(2, 23), corners, centers),
        (edges, WreathElem.identity(2, 8), centers),
        (edges, corners, (0,) * 24),
        (edges, corners, perm.identity(23)),
    ]:
        with pytest.raises(ValueError):
            cube.CubeState(*bad)


def _rebuilt(t):
    """t through the validating public constructors."""
    if isinstance(t, WreathElem):
        return WreathElem(t.k, t.twists, t.perm)
    return cube.CubeState(_rebuilt(t.edges), _rebuilt(t.corners), t.centers)


def _rows(t):
    if isinstance(t, WreathElem):
        return [t.twists, t.perm]
    return _rows(t.edges) + _rows(t.corners) + [t.centers]


def test_closed_operations_do_not_revalidate(make_rng, monkeypatch):
    rng = make_rng(315)
    pairs = [(cube.random_assembly(rng), cube.random_assembly(rng)) for _ in range(20)]

    classes = [cube.classify(cube.random_assembly(rng)) for _ in range(10)]
    classes.append(cube.classify(IDENT))
    draw_seeds = rng.integers(0, 2**32, size=3).tolist()

    def refuse(p):
        raise AssertionError("a product, inverse or builder re-validated its result")

    monkeypatch.setattr(perm, "check_perm", refuse)
    cube.generator.cache_clear()  # rebuild every generator under the refusal
    results = []
    for a, b in pairs:
        results += [a * b, a.inverse()]
        for x, y in [(a.edges, b.edges), (a.corners, b.corners)]:
            results += [x * y, x.inverse()]
    results += [cube.identity_state(), *cube.all_generators()]
    results += [cube.representative(c) for c in classes]
    for seed in draw_seeds:
        r = np.random.default_rng(seed)
        results += [cube.random_assembly(r, mode) for mode in cube.MODES]
        results += [cube.random_relabeling(r) for _ in range(3)]
    monkeypatch.undo()
    for t in results:
        ref = _rebuilt(t)
        assert t == ref and hash(t) == hash(ref)
        for row in _rows(t):
            assert type(row) is tuple and all(type(x) is int for x in row)


def test_class_builders_do_not_revalidate(make_rng, monkeypatch):
    rng = make_rng(317)
    states = [cube.random_assembly(rng) for _ in range(20)] + [IDENT]

    def refuse(self):
        raise AssertionError("a class builder re-validated its result")

    monkeypatch.setattr(cube.StateClass, "__post_init__", refuse)
    classes = [cube.classify(t) for t in states]
    parsed = [cube.StateClass.from_string(c.to_string()) for c in classes]
    again = [cube.classify(cube.representative(c)) for c in parsed]
    monkeypatch.undo()
    for found in zip(classes, parsed, again):
        ref = cube.StateClass(found[0].pair_labels, found[0].twist)
        assert all(c == ref and hash(c) == hash(ref) for c in found)
        assert all(type(c.pair_labels) is tuple for c in found)


# state files


def test_format_parse_round_trip(make_rng):
    rng = make_rng(312)
    for _ in range(30):
        t = cube.random_assembly(rng)
        assert cube.parse_state(cube.format_state(t)) == t
    text = cube.format_state(IDENT)
    assert text.endswith("\n")
    assert text.splitlines()[0].startswith("edges_flip:")


def test_parse_state_reports_positions():
    text = cube.format_state(IDENT)

    bad = text.replace("edges_flip:", "edge_flip:", 1)
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state(bad)
    assert e.value.line == 1 and e.value.token == 0

    lines = text.splitlines()
    parts = lines[2].split()
    parts[3] = "5"  # twist out of range
    lines[2] = " ".join(parts)
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state("\n".join(lines) + "\n")
    assert e.value.line == 3 and e.value.token == 3

    lines = text.splitlines()
    parts = lines[1].split()
    parts[1] = parts[2]  # duplicate image breaks bijectivity
    lines[1] = " ".join(parts)
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state("\n".join(lines) + "\n")
    assert e.value.line == 2 and e.value.token == 0
    assert str(e.value) == "line 2, token 0: 'edges_perm' is not a permutation"

    lines = text.splitlines()
    parts = lines[4].split()
    parts[7] = "x"
    lines[4] = " ".join(parts)
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state("\n".join(lines) + "\n")
    assert e.value.line == 5 and e.value.token == 7

    # int() would take each of these; a token must be plain ASCII digits
    for lineno, pos, tok in (
        (2, 5, "+4"),
        (2, 6, "0_5"),
        (1, 2, "-0"),
        (1, 3, "\u0661"),
    ):
        lines = text.splitlines()
        parts = lines[lineno - 1].split()
        parts[pos] = tok
        lines[lineno - 1] = " ".join(parts)
        with pytest.raises(cube.StateFileError) as e:
            cube.parse_state("\n".join(lines) + "\n")
        assert e.value.line == lineno and e.value.token == pos


def test_parse_state_long_token_has_a_position():
    # ones, not zeros: out of range if int() takes 5,000 digits, unreadable if not
    lines = cube.format_state(IDENT).splitlines()
    lines[0] = lines[0].replace(" 0", " " + "1" * 5000, 1)
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state("\n".join(lines) + "\n")
    assert e.value.line == 1 and e.value.token == 1


def test_parse_state_does_not_revalidate(make_rng, monkeypatch):
    texts = [cube.format_state(cube.random_assembly(make_rng(seed))) for seed in range(5)]

    def refuse(p):
        raise AssertionError("parse_state re-validated a checked field")

    monkeypatch.setattr(perm, "check_perm", refuse)
    parsed = [cube.parse_state(text) for text in texts]
    monkeypatch.undo()
    for text, t in zip(texts, parsed):
        ref = _rebuilt(t)
        assert t == ref and hash(t) == hash(ref)
        assert cube.format_state(t) == text
        for row in _rows(t):
            assert type(row) is tuple and all(type(x) is int for x in row)


def _form_feed_lines(t):
    """t's state file as lines, with one separator on line 3 a form feed,
    which str.splitlines() would take for a line break."""
    lines = cube.format_state(t).splitlines()
    parts = lines[2].split(" ")  # label, then 8 twists
    lines[2] = " ".join(parts[:2]) + "\x0c" + " ".join(parts[2:])
    return lines


def test_parse_state_breaks_lines_at_newline_only(make_rng):
    t = cube.random_assembly(make_rng(316))
    assert cube.parse_state("\n".join(_form_feed_lines(t)) + "\n") == t


def test_parse_state_error_line_after_form_feed(make_rng):
    lines = _form_feed_lines(cube.random_assembly(make_rng(316)))
    parts = lines[3].split()
    parts[1] = "x"
    lines[3] = " ".join(parts)
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state("\n".join(lines) + "\n")
    assert e.value.line == 4 and e.value.token == 1


def test_parse_state_wrong_shape():
    with pytest.raises(cube.StateFileError):
        cube.parse_state("garbage\n")
    text = cube.format_state(IDENT)
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state(text + "extra: 1\n")
    assert e.value.line == 6
    short = "\n".join(text.splitlines()[:4]) + "\n"
    with pytest.raises(cube.StateFileError):
        cube.parse_state(short)
    # too few tokens on a line
    lines = text.splitlines()
    lines[0] = "edges_flip: 0 0 0"
    with pytest.raises(cube.StateFileError) as e:
        cube.parse_state("\n".join(lines) + "\n")
    assert e.value.line == 1
