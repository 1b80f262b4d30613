"""Geometric model of the 4x4x4 cube and its twelve slice moves.

Pieces live on the surface shell of the cube, at integer coordinates in
{-3, -1, 1, 3}^3: corners have three coordinates of magnitude 3, edge pieces
two, face centers one.  That gives 8 + 24 + 24 = 56 pieces.  A sticker is an
outward unit normal of a piece, one per face of magnitude 3.

Indexing (all 0-based, fixed once):
  - faces: +x, -x, +y, -y, +z, -z are 0..5; the solved coloring gives face f
    the color f;
  - corners: the 8 positions in lexicographic order;
  - edges: the 12 cube edges sorted by (major axes, major signs); the two
    pieces of edge pair k get indices 2k (minor coordinate +1) and 2k+1
    (minor coordinate -1), so pieces with identical sticker colors are
    exactly {2k, 2k+1};
  - centers: face f owns indices 4f..4f+3, its positions in lexicographic
    order, so same-color centers are exactly {4k, ..., 4k+3}.

Orientation bookkeeping: each edge piece has a marked sticker, chosen by
chirality; each corner piece is marked on its up/down sticker and numbers
the other two by one-third turns.  `_piece` holds both rules, and the
positions and sticker tables of all three kinds are built from it alone.

A slice move is a quarter turn of one slab {p : p[axis] == layer}, layer in
{3, 1, -1, -3}, turned clockwise as seen from outside the nearest face, i.e.
right-handed sense -sign(layer) about the axis.  The induced (twists, perm)
coordinates are read off by following stickers and certified against the
slab and the full sticker map.
"""

from __future__ import annotations

import itertools

Vec = tuple[int, int, int]


def _sgn(x: int) -> int:
    return 1 if x > 0 else -1


def _unit(axis: int, s: int) -> Vec:
    v = [0, 0, 0]
    v[axis] = s
    return tuple(v)  # type: ignore[return-value]


def _det(u: Vec, v: Vec, w: Vec) -> int:
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def rotate(v: Vec, axis: int, sense: int) -> Vec:
    """Quarter turn of a vector about a coordinate axis.

    sense +1 is the right-handed turn about +axis (it sends the next axis in
    cyclic x->y->z order to the one after), sense -1 the inverse.

    >>> rotate((1, 0, 0), 2, 1)
    (0, 1, 0)
    """
    b, c = (axis + 1) % 3, (axis + 2) % 3
    out = list(v)
    out[b], out[c] = -sense * v[c], sense * v[b]
    return tuple(out)  # type: ignore[return-value]


FACE_NORMALS: tuple[Vec, ...] = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)
FACE_OF: dict[Vec, int] = {n: i for i, n in enumerate(FACE_NORMALS)}

NUM_CORNERS = 8
NUM_EDGES = 24
NUM_EDGE_PAIRS = 12
NUM_CENTERS = 24
NUM_CENTER_BLOCKS = 6


def _piece(p: Vec) -> tuple[tuple, tuple[Vec, ...]]:
    """(index-order key, sticker normals in fibre order) of the piece at p.

    The kind is the number of coordinates of magnitude 3; each such axis
    gives one sticker, the outward unit normal of that face.
      - corner (3): key p, lexicographic.  Sticker 0 is the up/down one
        (axis y); the one-third turn of the piece about its diagonal toward
        the cube center (right-hand rule) sends sticker b to where sticker
        b+1 sits.  That turn cycles the local axes 0->2->1 when the octant
        sign product is positive and 0->1->2 otherwise (sign of the triple
        product of the sticker normals against the turn axis).
      - edge (2): key (major axes, major signs), then minor +1 before
        minor -1.  Chirality rule: sticker 0, the marked one, is the normal
        u with det[u, v, w] > 0, where v is the other sticker normal and w
        points along the minor axis, away from the pair's midline.  det is
        invariant under rotations, so every slice move sends marked stickers
        to marked stickers, and w changes sign between the two pieces of a
        pair, so their marked stickers sit on different faces (hence
        different colors).
      - center (1): key (face, p); the one sticker as a 1-tuple.
    """
    majors = [a for a in range(3) if abs(p[a]) == 3]
    normals = [_unit(a, _sgn(p[a])) for a in majors]
    if len(majors) == 3:
        seq = (1, 0, 2) if p[0] * p[1] * p[2] > 0 else (1, 2, 0)
        return p, tuple(normals[a] for a in seq)  # all three axes are major
    if len(majors) == 2:
        (i, j), (u, v) = majors, normals
        m = 3 - i - j  # the minor axis
        # pair identity first, then minor +1 before minor -1
        key = (i, j, _sgn(p[i]), _sgn(p[j]), -_sgn(p[m]))
        return key, ((u, v) if _det(u, v, _unit(m, _sgn(p[m]))) > 0 else (v, u))
    return (FACE_OF[normals[0]], p), (normals[0],)


_SHELL = [p for p in itertools.product((-3, -1, 1, 3), repeat=3) if 3 in map(abs, p)]
# sticker normals in fibre order, by position
_STICKERS = {p: _piece(p)[1] for p in _SHELL}
CORNER_POSITIONS, EDGE_POSITIONS, CENTER_POSITIONS = (
    tuple(sorted((p for p in _SHELL if len(_STICKERS[p]) == n), key=lambda p: _piece(p)[0]))
    for n in (3, 2, 1)
)
# index within its kind, by position: the kinds never share a position
_INDEX = {
    p: i
    for positions in (CORNER_POSITIONS, EDGE_POSITIONS, CENTER_POSITIONS)
    for i, p in enumerate(positions)
}

# slab of every move: (axis, layer); layer 3 is the outer face the move is
# named after, 1 and -1 the inner slabs, -3 the opposite outer face.  The
# order is cube.Move's, which fixes the generator order and seeded words.
MOVE_SLABS: dict[str, tuple[int, int]] = {
    "B": (2, -3),
    "MB": (2, -1),
    "MF": (2, 1),
    "F": (2, 3),
    "L": (0, -3),
    "ML": (0, -1),
    "MR": (0, 1),
    "R": (0, 3),
    "D": (1, -3),
    "MD": (1, -1),
    "MU": (1, 1),
    "U": (1, 3),
}


class GeometryError(RuntimeError):
    """The geometric model failed one of its construction certificates."""


def move_components(
    axis: int, layer: int
) -> tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]
]:
    """(edge twists, edge perm, corner twists, corner perm, center perm) of
    one slab quarter-turn.

    perm[i] is the slot the piece in slot i moves to; the twist is stored at
    the destination slot.  Certified, raising GeometryError otherwise: each
    moved piece lands in its slab, on a slot no other piece lands on, and its
    stickers land as a cyclic shift of the destination's, by the twist;
    otherwise the move would not have wreath coordinates at all.  Centers
    follow their one sticker and carry no twist.
    """
    sense = -1 if layer > 0 else 1

    def follow(positions: tuple[Vec, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        perm = list(range(len(positions)))
        tw = [0] * len(positions)
        landed: set[Vec] = set()
        for i, p in enumerate(positions):
            if p[axis] != layer:
                continue
            q = rotate(p, axis, sense)
            if q[axis] != layer or q in landed:
                raise GeometryError(f"slab not stable at {p}")
            landed.add(q)
            j = perm[i] = _INDEX[q]
            moved = tuple(rotate(s, axis, sense) for s in _STICKERS[p])
            dst = _STICKERS[q]
            off = dst.index(moved[0]) if moved[0] in dst else 0
            if moved != dst[off:] + dst[:off]:  # no shift of dst matches
                raise GeometryError(f"sticker map not a twist at {p}")
            tw[j] = off
        return tuple(tw), tuple(perm)

    edge_tw, edge_perm = follow(EDGE_POSITIONS)
    corner_tw, corner_perm = follow(CORNER_POSITIONS)
    _, center_perm = follow(CENTER_POSITIONS)
    return edge_tw, edge_perm, corner_tw, corner_perm, center_perm


def sticker_color(normal: Vec) -> int:
    """Color of a sticker in the solved assembly: the face it lies on."""
    return FACE_OF[normal]


def validate_geometry() -> list[tuple[str, bool, str]]:
    """Certificates of the piece model.  Returns (name, ok, detail) rows."""
    checks: list[tuple[str, bool, str]] = []

    ok = (
        len(set(CORNER_POSITIONS)) == NUM_CORNERS
        and len(set(EDGE_POSITIONS)) == NUM_EDGES
        and len(set(CENTER_POSITIONS)) == NUM_CENTERS
    )
    checks.append(("piece counts 8/24/24", ok, ""))

    # sticker colors of each edge piece, marked first; pair k is (2k, 2k+1)
    colors = [tuple(map(sticker_color, _STICKERS[p])) for p in EDGE_POSITIONS]
    pairs = list(zip(colors[::2], colors[1::2]))
    shared = {frozenset(a) for a, b in pairs if set(a) == set(b) and len(set(a)) == 2}
    ok = len(shared) == NUM_EDGE_PAIRS  # a pair that fails is left out of the set
    checks.append(("edge pairs {2k,2k+1} share colors, pairwise distinct", ok, ""))

    ok = True
    for k in range(NUM_CENTER_BLOCKS):
        cols = {sticker_color(_STICKERS[p][0]) for p in CENTER_POSITIONS[4 * k : 4 * k + 4]}
        ok = ok and cols == {k}
    checks.append(("center blocks {4k..4k+3} monochrome per face", ok, ""))

    # marked stickers of a pair must land on different faces in the solved
    # coloring, otherwise relabeling the pair would be visible
    bad = [k for k, (a, b) in enumerate(pairs) if a[0] == b[0]]
    checks.append(
        ("edge marking distinguishes each pair", not bad, f"pairs {bad}" if bad else "")
    )

    detail = ""
    for name, slab in MOVE_SLABS.items():
        try:
            move_components(*slab)
        except GeometryError as e:
            detail = f"{name}: {e}"
            break
    checks.append(("slice moves permute their slab only", not detail, detail))

    return checks
