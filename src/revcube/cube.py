"""Assemblies of the 4x4x4 cube and the slice-move group.

An assembly is what a (possibly incorrectly) reassembled cube looks like,
recorded relative to the solved assembly: a flip-and-permutation of the 24
edge pieces, a twist-and-permutation of the 8 corners, and a permutation of
the 24 face centers.  Assemblies multiply like transformations (right factor
acts first), so the type doubles as the group the analysis runs in.

Three subgroups drive everything:
  - marking-preserving elements: all edge flips zero.  Assemblies of that
    shape are exactly the mechanically buildable ones, since an edge piece
    only fits its slot one way;
  - licit elements: generated by the twelve slice moves.  Inside the
    marking-preserving elements they are cut out by two conditions, total
    corner twist 0 mod 3 and corner permutation sign equal to center
    permutation sign (the `characteristic` pair);
  - relabelings: elements that swap identically-colored pieces in place,
    which no observer can see; `is_relabeling` states the rule piece by piece.

Solvability of an assembly means a relabeling followed by a licit element
reaches it.  In closed form: every edge pair has equal flip bits and the
corner twists sum to 0 mod 3.  The closed form is not trusted here by
fiat: the oracle module checks it exhaustively on miniature models.

Two regimes are named by one `mode` string (MODES): ``marked`` covers every
assembly, ``mechanical`` the flip-free ones, with the flip bits left out.

Constructors, parse_state and StateClass.from_string validate their input
and raise ValueError.  Nothing built inside the module is checked again:
products and inverses stay in the group, parse_state, identity_state,
generator, representative and the random builders pass valid rows to
_from_rows, and classify and from_string build valid classes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import geometry
from . import perm as pm
from .wreath import WreathElem, _trusted

if TYPE_CHECKING:
    import numpy as np

NUM_EDGES = geometry.NUM_EDGES
NUM_EDGE_PAIRS = geometry.NUM_EDGE_PAIRS
NUM_CORNERS = geometry.NUM_CORNERS
NUM_CENTERS = geometry.NUM_CENTERS
NUM_CENTER_BLOCKS = geometry.NUM_CENTER_BLOCKS

MODES = ("marked", "mechanical")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class CubeState:
    """Assembly relative to the solved cube, in wreath coordinates."""

    edges: WreathElem
    corners: WreathElem
    centers: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.edges.k != 2 or self.edges.degree != NUM_EDGES:
            raise ValueError("edge component must be 24 flip-permutation pairs")
        if self.corners.k != 3 or self.corners.degree != NUM_CORNERS:
            raise ValueError("corner component must be 8 twist-permutation pairs")
        object.__setattr__(self, "centers", pm.check_perm(self.centers))
        if len(self.centers) != NUM_CENTERS:
            raise ValueError("center component must permute 24 pieces")

    def __mul__(self, other: "CubeState") -> "CubeState":
        return _trusted(
            CubeState,
            edges=self.edges * other.edges,
            corners=self.corners * other.corners,
            centers=pm.compose(self.centers, other.centers),
        )

    def inverse(self) -> "CubeState":
        return _trusted(
            CubeState,
            edges=self.edges.inverse(),
            corners=self.corners.inverse(),
            centers=pm.inverse(self.centers),
        )


# the five rows of an assembly, in state-file order: label, length, twist modulus
_STATE_LINES = (
    ("edges_flip", NUM_EDGES, 2),
    ("edges_perm", NUM_EDGES, None),
    ("corners_twist", NUM_CORNERS, 3),
    ("corners_perm", NUM_CORNERS, None),
    ("centers_perm", NUM_CENTERS, None),
)
_IDENTITY_ROWS = tuple((0,) * n if k else pm.identity(n) for _, n, k in _STATE_LINES)


def _from_rows(etw, ep, ctw, cp, zp) -> CubeState:
    """The assembly with these rows, in _STATE_LINES order, built without
    re-checking: each row must be a valid tuple of Python ints."""
    return _trusted(
        CubeState,
        edges=_trusted(WreathElem, k=2, twists=etw, perm=ep),
        corners=_trusted(WreathElem, k=3, twists=ctw, perm=cp),
        centers=zp,
    )


def _rows(t: CubeState) -> tuple[tuple[int, ...], ...]:
    return (t.edges.twists, t.edges.perm, t.corners.twists, t.corners.perm, t.centers)


def identity_state() -> CubeState:
    return _from_rows(*_IDENTITY_ROWS)


Move = enum.Enum("Move", [(n, n) for n in geometry.MOVE_SLABS], module=__name__)
Move.__doc__ = "The twelve slab quarter-turns, outer faces and inner slices."


@cache
def generator(move: Move) -> CubeState:
    """The assembly reached from solved by one slice quarter-turn."""
    return _from_rows(*geometry.move_components(*geometry.MOVE_SLABS[move.value]))


def all_generators() -> tuple[CubeState, ...]:
    return tuple(generator(m) for m in Move)


def apply_word(word: Iterable[Move], start: CubeState | None = None) -> CubeState:
    """Apply moves left to right, starting from `start` (default solved)."""
    out = identity_state() if start is None else start
    for m in word:
        out = out * generator(m)
    return out


# ---------------------------------------------------------------------------
# subgroup membership


def preserves_marking(t: CubeState) -> bool:
    """No edge piece is flipped relative to its slot marking.

    These are exactly the assemblies a physical cube can be put into, so
    "mechanically admissible" means the same thing.
    """
    return not any(t.edges.twists)


def characteristic(t: CubeState) -> tuple[int, int]:
    """(total corner twist mod 3, corner sign times center sign).

    Defined on marking-preserving assemblies; a homomorphism onto
    C_3 x {+1,-1} whose kernel is exactly the licit group.
    """
    if not preserves_marking(t):
        raise ValueError("characteristic is defined on flip-free assemblies only")
    return (t.corners.twist_sum(), pm.sign(t.corners.perm) * pm.sign(t.centers))


def is_licit(t: CubeState) -> bool:
    """Reachable from solved by slice moves alone."""
    return preserves_marking(t) and characteristic(t) == (0, 1)


def is_relabeling(t: CubeState) -> bool:
    """Permutes identically-colored pieces in place, invisible on a solved
    cube: corners do not move, each edge stays in its pair {2k, 2k+1} and is
    flipped exactly when it moved, each center stays in its face's block
    {4k..4k+3}.  As the edge perm is a bijection, each pair is fixed or swapped.

    >>> is_relabeling(identity_state())
    True
    >>> is_relabeling(generator(Move.U))
    False
    """
    ep, eb = t.edges.perm, t.edges.twists
    return (
        _rows(t)[2:4] == _IDENTITY_ROWS[2:4]
        and all(p // 2 == i // 2 and b == (p != i) for i, (p, b) in enumerate(zip(ep, eb)))
        and all(p // 4 == i // 4 for i, p in enumerate(t.centers))
    )


def solvable_by_invariants(
    edge_bits: Sequence[int], corner_twists: Sequence[int]
) -> bool:
    """Closed form of solvability, any number of pairs and corners: both
    members of each edge pair carry the same flip bit and the corner twists
    sum to 0 mod 3.  Checked against exhaustive search in the oracle module."""
    if any(
        edge_bits[2 * k] != edge_bits[2 * k + 1] for k in range(len(edge_bits) // 2)
    ):
        return False
    return sum(corner_twists) % 3 == 0


def is_solvable(t: CubeState) -> bool:
    """A relabeling followed by a licit element reaches t."""
    return solvable_by_invariants(t.edges.twists, t.corners.twists)


# ---------------------------------------------------------------------------
# class invariants

# how one edge pair's flip bits classify under pair relabeling: (0,0) and
# (1,1) merge (label 0), (0,1) and (1,0) stay separate (labels 1, 2)
_PAIR_LABEL = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 2}
_PAIR_BITS = {0: (0, 0), 1: (0, 1), 2: (1, 0)}


@dataclass(frozen=True)
class StateClass:
    """Complete invariant of an assembly modulo relabelings and licit moves:
    one label per edge pair plus the total corner twist."""

    pair_labels: tuple[int, ...]
    twist: int

    def __post_init__(self) -> None:
        if len(self.pair_labels) != NUM_EDGE_PAIRS or not all(
            type(l) is int and l in (0, 1, 2) for l in self.pair_labels
        ):
            raise ValueError("need 12 pair labels in {0,1,2}")
        if type(self.twist) is not int or self.twist not in (0, 1, 2):
            raise ValueError("twist must lie in {0,1,2}")
        object.__setattr__(self, "pair_labels", tuple(self.pair_labels))

    def to_string(self) -> str:
        return "".join(str(l) for l in self.pair_labels) + f":{self.twist}"

    @classmethod
    def from_string(cls, s: str) -> "StateClass":
        if not re.fullmatch(r"[012]{12}:[012]", s):
            raise ValueError(f"malformed class string {s!r}")
        return _trusted(cls, pair_labels=tuple(int(c) for c in s[:12]), twist=int(s[13]))


def classify(t: CubeState) -> StateClass:
    """Invariant of the double class of t: unchanged under relabelings on
    the left and licit elements on the right, and distinct classes get
    distinct values."""
    bits = t.edges.twists
    labels = tuple(
        _PAIR_LABEL[(bits[2 * k], bits[2 * k + 1])] for k in range(NUM_EDGE_PAIRS)
    )
    return _trusted(StateClass, pair_labels=labels, twist=t.corners.twist_sum())


def representative(cls: StateClass) -> CubeState:
    """Canonical assembly in a class: identity permutations, pair bits from
    the labels, all twist on corner 0."""
    bits = tuple(b for l in cls.pair_labels for b in _PAIR_BITS[l])
    twists = (cls.twist,) + (0,) * (NUM_CORNERS - 1)
    _, ep, _, cp, zp = _IDENTITY_ROWS
    return _from_rows(bits, ep, twists, cp, zp)


# ---------------------------------------------------------------------------
# random sampling


# the rows each mode draws, in _STATE_LINES order (no flip row in mechanical),
# and their bounds: one per piece in a twist row, Fisher-Yates swap positions
_DRAWN = {"marked": _STATE_LINES, "mechanical": _STATE_LINES[1:]}
_DRAW_BOUNDS = {
    mode: [b for _, n, k in lines for b in ([k] * n if k else range(n, 1, -1))]
    for mode, lines in _DRAWN.items()
}
_RELABELING_BOUNDS = [2] * NUM_EDGE_PAIRS + [4, 3, 2] * NUM_CENTER_BLOCKS


def random_assemblies(
    rng: np.random.Generator, n: int, mode: str = "marked"
) -> Iterator[CubeState]:
    """n assemblies uniform over those of `mode`, drawn in one call and
    decoded one at a time, row by row in state-file order; in mechanical mode
    every flip bit is 0.  They are the same assemblies, in order, as n
    random_assembly calls on the same generator make."""
    _check_mode(mode)
    high = _DRAW_BOUNDS[mode]
    return (_decode(mode, iter(d.tolist())) for d in rng.integers(0, high, size=(n, len(high))))


def random_assembly(rng: np.random.Generator, mode: str = "marked") -> CubeState:
    """One assembly uniform over those of `mode` (see random_assemblies)."""
    return next(random_assemblies(rng, 1, mode))


def _decode(mode: str, d: Iterator[int]) -> CubeState:
    rows = [tuple(islice(d, n)) if k else pm.fisher_yates(n, d) for _, n, k in _DRAWN[mode]]
    return _from_rows(*_IDENTITY_ROWS[: len(_STATE_LINES) - len(rows)], *rows)


def random_relabeling(rng: np.random.Generator) -> CubeState:
    """Uniform over relabelings, drawn in one call: independent pair swaps,
    then a Fisher-Yates shuffle of each center block."""
    d = iter(rng.integers(0, _RELABELING_BOUNDS).tolist())
    bits = tuple([x for s in islice(d, NUM_EDGE_PAIRS) for x in (s, s)])  # a swap flips both
    zperm = [4 * k + x for k in range(NUM_CENTER_BLOCKS) for x in pm.fisher_yates(4, d)]
    _, _, ctw, cp, _ = _IDENTITY_ROWS
    return _from_rows(bits, tuple([i ^ b for i, b in enumerate(bits)]), ctw, cp, tuple(zperm))


# ---------------------------------------------------------------------------
# state files


class StateFileError(ValueError):
    """Parse failure with the offending line and token recorded (1-based;
    token 0 means the line itself is malformed)."""

    def __init__(self, line: int, token: int, msg: str):
        super().__init__(f"line {line}, token {token}: {msg}")
        self.line = line
        self.token = token


def _natural(text: str) -> int | None:
    """`text` as an int if it is plain ASCII decimal digits, else None."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def format_state(t: CubeState) -> str:
    return "".join(
        f"{label}: " + " ".join(str(x) for x in row) + "\n"
        for (label, _, _), row in zip(_STATE_LINES, _rows(t))
    )


def parse_state(text: str) -> CubeState:
    """Read a state file; lines end at "\n" only, a "\r" before it is whitespace."""
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    want = len(_STATE_LINES)
    if len(lines) != want:  # report the first extra or the first missing line
        line = min(len(lines), want) + 1
        raise StateFileError(line, 0, f"expected {want} lines, got {len(lines)}")
    rows: list[tuple[int, ...]] = []
    for lineno, (raw, (label, count, modulus)) in enumerate(
        zip(lines, _STATE_LINES), start=1
    ):
        head, sep, rest = raw.partition(":")
        if not sep or head.strip() != label:
            raise StateFileError(lineno, 0, f"expected '{label}:'")
        tokens = rest.split()
        if len(tokens) != count:
            raise StateFileError(
                lineno, len(tokens) + 1, f"expected {count} values, got {len(tokens)}"
            )
        values = []
        bound = modulus or count
        for pos, tok in enumerate(tokens, start=1):
            if (v := _natural(tok)) is None:
                shown = repr(tok)
                if len(tok) > 20:  # a prefix and the length, not the whole token
                    shown = f"{tok[:20] + '...'!r} ({len(tok)} characters)"
                raise StateFileError(lineno, pos, f"not an integer: {shown}")
            if v >= bound:
                msg = f"value {v} out of range 0..{bound - 1}"
                raise StateFileError(lineno, pos, msg)
            values.append(v)
        if modulus is None and len(set(values)) != count:  # each value is in range
            raise StateFileError(lineno, 0, f"'{label}' is not a permutation")
        rows.append(tuple(values))
    return _from_rows(*rows)
