"""Brute-force ground truth on miniature models.

The closed-form solvability predicate and the class counts are cheap to
state and easy to get subtly wrong, so this module recomputes them by
exhaustive search on shrunken cubes: m edge pairs, c corners, b center
blocks.  The group shape is the same (flip wreath x twist wreath x block
permutations), only the sizes differ.  An element is one value of each of
three axes, ((edge bits, edge perm), (corner twists, corner perm), center
perm), and its rank is mixed radix over the axes.  The answers read the
connected components of the ranks, the double classes, under the generators'
image tables, array products that a test checks against mini_mul; each
subgroup's generator closure is a breadth-first search over the same tables.

Everything here is deliberately self-contained: its own element encoding
and multiplication, and subgroups built by filtering, by predicate and by
generator closure (asserted equal).  The only import from the main path is
the closed-form predicate it is checking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from . import cube

ENUMERATION_CAP = 10**7

# element: ((edge bits, edge perm), (corner twists, corner perm), center perm)
MiniElem = tuple[tuple, tuple, tuple[int, ...]]


def _perm_sign(p: Sequence[int]) -> int:
    """Sign as the parity of the inversion count, so that it shares no
    algorithm with perm.sign, which walks cycles."""
    inversions = sum(a > b for a, b in itertools.combinations(p, 2))
    return -1 if inversions & 1 else 1


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(p.__getitem__, q))


def _wmul(k: int, a: tuple, b: tuple) -> tuple:
    (atw, ap), (btw, bp) = a, b
    tw = list(atw)
    for i, j in enumerate(ap):
        tw[j] = (atw[j] + btw[i]) % k
    return tuple(tw), _compose(ap, bp)


def _cycle(n: int, *points: int) -> tuple[int, ...]:
    """The permutation of range(n) taking each of points to the next, cyclically."""
    p = list(range(n))
    for x, y in zip(points, points[1:] + points[:1]):
        p[x] = y
    return tuple(p)


def mini_mul(a: MiniElem, b: MiniElem) -> MiniElem:
    return _wmul(2, a[0], b[0]), _wmul(3, a[1], b[1]), _compose(a[2], b[2])


@dataclass(frozen=True)
class MiniModel:
    """A cube shrunk to m edge pairs, c corners, b center blocks."""

    pairs: int = 2
    corners: int = 2
    blocks: int = 1

    def __post_init__(self) -> None:
        if self.pairs < 0 or self.corners < 0 or self.blocks < 1:
            raise ValueError("need pairs >= 0, corners >= 0, blocks >= 1")
        if self.size() > ENUMERATION_CAP:
            raise ValueError(f"model size {self.size()} exceeds {ENUMERATION_CAP}")

    @property
    def edge_n(self) -> int:
        return 2 * self.pairs

    @property
    def center_n(self) -> int:
        return 4 * self.blocks

    def size(self) -> int:
        e, c, z = self.edge_n, self.corners, self.center_n
        return 2**e * math.factorial(e) * 3**c * math.factorial(c) * math.factorial(z)

    @cached_property
    def _axes(self) -> tuple[list, list, list]:
        """Values of the three rank axes: (edge bits, edge perm), (corner
        twists, corner perm), center perm.  An element's rank is mixed radix
        over them, bits and twists the faster digit of their axis, so the
        flip-free edge values are every 2**edge_n-th."""
        flips = list(itertools.product((0, 1), repeat=self.edge_n))
        twists = list(itertools.product((0, 1, 2), repeat=self.corners))
        return (
            [(eb, ep) for ep in itertools.permutations(range(self.edge_n)) for eb in flips],
            [(ct, cp) for cp in itertools.permutations(range(self.corners)) for ct in twists],
            list(itertools.permutations(range(self.center_n))),
        )

    def identity(self) -> MiniElem:
        return tuple(values[0] for values in self._axes)

    # -- defining conditions ------------------------------------------------

    def is_licit(self, t: MiniElem) -> bool:
        (eb, _), (ct, cp), zp = t
        return not any(eb) and sum(ct) % 3 == 0 and _perm_sign(cp) == _perm_sign(zp)

    def is_relabeling(self, t: MiniElem) -> bool:
        """Corners do not move, each edge stays in its pair and is flipped
        exactly when it moved, each center stays in its block."""
        (eb, ep), corners, zp = t
        return (
            corners == self.identity()[1]
            and all(p // 2 == i // 2 and b == (p != i) for i, (p, b) in enumerate(zip(ep, eb)))
            and all(p // 4 == i // 4 for i, p in enumerate(zp))
        )

    # -- subgroups ----------------------------------------------------------

    def relabelings(self) -> list[MiniElem]:
        """The relabeling subgroup, enumerated constructively: per edge pair
        fix-or-swap, per block any of the 24 placements."""
        swaps = itertools.product((0, 1), repeat=self.pairs)
        bits = [tuple(x for s in swap for x in (s, s)) for swap in swaps]  # a swap flips both
        placements = [
            [tuple(4 * k + x for x in p) for p in itertools.permutations(range(4))]
            for k in range(self.blocks)
        ]
        corners = self.identity()[1]
        return [
            ((b, tuple(i ^ x for i, x in enumerate(b))), corners, sum(zs, ()))
            for b in bits
            for zs in itertools.product(*placements)
        ]

    def licit_elements(self) -> list[MiniElem]:
        """The licit subgroup by filtering the flip-free axis values."""
        edges, corners, centers = self._axes
        corners = [(c, _perm_sign(c[1])) for c in corners if sum(c[0]) % 3 == 0]
        centers = [(z, _perm_sign(z)) for z in centers]
        return [
            (e, c, z)
            for e in edges[:: 2**self.edge_n]
            for c, sc in corners
            for z, sz in centers
            if sz == sc
        ]

    def relabeling_generators(self) -> list[MiniElem]:
        e, n, z = self.identity(), self.edge_n, self.center_n
        gens = []
        for k in range(self.pairs):
            bits = tuple(int(i // 2 == k) for i in range(n))
            gens.append(((bits, _cycle(n, 2 * k, 2 * k + 1)), *e[1:]))
        for k in range(0, z, 4):
            gens += [(*e[:2], _cycle(z, k, k + 1, k + 2, k + 3)), (*e[:2], _cycle(z, k, k + 1))]
        return gens

    def licit_generators(self) -> list[MiniElem]:
        e, n, c, z = self.identity(), self.edge_n, self.corners, self.center_n
        (eb, _), (ct, cp), zp = e
        gens = [((eb, _cycle(n, i, i + 1)), *e[1:]) for i in range(n - 1)]
        for i in range(c - 1):
            tw = list(ct)
            tw[i], tw[i + 1] = 1, 2
            gens.append((e[0], (tuple(tw), cp), zp))
        if c >= 2:
            gens.append((e[0], (ct, _cycle(c, 0, 1)), _cycle(z, 0, 1)))
            gens += [(e[0], (ct, _cycle(c, i, i + 1, i + 2)), zp) for i in range(c - 2)]
        gens += [(*e[:2], _cycle(z, i, i + 1, i + 2)) for i in range(z - 2)]
        return gens

    # -- exhaustive answers ---------------------------------------------------

    @cached_property
    def _tables(self) -> tuple[list, list]:
        """Per relabeling generator g and per licit generator l (two lists)
        and per axis, the index of each value's product with its component,
        g*t and t*l, from array products on the whole axis: an image's index
        is the rank of its (perm, twists) key."""
        import numpy as np

        def split(values, k):  # (twists, perm) arrays; a center perm has twists 0 mod 1
            a = np.array(values, dtype=np.int64)
            return (np.zeros_like(a), a) if k == 1 else (a[..., 0, :], a[..., 1, :])

        def table(x, tw, p, k, left):
            xtw, xp = split(x, k)
            if left:  # as _wmul: a*b has twists a.tw + b.tw[a.p^-1] and perm a.p[b.p]
                tw, p = (xtw + tw[:, np.argsort(xp)]) % k, xp[p]
            else:
                tw, p = (tw + xtw[np.argsort(p, axis=1)]) % k, p[:, xp]
            n = p.shape[1]  # the products permute the axis, which _axes sorts by key
            key = p @ n ** np.arange(n)[::-1] * k**n + tw @ k ** np.arange(n)[::-1]
            return key.argsort().argsort()

        axes = [(*split(values, k), k) for values, k in zip(self._axes, (2, 3, 1))]
        sides = (self.relabeling_generators(), True), (self.licit_generators(), False)
        return tuple(
            [[table(x, *a, left) for x, a in zip(g, axes)] for g in gens] for gens, left in sides
        )

    @cached_property
    def _components(self):
        """Component labels of the ranks under left products with the
        relabeling generators and right products with the licit generators:
        the double classes I\\G/L.  A label is its component's least rank, so
        I*L, the solvable set, is label 0."""
        return _label_components(sum(self._tables, []), tuple(map(len, self._axes)))

    def _labels(self, flip_free: bool):
        """The labels of G, or of its flip-free part F, the slice of flip
        digits 0.  For t, t' in F with t' = i*t*l, i = t'*l^-1*t^-1 lies in F
        (L lies in F), so the double classes of F are those of G restricted."""
        labels = self._components
        return labels[:: 2**self.edge_n] if flip_free else labels

    def class_count(self, flip_free: bool = False) -> int:
        """Number of double classes I\\G/L; with flip_free, of the flip-free part."""
        import numpy as np

        return int(np.unique(self._labels(flip_free)).size)

    def sweep_closed_form(self) -> tuple[int, int]:
        """(elements, disagreements of the main-path closed form, evaluated on
        mini coordinates, with the solvable set).  The closed form is called
        once per (flip bits, twists) and broadcast over the permutations."""
        import numpy as np

        f, t = 2**self.edge_n, 3**self.corners
        edges, corners, _ = self._axes  # edges[:f]: all flip bits; corners[:t]: all twists
        closed = [
            cube.solvable_by_invariants(eb, ct) for eb, _ in edges[:f] for ct, _ in corners[:t]
        ]
        labels = self._components
        solvable = labels.reshape(-1, f, labels.shape[1] // t, t, labels.shape[2]) == 0
        bad = solvable != np.reshape(closed, (f, 1, t, 1))
        return labels.size, int(np.count_nonzero(bad))

    def solvable_probability(self, flip_free: bool = False) -> Fraction:
        """Share of the solvable set; with flip_free, of the flip-free part."""
        labels = self._labels(flip_free)
        return Fraction(int((labels == 0).sum()), labels.size)

    def _closure(self, gens: Sequence[Sequence]) -> set[int]:
        """The ranks of the subgroup spanned by the generators whose image
        tables are gens: breadth-first from the identity's rank 0."""
        import numpy as np

        shape = tuple(map(len, self._axes))
        seen = np.zeros(math.prod(shape), dtype=bool)
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            seen[frontier] = True
            digits = np.unravel_index(frontier, shape)
            images = [np.ravel_multi_index([t[d] for t, d in zip(g, digits)], shape) for g in gens]
            images = np.unique(images)
            frontier = images[~seen[images]]
        return set(seen.nonzero()[0].tolist())

    def check_subgroup_constructions(self) -> None:
        """The three routes to each subgroup must agree: direct construction
        or filter, membership predicate, and generator closure on the ranks."""
        relabel = self.relabelings()
        if len(set(relabel)) != len(relabel) or len(relabel) != 2**self.pairs * 24**self.blocks:
            raise AssertionError("relabeling enumeration has the wrong size")
        if not all(self.is_relabeling(t) for t in relabel):
            raise AssertionError("relabeling filter disagrees with construction")
        licit = self.licit_elements()
        if not all(self.is_licit(t) for t in licit):
            raise AssertionError("licit filter disagrees with predicate")
        ie, ic, iz = ({v: i for i, v in enumerate(values)} for values in self._axes)
        for name, elements, tables in zip(("relabeling", "licit"), (relabel, licit), self._tables):
            ranks = {(ie[e] * len(ic) + ic[c]) * len(iz) + iz[z] for e, c, z in elements}
            if ranks != self._closure(tables):
                raise AssertionError(f"{name} generators do not close correctly")


def _label_components(maps: Sequence[Sequence], shape: tuple[int, ...]):
    """Least-rank labels of the connected components of an array of the
    given shape under maps, each one index table per axis: min-label
    propagation along each map, forward only, then a pointer-jumping step,
    until a round changes nothing (Shiloach & Vishkin 1982).  At that fixed
    point labels[x] <= labels[g x] around each finite cycle of g, so labels
    are constant on components, and the least rank keeps its own label.
    Labels only fall and labels[x] <= x, so a round changes nothing exactly
    when the label sum stays.  Memory is three label arrays: take buffers out=
    in mode "raise" and copies int32 indices to intp (hence the chunks)."""
    import numpy as np

    # per map, (axis, table) on the axes it moves
    steps = [[(a, t) for a, t in enumerate(ts) if (t != np.arange(len(t))).any()] for ts in maps]
    labels = np.arange(math.prod(shape), dtype=np.int32).reshape(shape)
    bufs = [np.empty_like(labels), np.empty_like(labels)]
    flat, jumped, chunk = labels.ravel(), bufs[0].ravel(), 1 << 20
    total = flat.sum()
    while True:
        for step in steps:
            image = labels
            for (axis, table), buf in zip(step, itertools.cycle(bufs)):
                image = image.take(table, axis, out=buf, mode="clip")
            np.minimum(labels, image, out=labels)
        for lo in range(0, flat.size, chunk):
            flat.take(flat[lo : lo + chunk], out=jumped[lo : lo + chunk], mode="clip")
        flat[:] = jumped
        if total == (total := flat.sum()):  # the old sum against the new
            return labels


# ---------------------------------------------------------------------------
# orbit machinery on small actions


def orbits(
    points: Iterable[Hashable],
    group: Iterable[Hashable],
    act: Callable[[Hashable, Hashable], Hashable],
) -> list[tuple[Hashable, ...]]:
    """Orbits of a finite group, given by its elements or generators, acting
    on finite points; each orbit sorted, orbit list sorted by smallest member."""
    group = list(group)
    remaining = set(points)
    out = []
    while remaining:
        seed = min(remaining)
        orb = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g in group:
                y = act(g, x)
                if y not in orb:
                    orb.add(y)
                    frontier.append(y)
        remaining -= orb
        out.append(tuple(sorted(orb)))
    return sorted(out, key=lambda o: o[0])


def burnside_count(
    points: Sequence[Hashable],
    group: Sequence[Hashable],
    act: Callable[[Hashable, Hashable], Hashable],
) -> int:
    """Orbit count as the average number of fixed points, an independent
    route to the same number as orbits()."""
    total = sum(sum(1 for x in points if act(g, x) == x) for g in group)
    count, rem = divmod(total, len(group))
    if rem:
        raise AssertionError("fixed-point total not divisible by group order")
    return count


def pair_flip_action() -> tuple[list, list, Callable]:
    """The 2-element pair-relabeling group acting on one pair's flip bits.

    Elements are (bits, swap?) with the group law of one wreath pair; the
    action is permute-then-add on C_2 x C_2.
    """
    points = [(a, b) for a in (0, 1) for b in (0, 1)]
    group = [((0, 0), False), ((1, 1), True)]

    def act(g, c):
        bits, swap = g
        x, y = (c[1], c[0]) if swap else c
        return ((x + bits[0]) % 2, (y + bits[1]) % 2)

    return points, group, act


def pair_orbits() -> list[tuple[tuple[int, int], ...]]:
    """Orbits of one pair's flip bits under pair relabeling: the three
    classes behind the per-pair labels 0, 1, 2."""
    points, group, act = pair_flip_action()
    return orbits(points, group, act)  # type: ignore[arg-type]


def twist_sign_action() -> tuple[list, list, Callable]:
    """Center-block relabelings act on (corner twist sum, sign pair) only
    through the sign of the block permutation; the acting set is the sign
    image of the 24 block placements, computed, not assumed."""
    points = [(t, e) for t in (0, 1, 2) for e in (1, -1)]
    signs = sorted(
        {_perm_sign(p) for p in itertools.permutations(range(4))}, reverse=True
    )

    def act(s, x):
        return (x[0], s * x[1])

    return points, signs, act


def twist_sign_orbits() -> list[tuple[tuple[int, int], ...]]:
    """Orbits of the residual invariant (twist sum, sign) under relabelings:
    the sign collapses, the twist survives."""
    points, group, act = twist_sign_action()
    return orbits(points, group, act)  # type: ignore[arg-type]
