"""Brute-force ground truth on miniature models.

The closed-form solvability predicate and the class counts are cheap to
state and easy to get subtly wrong, so this module recomputes them by
exhaustive enumeration on shrunken cubes: m edge pairs, c corners, b center
blocks.  The group shape is the same (flip wreath x twist wreath x block
permutations), only the sizes differ, so any bookkeeping mistake in the
closed forms shows up here as a disagreement on a few hundred thousand
elements.

Everything in this file is deliberately self-contained: its own element
encoding, its own multiplication, subgroups built both by filtering the full
enumeration and by generator closure (asserted equal).  The only import from
the main path is the closed-form predicate it is checking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from . import cube

ENUMERATION_CAP = 10**7

# element encoding: (edge bits, edge perm, corner twists, corner perm, center perm)
MiniElem = tuple[
    tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]
]


def _perm_sign(p: Sequence[int]) -> int:
    """Sign as the parity of the inversion count, so that it shares no
    algorithm with perm.sign, which walks cycles."""
    n = len(p)
    inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions & 1 else 1


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    return tuple(p[x] for x in q)


def _wmul(k, atw, ap, btw, bp):
    tw = list(atw)
    for i, j in enumerate(ap):
        tw[j] = (atw[j] + btw[i]) % k
    return tuple(tw), _compose(ap, bp)


def mini_mul(a: MiniElem, b: MiniElem) -> MiniElem:
    eb, ep = _wmul(2, a[0], a[1], b[0], b[1])
    ct, cp = _wmul(3, a[2], a[3], b[2], b[3])
    return (eb, ep, ct, cp, _compose(a[4], b[4]))


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
        return (
            2**self.edge_n
            * math.factorial(self.edge_n)
            * 3**self.corners
            * math.factorial(self.corners)
            * math.factorial(self.center_n)
        )

    def identity(self) -> MiniElem:
        return (
            (0,) * self.edge_n,
            tuple(range(self.edge_n)),
            (0,) * self.corners,
            tuple(range(self.corners)),
            tuple(range(self.center_n)),
        )

    def elements(self) -> Iterator[MiniElem]:
        """Every element of the full mini group, lazily."""
        flips = list(itertools.product((0, 1), repeat=self.edge_n))
        for ep in itertools.permutations(range(self.edge_n)):
            for eb in flips:
                for cp in itertools.permutations(range(self.corners)):
                    for ct in itertools.product((0, 1, 2), repeat=self.corners):
                        for zp in itertools.permutations(range(self.center_n)):
                            yield (eb, ep, ct, cp, zp)

    # -- defining conditions ------------------------------------------------

    def is_flip_free(self, t: MiniElem) -> bool:
        return all(b == 0 for b in t[0])

    def is_licit(self, t: MiniElem) -> bool:
        return (
            self.is_flip_free(t)
            and sum(t[2]) % 3 == 0
            and _perm_sign(t[3]) == _perm_sign(t[4])
        )

    def is_relabeling(self, t: MiniElem) -> bool:
        eb, ep, ct, cp, zp = t
        if any(x != 0 for x in ct) or any(cp[i] != i for i in range(self.corners)):
            return False
        for k in range(self.pairs):
            a, b = 2 * k, 2 * k + 1
            if ep[a] == a and ep[b] == b:
                if eb[a] or eb[b]:
                    return False
            elif ep[a] == b and ep[b] == a:
                if not (eb[a] and eb[b]):
                    return False
            else:
                return False
        for k in range(self.blocks):
            block = range(4 * k, 4 * k + 4)
            if any(zp[i] not in block for i in block):
                return False
        return True

    # -- subgroups ----------------------------------------------------------

    def relabelings(self) -> list[MiniElem]:
        """The relabeling subgroup, enumerated constructively: per edge pair
        fix-or-swap, per block any of the 24 placements."""
        pair_choices = []
        for k in range(self.pairs):
            fix = ((0, 0), (2 * k, 2 * k + 1))
            swap = ((1, 1), (2 * k + 1, 2 * k))
            pair_choices.append((fix, swap))
        out = []
        for picks in itertools.product(*pair_choices):
            eb, ep = [], []
            for bits, imgs in picks:
                eb.extend(bits)
                ep.extend(imgs)
            for blocks in itertools.product(
                itertools.permutations(range(4)), repeat=self.blocks
            ):
                zp = []
                for k, blk in enumerate(blocks):
                    zp.extend(4 * k + x for x in blk)
                out.append(
                    (
                        tuple(eb),
                        tuple(ep),
                        (0,) * self.corners,
                        tuple(range(self.corners)),
                        tuple(zp),
                    )
                )
        return out

    def licit_elements(self) -> list[MiniElem]:
        """The licit subgroup by filtering the flip-free enumeration."""
        out = []
        zero = (0,) * self.edge_n
        corners = [(c, _perm_sign(c)) for c in itertools.permutations(range(self.corners))]
        centers = [(z, _perm_sign(z)) for z in itertools.permutations(range(self.center_n))]
        for ep in itertools.permutations(range(self.edge_n)):
            for cp, scp in corners:
                for ct in itertools.product((0, 1, 2), repeat=self.corners):
                    if sum(ct) % 3 != 0:
                        continue
                    for zp, szp in centers:
                        if szp == scp:
                            out.append((zero, ep, ct, cp, zp))
        return out

    def relabeling_generators(self) -> list[MiniElem]:
        gens = []
        e = self.identity()
        for k in range(self.pairs):
            eb = list(e[0])
            ep = list(e[1])
            eb[2 * k] = eb[2 * k + 1] = 1
            ep[2 * k], ep[2 * k + 1] = 2 * k + 1, 2 * k
            gens.append((tuple(eb), tuple(ep), e[2], e[3], e[4]))
        for k in range(self.blocks):
            for imgs in ((1, 2, 3, 0), (1, 0, 2, 3)):
                zp = list(e[4])
                for i, x in enumerate(imgs):
                    zp[4 * k + i] = 4 * k + x
                gens.append((e[0], e[1], e[2], e[3], tuple(zp)))
        return gens

    def licit_generators(self) -> list[MiniElem]:
        gens = []
        e = self.identity()
        for i in range(self.edge_n - 1):
            ep = list(e[1])
            ep[i], ep[i + 1] = ep[i + 1], ep[i]
            gens.append((e[0], tuple(ep), e[2], e[3], e[4]))
        for i in range(self.corners - 1):
            ct = list(e[2])
            ct[i], ct[i + 1] = 1, 2
            gens.append((e[0], e[1], tuple(ct), e[3], e[4]))
        if self.corners >= 2:
            cp = list(e[3])
            cp[0], cp[1] = 1, 0
            zp = list(e[4])
            zp[0], zp[1] = 1, 0
            gens.append((e[0], e[1], e[2], tuple(cp), tuple(zp)))
            for i in range(self.corners - 2):
                cp = list(e[3])
                cp[i], cp[i + 1], cp[i + 2] = cp[i + 1], cp[i + 2], cp[i]
                gens.append((e[0], e[1], e[2], tuple(cp), e[4]))
        for i in range(self.center_n - 2):
            zp = list(e[4])
            zp[i], zp[i + 1], zp[i + 2] = zp[i + 1], zp[i + 2], zp[i]
            gens.append((e[0], e[1], e[2], e[3], tuple(zp)))
        return gens

    # -- exhaustive answers ---------------------------------------------------

    @cached_property
    def _cosets(self) -> tuple[dict[MiniElem, int], list[MiniElem]]:
        """Left cosets t*L in one pass over elements(): element -> coset index,
        one representative per coset.  Valid because L = licit_elements() is a
        subgroup, which check_subgroup_constructions asserts."""
        licit = self.licit_elements()
        coset: dict[MiniElem, int] = {}
        reps: list[MiniElem] = []
        for t in self.elements():
            if t not in coset:
                for l in licit:
                    coset[mini_mul(t, l)] = len(reps)
                reps.append(t)
        return coset, reps

    def _relabeling_orbits(self, flip_free: bool) -> list[tuple[int, ...]]:
        """Orbits of I on the cosets, the double classes I\\G/L; with flip_free,
        of the flip-free relabelings on the flip-free cosets (flip bits are
        constant on a coset, since L is flip-free)."""
        coset, reps = self._cosets
        igens = self.relabeling_generators()
        points: Iterable[int] = range(len(reps))
        if flip_free:
            igens = [g for g in igens if self.is_flip_free(g)]
            points = [c for c in points if self.is_flip_free(reps[c])]
        return orbits(points, igens, lambda g, c: coset[mini_mul(g, reps[c])])

    def _solvable_cosets(self, flip_free: bool = False) -> tuple[set[int], int]:
        """(the I-orbit of the identity's coset, whose union is I*L, number
        of cosets), in the flip-free part with flip_free."""
        orbs = self._relabeling_orbits(flip_free)
        e = self._cosets[0][self.identity()]
        return set(next(o for o in orbs if e in o)), sum(map(len, orbs))

    def class_count(self, flip_free: bool = False) -> int:
        """Number of double classes I\\G/L; with flip_free, of the flip-free part."""
        return len(self._relabeling_orbits(flip_free))

    def sweep_closed_form(self) -> tuple[int, int]:
        """(elements, disagreements of the main-path closed form, evaluated on
        mini coordinates, with the solvable cosets)."""
        coset = self._cosets[0]
        solvable, _ = self._solvable_cosets()
        return len(coset), sum(
            (c in solvable) != cube.solvable_by_invariants(t[0], t[2])
            for t, c in coset.items()
        )

    def solvable_probability(self, flip_free: bool = False) -> Fraction:
        """Share of solvable cosets; with flip_free, of flip-free cosets."""
        solvable, total = self._solvable_cosets(flip_free)
        return Fraction(len(solvable), total)

    def check_subgroup_constructions(self) -> None:
        """The three routes to each subgroup must agree: direct construction
        or filter, membership predicate, and generator closure."""
        relabel = self.relabelings()
        rset = set(relabel)
        if len(rset) != len(relabel) or len(rset) != 2**self.pairs * 24**self.blocks:
            raise AssertionError("relabeling enumeration has the wrong size")
        if not all(self.is_relabeling(t) for t in relabel):
            raise AssertionError("relabeling filter disagrees with construction")
        if rset != _closure(self.relabeling_generators(), self.identity()):
            raise AssertionError("relabeling generators do not close correctly")
        licit = set(self.licit_elements())
        if not all(self.is_licit(t) for t in licit):
            raise AssertionError("licit filter disagrees with predicate")
        if licit != _closure(self.licit_generators(), self.identity()):
            raise AssertionError("licit generators do not close correctly")


def _closure(gens: Sequence[MiniElem], e: MiniElem) -> set[MiniElem]:
    """The subgroup generated by gens: e's orbit under right multiplication."""
    return set(orbits([e], gens, lambda g, x: mini_mul(x, g))[0])


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
