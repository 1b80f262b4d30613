"""Deterministic strong generating sets for permutation groups.

Classical Schreier-Sims: a base (points whose pointwise stabilizers form a
descending chain), per level the strong generators fixing the earlier base
points and a transversal of coset representatives for the orbit of the
level's base point.  The group order is the product of the orbit sizes, and
membership testing is sifting: divide off one representative per level and
see whether the identity remains.

The construction is fully deterministic: no random elements, base points
chosen as the smallest point moved when a new level is needed, transversals
extended incrementally so that a coset representative, once chosen, never
changes.  That last property lets each Schreier generator be processed
exactly once (they are in bijection with (orbit point, generator) pairs).

Inside a StrongGenSet a permutation is a `bytes` image table, compose(p, q)
is q.translate(p): residues and coset representatives are degree bytes long,
translate's tables (strong generators, inverse representatives) are padded
with the identity to 256 bytes (so degree <= 256).  bytes.maketrans(v,
identity) is v's padded inverse; inv_transversal[lev][x] is None off the orbit.

The 96-point representation of cube assemblies lives here too: center
points 0..23 (first, so the base starts on them, which cuts the slice-move
group's build by about 30% of its sifts), edge sticker points 24..71, corner
sticker points 72..95.  It is a faithful homomorphism, so subgroup questions
transfer verbatim.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from . import perm as pm
from .cube import CubeState

Perm = pm.Perm
_PADDED_IDENTITY = bytes(range(256))

EDGE_POINT_BASE = 24
CORNER_POINT_BASE = 72
DEGREE = 96


def embed(t: CubeState) -> Perm:
    """Faithful 96-point permutation of an assembly."""
    edges = t.edges.to_point_perm(EDGE_POINT_BASE)
    return (*t.centers, *edges, *t.corners.to_point_perm(CORNER_POINT_BASE))


class StrongGenSet:
    """Base, strong generators and transversals of a permutation group."""

    def __init__(self, degree: int):
        if degree > 256:
            raise ValueError(f"degree {degree} exceeds 256")
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[bytes]] = []
        self.transversal: list[dict[int, bytes]] = []
        self.inv_transversal: list[list[bytes | None]] = []
        self._identity = bytes(range(degree))
        self._done: list[tuple[int, int]] = []

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        """Product of the orbit sizes along the stabilizer chain."""
        return math.prod(len(t) for t in self.transversal)

    def _sift(self, p: bytes, start: int = 0) -> bytes:
        """Divide off coset representatives level by level and return the
        residue: the identity exactly for members of the group (of the
        start-th stabilizer when start>0)."""
        for b, inv in zip(self.base[start:], self.inv_transversal[start:]):
            if (x := p[b]) != b:  # b's own representative is the identity
                if (ui := inv[x]) is None:
                    return p
                p = p.translate(ui)
        return p

    def contains(self, p: Perm) -> bool:
        p = pm.check_perm(p)
        if len(p) != self.degree:
            raise ValueError(f"degree mismatch: {len(p)} vs {self.degree}")
        return self._sift(bytes(p)) == self._identity

    # -- construction ---------------------------------------------------------

    def _add_level(self, point: int) -> None:
        self.base.append(point)
        self.gens.append([])
        self.transversal.append({point: self._identity})
        self.inv_transversal.append([_PADDED_IDENTITY if x == point else None for x in range(256)])
        self._done.append((0, 0))

    def _register(self, g: bytes, min_level: int) -> int:
        """Add a strong generator, given as a degree-byte table, at levels
        min_level..j, where j is the deepest level whose base prefix g fixes;
        extend the base when g fixes every current base point.  Returns j."""
        j = 0
        while j < len(self.base) and g[self.base[j]] == self.base[j]:
            j += 1
        if j == len(self.base):
            self._add_level(min(x for x in range(self.degree) if g[x] != x))
        g += _PADDED_IDENTITY[self.degree :]
        for k in range(min_level, j + 1):
            self.gens[k].append(g)
        return j

    def _extend_transversal(self, lev: int) -> None:
        """Grow the orbit of base[lev] in one worklist pass (new points queue
        in the order found) without touching existing representatives."""
        t = self.transversal[lev]
        ti = self.inv_transversal[lev]
        orbit = list(t)
        for pt in orbit:
            for g in self.gens[lev]:
                q = g[pt]
                if q not in t:
                    v = t[pt].translate(g)
                    t[q] = v
                    ti[q] = bytes.maketrans(v, self._identity)
                    orbit.append(q)

    def _complete_level(self, lev: int) -> None:
        """Establish the Schreier condition at one level, assuming deeper
        levels already satisfy it.  One pass over the (orbit point,
        generator) pairs is enough: a Schreier generator fixes base[0..lev],
        so its residue joins only deeper levels, and gens[lev] and the orbit
        of base[lev] stay as they are.  Pairs done by earlier calls are
        skipped by the (points, generators) watermark _done[lev]."""
        self._extend_transversal(lev)
        t, ti = self.transversal[lev], self.inv_transversal[lev]
        gens = self.gens[lev]
        old_points, old_gens = self._done[lev]
        for n, (pt, u) in enumerate(t.items()):
            for g in gens[old_gens if n < old_points else 0 :]:
                sg = u.translate(g).translate(ti[g[pt]])
                if sg == self._identity:
                    continue
                residue = self._sift(sg, lev + 1)
                if residue != self._identity:
                    j = self._register(residue, lev + 1)
                    for k in range(j, lev, -1):
                        self._complete_level(k)
        self._done[lev] = (len(t), len(gens))

    def check_structure(self) -> None:
        """Internal consistency: inverses exist exactly on the orbit, tables
        have their lengths, generators fix their prefix, representatives hit
        their orbit point, inverses match, and the base point's own
        representative is the identity (_sift skips a level on that)."""
        levels = zip(self.base, self.transversal, self.inv_transversal)
        for lev, (b, t, ti) in enumerate(levels):
            if [u is not None for u in ti] != [x in t for x in range(256)]:
                raise AssertionError(f"level {lev} inverses are not exactly on the orbit")
            padded = {len(g) for g in [*self.gens[lev], *filter(None, ti)]}
            if padded - {256} or {len(u) for u in t.values()} != {self.degree}:
                raise AssertionError(f"level {lev} has a table of the wrong length")
            if t.get(b) != self._identity or ti[b] != _PADDED_IDENTITY:
                raise AssertionError(f"level {lev} base representative is not identity")
            for g in self.gens[lev]:
                if any(g[c] != c for c in self.base[:lev]):
                    raise AssertionError(f"level {lev} generator moves base")
            for pt, u in t.items():
                if u[b] != pt:
                    raise AssertionError(f"representative for {pt} is wrong")
                if u.translate(ti[pt]) != self._identity:
                    raise AssertionError(f"inverse representative for {pt} is wrong")


def build_bsgs(generators: Iterable[Sequence[int]]) -> StrongGenSet:
    """Strong generating set of the group the generators span.

    Deterministic; the resulting order never depends on generator order.
    """
    gens = [pm.check_perm(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator (identity is fine)")
    degrees = {len(g) for g in gens}
    if len(degrees) != 1:
        raise ValueError(f"mixed degrees {sorted(degrees)}")
    sgs = StrongGenSet(degrees.pop())
    for g in map(bytes, gens):
        if g != sgs._identity:
            sgs._register(g, 0)
    for lev in range(len(sgs.base) - 1, -1, -1):
        sgs._complete_level(lev)
    return sgs
