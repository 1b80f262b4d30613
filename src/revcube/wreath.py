"""Twisted permutations: one factor C_k wr S_n of the assembly group.

An element is a pair (twists, perm): perm moves n pieces, twists[j] says how
the piece arriving at slot j is turned, in units of 1/k turns.  The product
stores the twist at the destination slot, which gives the composition law

    (r, s) * (t, u) == (r + s.t, s u)      with (s.t)[s(i)] == t[i],

and the inverse (-(s^-1).r, s^-1).  Only k == 2 (flips) and k == 3 (thirds
of a turn) occur.

The constructor validates its input; products and inverses of valid
elements are valid by the group law and are built without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from operator import getitem

from . import perm as pm


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls from fields already known to
    be valid, built without running __post_init__."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


@dataclass(frozen=True)
class WreathElem:
    """Element of C_k wr S_n in (twists, perm) coordinates."""

    k: int
    twists: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.k) is not int or self.k not in (2, 3):
            raise ValueError(f"unsupported twist modulus k={self.k}")
        if len(self.twists) != len(self.perm):
            raise ValueError(
                f"degree mismatch: {len(self.twists)} twists vs "
                f"{len(self.perm)} permutation entries"
            )
        if not all(type(t) is int and 0 <= t < self.k for t in self.twists):
            raise ValueError(f"twists must lie in 0..{self.k - 1}: {self.twists!r}")
        object.__setattr__(self, "twists", tuple(self.twists))
        object.__setattr__(self, "perm", pm.check_perm(self.perm))

    @classmethod
    def identity(cls, k: int, n: int) -> "WreathElem":
        return cls(k, (0,) * n, pm.identity(n))

    @property
    def degree(self) -> int:
        return len(self.perm)

    def __mul__(self, other: "WreathElem") -> "WreathElem":
        """Group product; other acts first."""
        if self.k != other.k:
            raise ValueError(f"modulus mismatch: {self.k} vs {other.k}")
        perm = pm.compose(self.perm, other.perm)  # raises on a degree mismatch
        tw = list(self.twists)
        for i, j in enumerate(self.perm):
            tw[j] = (self.twists[j] + other.twists[i]) % self.k
        return _trusted(WreathElem, k=self.k, twists=tuple(tw), perm=perm)

    def inverse(self) -> "WreathElem":
        inv = pm.inverse(self.perm)
        # (s^-1 . r)[j] == r[s(j)], negated mod k
        tw = tuple((-self.twists[self.perm[j]]) % self.k for j in range(self.degree))
        return _trusted(WreathElem, k=self.k, twists=tw, perm=inv)

    def twist_sum(self) -> int:
        """Total twist mod k.  A homomorphism to C_k: the permutation part
        only reindexes the summands."""
        return sum(self.twists) % self.k

    def to_point_perm(self, first: int = 0) -> tuple[int, ...]:
        """Faithful permutation of the n*k sticker points.

        Point i*k + b is sticker b of piece i; it maps to perm[i]*k + (b +
        twists[perm[i]]) mod k, plus first, which places the images as a
        block of a larger permutation.  At first=0 this is an injective
        homomorphism, so group facts can be checked on plain permutations."""
        lands = tuple(map(getitem, _landings(self.k, self.degree, first), self.twists))
        return tuple(chain.from_iterable(map(lands.__getitem__, self.perm)))


@cache
def _landings(k: int, n: int, first: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per piece j < n and twist t < k, the k sticker points that piece j,
    twisted by t, lands on: first + j*k + (b + t) mod k for b in range(k)."""
    pieces = (tuple(range(first + j * k, first + j * k + k)) for j in range(n))
    return tuple(tuple(p[t:] + p[:t] for t in range(k)) for p in pieces)
