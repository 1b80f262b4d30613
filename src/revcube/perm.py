"""Permutations of {0, ..., n-1} stored as image tables.

A permutation p of degree n is a tuple (p(0), ..., p(n-1)).  Composition is
right to left throughout the package: compose(p, q) applies q first, so
compose(p, q)(i) == p(q(i)).  Indices are 0-based everywhere.

Uniform sampling is an explicit Fisher-Yates swap shuffle that takes its
swap positions from the caller's draws, so a fixed seed reproduces the same
permutation.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterator, Sequence

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    """The identity permutation of degree n.

    >>> identity(3)
    (0, 1, 2)
    """
    return tuple(range(n))


def check_perm(p: Sequence[int]) -> Perm:
    """Return p as a tuple of ints, raising ValueError when it is not a
    bijective image table of {0, ..., len(p)-1} (bools refused)."""
    n = len(p)
    seen = [False] * n
    exact = True
    for x in p:  # ints first: the Integral ABC check (numpy ints) is slow
        if type(x) is not int:
            if type(x) is bool or not isinstance(x, Integral):
                break
            exact = False
        if not 0 <= x < n or seen[x]:
            break
        seen[x] = True
    else:
        return tuple(p) if exact else tuple(map(int, p))
    raise ValueError(f"not a permutation of 0..{n - 1}: {p!r}")


def compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left composition: q acts first.

    >>> compose((1, 0, 2), (0, 2, 1))
    (1, 2, 0)
    """
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((1, 2, 3, 0))
    (3, 0, 1, 2)
    """
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycle decomposition, fixed points omitted, each cycle
    starting at its smallest element, cycles sorted by that element."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        out.append(tuple(cyc))
    return out


def sign(p: Perm) -> int:
    """Parity of the permutation: +1 even, -1 odd.

    A cycle of length L is L - 1 transpositions.
    """
    return -1 if sum(len(c) - 1 for c in cycles(p)) % 2 else 1


def fisher_yates(n: int, draws: Iterator[int]) -> Perm:
    """The Fisher-Yates shuffle of range(n) that takes its n - 1 swap
    positions from `draws`, the i-th uniform in [0, n - 1 - i]."""
    out = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws):
        out[i], out[j] = out[j], out[i]
    return tuple(out)
