"""Exact counts and probabilities for cube assemblies.

All arithmetic is exact: orders are Python integers, probabilities are
fractions in lowest terms.  The class counts are assembled from the orbit
enumerations in the oracle module rather than written down as constants, so
a wrong orbit table breaks them loudly.

Each count takes the regime as `mode` (cube.MODES); in mechanical mode the
marked-only factor (flip bits, pair swaps or pair labels) is 1.  The
solvability probability is, in either mode, the ratio

    (relabelings * licit / their intersection) / all assemblies,

the size of a product set of two subgroups.  Solvable classes do not all
have the same number of assemblies, so 1 / class count is NOT the marked
probability; in the flip-free (mechanical) world every class has equal size
and the shortcut happens to hold.  Both facts are covered by tests.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import cache
from numbers import Integral

from . import cube, oracle

STREAM_SIZE = 1 << 16


def _marked_only(factor: int, mode: str) -> int:
    """`factor` in marked mode, 1 in mechanical mode."""
    cube._check_mode(mode)
    return factor if mode == "marked" else 1


def num_assemblies(mode: str = "marked") -> int:
    """All ways to reassemble the pieces: flips (marked only) * edge
    placements * twists * corner placements * center placements."""
    return (
        _marked_only(2**cube.NUM_EDGES, mode)
        * math.factorial(cube.NUM_EDGES)
        * 3**cube.NUM_CORNERS
        * math.factorial(cube.NUM_CORNERS)
        * math.factorial(cube.NUM_CENTERS)
    )


def num_licit() -> int:
    """Order of the slice-move group: the characteristic pair (twist sum,
    sign agreement) maps the flip-free group onto a 6-element group, and the
    licit elements are its kernel."""
    return num_assemblies("mechanical") // 6


def num_relabelings(mode: str = "marked") -> int:
    """Order of the relabeling group: 24 placements per center block, times
    2 choices per edge pair (fix or swap) in marked mode."""
    return _marked_only(2**cube.NUM_EDGE_PAIRS, mode) * 24**cube.NUM_CENTER_BLOCKS


def num_relabelings_licit() -> int:
    """Relabelings that are also licit: flip-free forces every pair choice
    to 'fix', and sign agreement keeps only even center relabelings, half."""
    return 24**cube.NUM_CENTER_BLOCKS // 2


def num_classes(mode: str = "marked") -> int:
    """Visibly distinct assembly classes: the surviving twist classes, times
    one label per edge pair from the pair-flip orbits in marked mode.
    3^12 * 3 marked and 3 mechanical once the orbit tables are in."""
    return _marked_only(edge_pair_class_count(), mode) * len(oracle.twist_sign_orbits())


def edge_pair_class_count() -> int:
    """Classes of edge-flip patterns alone: (pair orbit count)^pairs."""
    return len(oracle.pair_orbits()) ** cube.NUM_EDGE_PAIRS


def exact_probability(mode: str = "marked") -> Fraction:
    """Chance that a uniformly random (re)assembly is solvable."""
    solvable = num_relabelings(mode) * num_licit() // num_relabelings_licit()
    return Fraction(solvable, num_assemblies(mode))


# ---------------------------------------------------------------------------
# Monte Carlo estimation
#
# Samples are split into fixed-size streams, stream i seeded from
# (seed, spawn_key=(i,)).  Of T threads, thread t runs one task over streams
# t, t + T, t + 2T, ..., the calling thread being thread 0, so the work in
# flight is flat in n and one worker starts no thread; integer hit counts sum
# alike in any order, so the estimate depends on (mode, n, seed) only.
# Solvability reads only the corner twists and the 12 edge pair differences
# (edge 2k's flip XOR edge 2k+1's): each XORs two independent uniform flips, so
# the 12 are iid uniform and independent of the twists and placements.  Lane j
# (bits 16j..16j+11) of uniform 64-bit word i holds sample 4i+j's, bit k pair
# k's, so its pairs agree exactly when the lane is 0; the last word's unused
# lanes are set nonzero by value, so zero lanes counted through a uint16 view of
# whole words do not depend on byte order.  A u in [0, 3^16) gives two iid twist
# codes, u mod 3^8 and u div 3^8 (digit k corner k's twist), drawn after all
# words and only for samples whose pairs agree, as the rest miss whatever code.


@cache
def _twists_pass():
    """Bool table over the 3^8 twist codes: their digit sum is 0 mod 3."""
    import numpy as np
    codes = np.arange(3**cube.NUM_CORNERS)
    return sum(codes // 3**k % 3 for k in range(cube.NUM_CORNERS)) % 3 == 0


def _check_int(name: str, value: int, least: int, most: float = math.inf) -> None:
    """ValueError naming `name` unless value is an integer in least..most (no bool)."""
    if type(value) is bool or not isinstance(value, Integral) or not least <= value <= most:
        span = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _stream_hits(mode: str, seed: int, index: int, count: int) -> int:
    import numpy as np  # loaded by the first stream, not by the exact counts
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    if mode == "marked":  # lane j of word i holds sample 4i+j's pair differences
        w = rng.integers(0, 1 << 64, size=-(-count // 4), dtype=np.uint64)
        w[-1:] |= (1 << 64) - (1 << 64 - 16 * (-count % 4))  # unused lanes != 0; an array op
        w &= 0x0FFF0FFF0FFF0FFF
        count = 4 * w.size - np.count_nonzero(w.view(np.uint16))
    q = 3**cube.NUM_CORNERS  # code 2j is u mod q, code 2j+1 is u div q
    u = rng.integers(0, q * q, size=(count + 1) // 2, dtype=np.uint32)
    u -= (high := u // q) * q
    hits = np.count_nonzero(_twists_pass().take(u))
    return int(hits + np.count_nonzero(_twists_pass().take(high[: count // 2])))


def estimate_probability(
    mode: str, n: int, seed: int, workers: int = 1
) -> tuple[Fraction, float]:
    """(hit fraction, standard error) over n uniform samples.

    Deterministic given (mode, n, seed); the worker count only schedules
    streams.  The standard error is sqrt(p(1-p)/n) at the estimate.  A bool,
    non-integer, n or workers below 1, or seed below 0 raises ValueError.
    """
    from concurrent.futures import ThreadPoolExecutor  # only Monte Carlo pays for it

    cube._check_mode(mode)
    for name, value, least in (("n", n, 1), ("seed", seed, 0), ("workers", workers, 1)):
        _check_int(name, value, least)
    n = int(n)
    threads = min(workers, os.cpu_count() or 1)

    def share(t: int) -> int:  # streams t, t + threads, t + 2*threads, ...
        return sum(
            _stream_hits(mode, seed, start // STREAM_SIZE, min(STREAM_SIZE, n - start))
            for start in range(t * STREAM_SIZE, n, threads * STREAM_SIZE)
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        hits = sum(pool.map(share, range(1, threads)), share(0))  # submit, then run 0 here
    p = Fraction(hits, n)
    stderr = math.sqrt(float(p) * (1.0 - float(p)) / n)
    return p, stderr


WILSON_Z = 1.96


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval (Wilson 1927) for `hits` successes in `n`
    trials.  Unlike the standard error it stays honest at 0 or n hits.  A bool,
    non-integer, n below 1, or hits outside 0..n raises ValueError."""
    _check_int("n", n, 1)
    _check_int("hits", hits, 0, n)
    z2 = WILSON_Z * WILSON_Z
    centre = hits + z2 / 2
    half = WILSON_Z * math.sqrt(hits * (n - hits) / n + z2 / 4)
    return max(0.0, (centre - half) / (n + z2)), min(1.0, (centre + half) / (n + z2))
