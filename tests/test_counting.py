import math
from fractions import Fraction

import numpy as np
import pytest

from revcube import counting, cube


def test_assembly_counts():
    f = math.factorial
    assert counting.num_assemblies() == 2**24 * f(24) * 3**8 * f(8) * f(24)
    assert counting.num_assemblies("mechanical") == f(24) * 3**8 * f(8) * f(24)
    assert counting.num_assemblies() == counting.num_assemblies("mechanical") << 24


def test_licit_count_is_one_sixth_of_flip_free():
    assert counting.num_licit() * 6 == counting.num_assemblies("mechanical")


def test_relabeling_counts():
    assert counting.num_relabelings() == 2**12 * 24**6
    assert counting.num_relabelings("mechanical") == 24**6
    assert counting.num_relabelings_licit() * 2 == 24**6


def test_class_counts():
    assert counting.num_classes("marked") == 1_594_323
    assert counting.num_classes("marked") == 3**13
    assert counting.edge_pair_class_count() == 3**12
    assert counting.num_classes("mechanical") == 3


def test_class_count_times_solvable_size():
    # marked classes have unequal sizes, so count * |solvable| exceeds |T|
    solvable = (
        counting.num_relabelings()
        * counting.num_licit()
        // counting.num_relabelings_licit()
    )
    assert solvable * counting.num_classes("marked") > counting.num_assemblies()
    # mechanical classes are equal-sized, three of them tile everything
    mech = counting.num_relabelings("mechanical") * counting.num_licit() // (
        counting.num_relabelings("mechanical") // 2
    )
    assert mech * 3 == counting.num_assemblies("mechanical")


def test_exact_probabilities():
    assert counting.exact_probability("marked") == Fraction(1, 12288)
    assert counting.exact_probability("mechanical") == Fraction(1, 3)


@pytest.mark.parametrize(
    "call",
    [
        counting.num_assemblies,
        counting.num_relabelings,
        counting.num_classes,
        counting.exact_probability,
        lambda mode: counting.estimate_probability(mode, 100, seed=1),
        lambda mode: cube.random_assembly(np.random.default_rng(0), mode),
    ],
    ids=[
        "num_assemblies",
        "num_relabelings",
        "num_classes",
        "exact_probability",
        "estimate_probability",
        "random_assembly",
    ],
)
def test_unknown_mode_rejected(call):
    with pytest.raises(ValueError, match="unknown mode 'painted'"):
        call("painted")


def test_reciprocal_class_count_comparison():
    # naive 1/classes is wrong for marked, right for mechanical
    assert Fraction(1, counting.num_classes("marked")) != counting.exact_probability(
        "marked"
    )
    assert Fraction(
        1, counting.num_classes("mechanical")
    ) == counting.exact_probability("mechanical")


def test_probability_denominator_structure():
    p = counting.exact_probability("marked")
    assert p.numerator == 1
    assert p.denominator == 3 * 2**12


def test_estimate_deterministic_per_seed():
    a = counting.estimate_probability("mechanical", 150_000, seed=7)
    b = counting.estimate_probability("mechanical", 150_000, seed=7)
    c = counting.estimate_probability("mechanical", 150_000, seed=8)
    assert a == b
    assert a[0] != c[0]


def test_estimate_worker_invariant():
    for mode in cube.MODES:
        a = counting.estimate_probability(mode, 200_000, seed=11, workers=1)
        b = counting.estimate_probability(mode, 200_000, seed=11, workers=3)
        d = counting.estimate_probability(mode, 200_000, seed=11, workers=8)
        assert a == b == d


def test_estimate_threads_bounded(monkeypatch):
    # more workers than CPUs, one stream each: the threads that run streams,
    # the calling one among them, stay at one per CPU, and the estimate is
    # the one-worker estimate
    import os
    import threading
    import time

    cpus = os.cpu_count() or 1
    n = (cpus + 2) * counting.STREAM_SIZE
    want = counting.estimate_probability("mechanical", n, seed=17, workers=1)
    names = set()
    stream_hits = counting._stream_hits

    def spy(*args):
        names.add(threading.current_thread().name)
        time.sleep(0.05)  # keep streams overlapping, as an unbounded pool would
        return stream_hits(*args)

    monkeypatch.setattr(counting, "_stream_hits", spy)
    got = counting.estimate_probability("mechanical", n, seed=17, workers=cpus + 2)
    assert got == want
    assert 1 <= len(names) <= cpus


def test_estimate_streams_in_flight_bounded(monkeypatch):
    # a spy on submission, not a huge n: 100 streams reach the pool as one
    # task per thread past the first, which the calling thread runs, so what
    # is in flight does not grow with n, one worker submits nothing, and every
    # stream runs exactly once
    import os
    import threading
    from concurrent.futures import ThreadPoolExecutor

    submitted, ran, callers = [], [], set()

    def stub(mode, seed, index, count):
        ran.append(index)
        callers.add(threading.current_thread())
        return index % 2

    submit = ThreadPoolExecutor.submit

    def spy(self, fn, *args):
        submitted.append(args)
        return submit(self, fn, *args)

    monkeypatch.setattr(counting, "_stream_hits", stub)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
    n = 100 * counting.STREAM_SIZE
    for workers in (2, 1):
        for seen in (submitted, ran, callers):
            seen.clear()
        est, _ = counting.estimate_probability("mechanical", n, seed=1, workers=workers)
        assert len(submitted) == min(workers, os.cpu_count() or 1) - 1
        assert sorted(ran) == list(range(100))
        assert est == Fraction(50, n)
    assert callers == {threading.current_thread()}


def test_estimate_pinned():
    # pins from the scalar rebuild of every stream (see
    # test_stream_hits_match_scalar_predicate), not from _stream_hits
    est, err = counting.estimate_probability("mechanical", 200_000, seed=7)
    assert est == Fraction(66_477, 200_000)
    assert f"{err:.6e}" == "1.053340e-03"
    est, err = counting.estimate_probability("marked", 100_000, seed=5, workers=2)
    assert est == Fraction(8, 100_000)
    assert f"{err:.6e}" == "2.828314e-05"


def test_estimate_close_to_exact():
    # marked mode at 2^22 samples expects about 341 hits
    for mode, n in (("mechanical", 300_000), ("marked", 1 << 22)):
        p = float(counting.exact_probability(mode))
        est, err = counting.estimate_probability(mode, n, seed=13)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(float(est) - p) < 4 * sigma, mode
        assert abs(err - sigma) < sigma / 10, mode


def test_estimate_partial_stream():
    # n below one stream and n not a multiple of the stream size both work,
    # with 2 workers as with 1: one stream leaves the second thread idle, and
    # of 4 streams the short last one falls to the second thread
    est, _ = counting.estimate_probability("mechanical", 1000, seed=3)
    assert 0 <= est <= 1
    assert 1000 % est.denominator == 0
    for n in (1000, 70_000, 3 * counting.STREAM_SIZE + 5):
        a = counting.estimate_probability("mechanical", n, seed=3)
        b = counting.estimate_probability("mechanical", n, seed=3, workers=2)
        assert a == b, n


def test_estimate_rejects_bad_args():
    with pytest.raises(ValueError):
        counting.estimate_probability("mechanical", 0, seed=1)
    with pytest.raises(ValueError):
        counting.estimate_probability("painted", 100, seed=1)


@pytest.mark.parametrize(
    "name, value",
    [
        ("n", 0),
        ("n", True),
        ("n", 2.5),
        ("n", "100"),
        ("seed", -1),
        ("seed", True),
        ("seed", 1.0),
        ("workers", 0),
        ("workers", False),
        ("workers", 1.5),
    ],
)
def test_estimate_refuses_bad_counts(name, value):
    args = {"n": 100, "seed": 1, "workers": 1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        counting.estimate_probability("mechanical", **args)


def test_estimate_takes_numpy_integers():
    # 1000 mechanical samples leave 8 unused digits in the last u; 10001
    # marked samples leave 3 unused lanes in the last word, and the 2 whose
    # pairs agree leave 14 unused digits
    for mode, n in (("mechanical", 1000), ("marked", 10_001)):
        want = counting.estimate_probability(mode, n, seed=3, workers=2)
        got = counting.estimate_probability(
            mode, np.int64(n), seed=np.uint64(3), workers=np.int32(2)
        )
        assert got == want, mode


def test_flip_rate_matches_pair_condition(make_rng):
    # fraction of assemblies whose flips alone pass is 2^-12
    rng = make_rng(501)
    hits = 0
    n = 40_000
    for _ in range(n):
        bits = rng.integers(0, 2, size=24)
        if all(bits[2 * k] == bits[2 * k + 1] for k in range(12)):
            hits += 1
    p = 2.0**-12
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 5 * sigma


def scalar_stream(mode, seed, index, count):
    """Stream `index`'s samples as (pair differences, twist-sum digit), decoded
    in plain Python from the stream's draws in their order; the digit is None
    for a marked sample whose edge pairs do not all agree, as it draws none.

    Marked mode: raw 64-bit words, sample 4i+j's 12 pair differences in bits
    16j..16j+11 of word i (bit k pair k's).  Both modes: u in [0, 3^16) per 16
    digits in sample order, the 8 base-3 digits of u mod 3^8 low to high, then
    those of u div 3^8.
    """
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )
    if mode == "marked":
        words = rng.bit_generator.random_raw(-(-count // 4)).tolist()
        lanes = [w >> 16 * j & 0xFFF for w in words for j in range(4)][:count]
    else:
        lanes = [0] * count
    diffs = [[x >> k & 1 for k in range(12)] for x in lanes]
    us = rng.integers(0, 3**16, size=-(-lanes.count(0) // 16), dtype=np.uint32).tolist()
    halves = [h for u in us for h in (u % 3**8, u // 3**8)]
    digits = iter([h // 3**k % 3 for h in halves for k in range(8)])
    for d in diffs:
        yield d, None if any(d) else next(digits)


def test_stream_hits_match_scalar_predicate():
    # judge every sample of scalar_stream with CubeState.  Each pair's common
    # flip bit, seven of the eight twists, a marked sample's twist sum when it
    # has no digit, and every sample's piece placements come from an
    # independent generator, so the match shows _stream_hits reads none of
    # them, and the vectorized predicate cannot drift from the scalar one.  The
    # counts are 0, 1, 14 and 15 mod 16 (0, 1, 2 and 3 mod 4).  Seed 133 was
    # chosen so each layout rule shows.  Its first 4096 marked samples hold 1
    # hit among 5 whose pairs agree, sample 110 among them, so at count 110 a
    # stream that read the last word's unused lanes 2 and 3 would count it.
    # The last u holds a 0 among its unused digits at mechanical counts 1 and
    # 110 and marked counts 4096 and 2751, so counting them would be off there;
    # digits read high to low miscount at 2751 in both modes, and swapped
    # halves at 1 (mechanical) and 2751 (marked).
    from revcube.counting import _stream_hits
    from revcube.wreath import WreathElem

    seed = 133
    place = np.random.Generator(np.random.PCG64(np.random.SeedSequence(99)))

    def perm_row(n):
        return tuple(map(int, place.permutation(n)))

    for count in (4096, 1, 110, 2751):
        for mode in cube.MODES:
            hits = 0
            for diffs, digit in scalar_stream(mode, seed, 0, count):
                if digit is None:
                    digit = int(place.integers(0, 3))
                twists = place.integers(0, 3, size=7).tolist()
                twists.append((digit - sum(twists)) % 3)
                common = place.integers(0, 2, size=12).tolist()
                flips = [b for c, d in zip(common, diffs) for b in (c, c ^ d)]
                t = cube.CubeState(
                    WreathElem(2, tuple(flips), perm_row(24)),
                    WreathElem(3, tuple(twists), perm_row(8)),
                    perm_row(24),
                )
                hits += cube.is_solvable(t)
            assert hits == _stream_hits(mode, seed, 0, count), (count, mode)
            if (count, mode) == (4096, "marked"):
                assert hits == 1


def test_zero_digit_table():
    # every one of the 3^8 codes, decoded digit by digit
    table = counting._zero_digits()
    assert table.shape == (3**8,)
    for v in range(3**8):
        digits = [(v // 3**k) % 3 for k in range(8)]
        assert table[v] == digits.count(0), v


def test_wilson_interval():
    z2 = counting.WILSON_Z**2
    n = 1000
    assert counting.wilson_interval(0, n) == pytest.approx((0.0, z2 / (n + z2)))
    assert counting.wilson_interval(n, n) == pytest.approx((n / (n + z2), 1.0))
    # 20 hits in 100: centre (20 + 1.9208) / 103.8416 = 0.211098, half width
    # 1.96 * sqrt(16 + 0.9604) / 103.8416 = 0.077733
    lo, hi = counting.wilson_interval(20, 100)
    assert lo == pytest.approx(0.133366, abs=1e-6)
    assert hi == pytest.approx(0.288831, abs=1e-6)
    assert counting.wilson_interval(np.int64(20), np.int32(100)) == (lo, hi)


@pytest.mark.parametrize(
    "hits, n, name",
    [
        (0, 0, "n"),
        (0, -3, "n"),
        (0, True, "n"),
        (1, 10.0, "n"),
        (5, 3, "hits"),
        (-1, 10, "hits"),
        (True, 10, "hits"),
        (2.0, 10, "hits"),
        ("2", 10, "hits"),
    ],
)
def test_wilson_interval_refuses_bad_counts(hits, n, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        counting.wilson_interval(hits, n)


def test_sampled_states_obey_exact_probability(make_rng):
    # library-level sampler agrees with the closed form at 4 sigma
    rng = make_rng(502)
    n = 30_000
    hits = sum(
        cube.is_solvable(cube.random_assembly(rng, "mechanical"))
        for _ in range(n)
    )
    p = 1 / 3
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * sigma
