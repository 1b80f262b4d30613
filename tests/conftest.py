import io
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from revcube import cli, cube, perm, sims


def run_cli(*args):
    """`revcube ARGS` in process, read like a finished subprocess."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as e:
            code = e.code
    stdout, stderr = out.getvalue(), err.getvalue()
    return SimpleNamespace(returncode=code, stdout=stdout, stderr=stderr)


def random_perm(n: int, rng: np.random.Generator) -> perm.Perm:
    """A uniform permutation of range(n): the Fisher-Yates shuffle on one
    call's draws, the i-th in [0, n - 1 - i], as the samplers draw."""
    return perm.fisher_yates(n, iter(rng.integers(0, range(n, 1, -1)).tolist()))


@pytest.fixture
def make_rng():
    """Factory for independent, reproducible generators."""

    def _make(seed: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    return _make


@pytest.fixture(scope="session")
def timed_slice_group():
    """The slice-move group's BSGS, built once per session, and the seconds
    its build took (embedding the generators included)."""
    t0 = time.monotonic()
    sgs = sims.build_bsgs([sims.embed(g) for g in cube.all_generators()])
    return sgs, time.monotonic() - t0


@pytest.fixture
def slice_group(timed_slice_group):
    return timed_slice_group[0]
