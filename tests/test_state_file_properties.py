"""Property tests of the state-file format: round trip, and every one-token
mutation either parses or fails with StateFileError."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from revcube import cube  # noqa: E402
from revcube.wreath import WreathElem  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, database=None)


def _assembly(eb, ep, ct, cp, zp):
    return cube.CubeState(
        WreathElem(2, tuple(eb), tuple(ep)), WreathElem(3, tuple(ct), tuple(cp)), tuple(zp)
    )


ASSEMBLIES = st.builds(
    _assembly,
    st.lists(st.integers(0, 1), min_size=24, max_size=24),
    st.permutations(range(24)),
    st.lists(st.integers(0, 2), min_size=8, max_size=8),
    st.permutations(range(8)),
    st.permutations(range(24)),
)

# mostly digit strings, which land in and out of range, plus arbitrary text
TOKENS = st.one_of(
    st.text("0123456789", min_size=1, max_size=3),
    st.text(max_size=4),
)


@PROPERTY
@given(ASSEMBLIES)
def test_format_parse_round_trip(t):
    assert cube.parse_state(cube.format_state(t)) == t


@PROPERTY
@given(ASSEMBLIES, st.data())
def test_one_token_mutation_parses_or_raises_state_file_error(t, data):
    lines = cube.format_state(t).splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    parts = lines[row].split(" ")
    parts[data.draw(st.integers(1, len(parts) - 1))] = data.draw(TOKENS)
    lines[row] = " ".join(parts)
    try:
        cube.parse_state("\n".join(lines) + "\n")
    except cube.StateFileError:
        pass
