"""Bounded property tests of the array generator against its references:
the exact vector row sums against ``math.fsum`` and the stepped draws
against ``rng.stream``, end states included."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vpboot.rng import ROLE_SITE, _draws, _seed_states, stream
from vpboot.synth import _fsum, _row_sums

# Values that make exact ties, cancellation-free overflow and subnormal
# sums likely, next to arbitrary non-negative floats.
EDGES = [0.0, 1.0, 1.5, 2.0 ** -53, 2.0 ** -54, 3 * 2.0 ** -53, 2.0 ** -1074,
         2.0 ** -1022, 1e308, 1.7976931348623157e308, math.inf, math.nan]
ENTRIES = st.one_of(st.floats(min_value=0.0, allow_infinity=True),
                    st.sampled_from(EDGES))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda width: st.lists(st.lists(ENTRIES, min_size=width, max_size=width),
                           min_size=1, max_size=6)))
def test_vector_row_sums_equal_fsum(rows):
    table = np.array(rows, dtype=float)
    sums = _row_sums(table)
    for got, row in zip(sums.tolist(), rows):
        want = _fsum(row)
        assert got == want or math.isnan(got) and math.isnan(want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) or math.isnan(want)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       grid=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1),
                               st.integers(0, 2 ** 32 - 1)),
                     min_size=1, max_size=30),
       uniforms=st.integers(0, 3), normals=st.integers(0, 12))
def test_array_draws_equal_the_streams(seed, grid, uniforms, normals):
    u, z, end = _draws(_seed_states(seed, ROLE_SITE, np.array(grid)),
                       uniforms, normals)
    for k, (r, i) in enumerate(grid):
        ref = stream(seed, ROLE_SITE, r, i)
        assert u[k].tobytes() == ref.random(uniforms).tobytes()
        assert z[k].tobytes() == ref.standard_normal(normals).tobytes()
        state = ref.bit_generator.state["state"]["state"]
        assert int(end[0, k]) << 64 | int(end[1, k]) == state
