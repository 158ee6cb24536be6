"""Property test of the grid CSV codecs on any finite table."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from margulis.walk import GridDist, grid_from_csv, grid_to_csv  # noqa: E402
from test_walk import _oracle_grid_to_csv  # noqa: E402

finite_tables = st.sampled_from([3, 5]).flatmap(lambda N: hnp.arrays(
    np.float64, (N, N), elements=st.floats(allow_nan=False, allow_infinity=False)))


@settings(max_examples=300, deadline=None, database=None)
@given(finite_tables)
def test_csv_writes_as_the_oracle_and_reads_back_bit_exactly(values):
    f = GridDist(values.shape[0], values)
    text = grid_to_csv(f)
    assert text == _oracle_grid_to_csv(f)
    assert grid_from_csv(text).values.tobytes() == f.values.tobytes()
