"""Property tests, with inputs drawn by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tefuse.infotheory import _joint_ids

from oracles import joint_ids_oracle

INT64 = np.iinfo(np.int64)
LABELS = st.one_of(
    st.integers(-3, 3),
    st.integers(-400, 400),
    st.integers(int(INT64.min), int(INT64.max)),
    st.sampled_from([int(INT64.min), int(INT64.max), -10**17, 10**17]),
)


@settings(deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(1, 60), st.integers(1, 12)),
              elements=LABELS))
def test_lazy_fold_equals_eager_fold(rows):
    assert np.array_equal(_joint_ids(*rows.T), joint_ids_oracle(*rows.T))
