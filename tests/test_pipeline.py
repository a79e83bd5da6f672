import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroyield import ingest, pipeline, synthgen
from agroyield.errors import AgroYieldError
from agroyield.schema import Crop


def _same_array(got, want):
    return (got.dtype, got.shape, got.tobytes()) \
        == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
       st.sampled_from(list(Crop)),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_a_crop_split_partitions_the_crop_rows(seed, n, crop, ratio):
    ds = synthgen.generate(synthgen.GenConfig(n_records=n, seed=seed))
    rows = np.flatnonzero(ds.crop == crop.value)
    if len(rows) < 2:
        with pytest.raises(AgroYieldError, match="need at least 2"):
            pipeline.split_crop(ds, crop, ratio, seed)
        return
    train, test = pipeline.split_crop(ds, crop, ratio, seed)
    assert (train.dtype, test.dtype) == (np.int64, np.int64)
    assert len(train) == int(len(rows) * ratio)
    assert sorted(train.tolist() + test.tolist()) == rows.tolist()
    if len(train) == 0:  # the ratio leaves the crop no row to train on
        with pytest.raises(AgroYieldError, match=re.escape(
                f"crop {crop.name} has {len(rows)} records; train ratio "
                f"{ratio} leaves none to train on")):
            pipeline.prepare_crop_split(ds, crop, ratio, seed)
        return
    cs = pipeline.prepare_crop_split(ds, crop, ratio, seed)
    assert cs.crop is crop
    for x, y, index in ((cs.x_train, cs.y_train, train),
                        (cs.x_test, cs.y_test, test)):
        part = ds.take(index)
        assert _same_array(x, ingest.feature_matrix(part.year, part.values))
        assert _same_array(y, ingest.target_vector(part))
