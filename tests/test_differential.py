"""A slice of the byte differential (``tests/differential.py``) against its
committed manifest: about 1,100 records of eight commands each."""

import differential


def test_slice_matches_manifest():
    inputs = differential.slice_inputs(differential.build_inputs())
    got = differential.run_records(inputs)
    want = differential.read_manifest()
    assert len(got) > 1000
    assert differential.differing(got, {k: want.get(k) for k in got}) == {}
