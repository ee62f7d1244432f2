"""A slice of the byte differential (``tests/differential.py``) against its
committed manifest: about 1,100 records of eight commands each."""

import differential


def test_slice_matches_manifest():
    inputs = differential.slice_inputs(differential.build_inputs())
    got = differential.run_records(inputs)
    want = differential.read_manifest()
    assert len(got) > 1000
    assert differential.differing(got, {k: want.get(k) for k in got}) == {}


def test_manifest_is_in_input_order():
    # the order ``--write`` gives, so a rewrite that changes no digest
    # changes no line either
    keys = [
        f"{family}/{name}/{label}"
        for family, name, _ in differential.build_inputs()
        for label in differential.COMMANDS
    ]
    assert list(differential.read_manifest()) == keys
