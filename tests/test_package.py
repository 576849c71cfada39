import starcache


def test_every_export_is_unique_and_resolves():
    names = starcache.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(starcache, name)]
    assert not missing
