import pytest


def test_put_then_get_hits(tmp_cache):
    key = {"kind": "ex", "dims": [2, 2]}
    tmp_cache.put(key, {"value": 3})
    assert [p.suffix for p in tmp_cache.root.iterdir()] == [".json"]
    assert tmp_cache.get(key)["value"] == 3


def test_failed_put_keeps_old_entry(tmp_cache):
    key = {"kind": "ex", "dims": [2, 2]}
    tmp_cache.put(key, {"value": 3})
    with pytest.raises(TypeError):
        tmp_cache.put(key, {"value": object()})
    assert len(list(tmp_cache.root.iterdir())) == 1
    assert tmp_cache.get(key)["value"] == 3
