"""Content-addressed result store: keys, round trips, maintenance."""

import json

from repro.orchestrator.store import STORE_FORMAT, ResultStore


def _payload(x=1):
    return {"config": {"topology": "torus", "seed": x},
            "runner_kwargs": {}}


class TestKeys:
    def test_key_is_stable(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.key("point", _payload()) == store.key("point",
                                                           _payload())

    def test_key_ignores_dict_order(self, tmp_path):
        store = ResultStore(tmp_path)
        a = store.key("point", {"a": 1, "b": {"c": 2, "d": 3}})
        b = store.key("point", {"b": {"d": 3, "c": 2}, "a": 1})
        assert a == b

    def test_key_distinguishes_payloads_and_kinds(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.key("point", _payload(1)) != \
            store.key("point", _payload(2))
        assert store.key("point", _payload(1)) != \
            store.key("saturation", _payload(1))


class TestRecords:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key("point", _payload())
        store.put(key, "point", _payload(), {"value": 1.25},
                  elapsed_s=0.5)
        record = store.get(key)
        assert record is not None
        assert record["result"] == {"value": 1.25}
        assert record["payload"] == _payload()
        assert record["kind"] == "point"
        assert record["format"] == STORE_FORMAT
        assert record["elapsed_s"] == 0.5
        assert store.contains(key)

    def test_missing_key_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)

    def test_corrupt_record_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key("point", _payload())
        store.put(key, "point", _payload(), {"value": 1})
        path = store._path(key)
        path.write_text("{truncated")
        assert store.get(key) is None

    def test_mismatched_key_field_reads_as_miss(self, tmp_path):
        # a record copied under the wrong name must not be served
        store = ResultStore(tmp_path)
        key = store.key("point", _payload())
        store.put(key, "point", _payload(), {"value": 1})
        other = "f" * 64
        target = store._path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store._path(key).read_text())
        assert store.get(other) is None

    def test_record_is_plain_json(self, tmp_path):
        # external tooling reads records without importing repro
        store = ResultStore(tmp_path)
        key = store.key("point", _payload())
        store.put(key, "point", _payload(), {"value": 2})
        with open(store._path(key)) as fh:
            assert json.load(fh)["result"]["value"] == 2


class TestMetaCreation:
    def test_meta_written_atomically_on_first_put(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key("point", _payload())
        store.put(key, "point", _payload(), {"value": 1})
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta == {"format": STORE_FORMAT}
        # no half-written temp artefacts survive the put
        assert not list(tmp_path.glob("*.tmp"))

    def test_existing_meta_left_alone(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(store.key("point", _payload()), "point", _payload(),
                  {"value": 1})
        before = (tmp_path / "meta.json").stat().st_mtime_ns
        store.put(store.key("point", _payload(2)), "point", _payload(2),
                  {"value": 2})
        assert (tmp_path / "meta.json").stat().st_mtime_ns == before


class TestCompaction:
    def _fill(self, store, n=5):
        keys = []
        for i in range(n):
            key = store.key("point", _payload(i))
            store.put(key, "point", _payload(i), {"value": i},
                      elapsed_s=float(i))
            keys.append(key)
        return keys

    def test_compact_keeps_sound_records(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self._fill(store)
        stats = store.compact()
        assert stats.entries == 5 and stats.pruned == 0
        assert stats.total_bytes == store.info().total_bytes > 0
        # records still read back after the pass, which writes nothing
        assert all(store.get(k) is not None for k in keys)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["meta.json", "objects"]

    def test_compact_prunes_corrupt_and_misfiled(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self._fill(store, 3)
        store._path(keys[0]).write_text("{truncated")
        misfiled = store._path("f" * 64)
        misfiled.parent.mkdir(parents=True, exist_ok=True)
        misfiled.write_text(store._path(keys[1]).read_text())
        stats = store.compact()
        assert stats.entries == 2
        assert stats.pruned == 2
        assert not store._path(keys[0]).exists()
        assert not misfiled.exists()
        assert all(store.get(k) is not None for k in keys[1:])

    def test_compact_removes_empty_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self._fill(store, 4)
        for key in keys[:2]:
            store._path(key).unlink()
        stats = store.compact()
        subdirs = {p.name for p in (tmp_path / "objects").iterdir()}
        assert subdirs == {k[:2] for k in keys[2:]}
        assert stats.removed_dirs >= 1

    def test_compact_empty_store(self, tmp_path):
        stats = ResultStore(tmp_path / "cold").compact()
        assert stats.entries == 0 and stats.pruned == 0


class TestMaintenance:
    def test_info_counts_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.info().entries == 0
        for i in range(3):
            key = store.key("point", _payload(i))
            store.put(key, "point", _payload(i), {"value": i})
        info = store.info()
        assert info.entries == 3
        assert info.total_bytes > 0
        assert str(tmp_path) in info.oneline()

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = []
        for i in range(4):
            key = store.key("point", _payload(i))
            store.put(key, "point", _payload(i), {"value": i})
            keys.append(key)
        assert store.clear() == 4
        assert store.info().entries == 0
        assert all(store.get(k) is None for k in keys)

    def test_clear_removes_empty_shard_dirs(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(4):
            key = store.key("point", _payload(i))
            store.put(key, "point", _payload(i), {"value": i})
        store.clear()
        assert list((tmp_path / "objects").iterdir()) == []

    def test_clear_empty_store(self, tmp_path):
        assert ResultStore(tmp_path / "never-created").clear() == 0
