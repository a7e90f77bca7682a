"""Zero-copy equivalence: mapped epoch reads == snapshot-path reads.

The serving tier's whole correctness argument rests on one property:
a :class:`~repro.storage.mapped.MappedPageStore` over a published epoch
artifact is observationally identical to the in-memory
:class:`~repro.storage.disk.PageStore` the snapshot path would rebuild —
same bytes per page, same physical counters, same simulated latency.
These tests pin that property down with hypothesis over arbitrary node
payloads and both file layouts.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import (
    EPOCH_FORMAT,
    StorageManager,
    load_epoch_spec,
    map_manager,
    map_store,
    read_epoch_meta,
    write_epoch,
)
from repro.storage.mapped import MappedPageStore

PAGE = 256

_quick = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _publish(tmp_path, payloads, pack_pages):
    """Write ``payloads`` through a NodeFile and publish the epoch."""
    manager = StorageManager(page_size=PAGE, pool_pages=8)
    file = manager.create_file(pack_pages=pack_pages)
    for payload in payloads:
        file.append_node(payload)
    file.flush()
    snapshot = manager.snapshot()
    out = write_epoch(
        tmp_path / "epoch", snapshot, spec=None, epoch=0, size=len(payloads)
    )
    return manager, file, snapshot, out


payloads_strategy = st.lists(
    st.binary(min_size=0, max_size=3 * PAGE), min_size=1, max_size=12
)


class TestBitEquality:
    @given(payloads=payloads_strategy, pack_pages=st.booleans())
    @_quick
    def test_page_reads_bit_identical(self, tmp_path_factory, payloads, pack_pages):
        tmp_path = tmp_path_factory.mktemp("epoch")
        __, __, snapshot, out = _publish(tmp_path, payloads, pack_pages)
        mapped = map_store(out)
        baseline = StorageManager.reopen(snapshot, pool_pages=8).store
        assert len(mapped) == len(baseline)
        for page_id in range(len(baseline)):
            assert mapped.read(page_id) == baseline.read(page_id)
        # Same physical accounting, same simulated latency.
        assert mapped.physical_reads == baseline.physical_reads
        assert mapped.io_time_s == baseline.io_time_s

    @given(payloads=payloads_strategy, pack_pages=st.booleans())
    @_quick
    def test_node_reads_bit_identical(self, tmp_path_factory, payloads, pack_pages):
        # Through the full stack: mapped manager + reattached NodeFile
        # must decode byte-for-byte what the writing file stored.
        tmp_path = tmp_path_factory.mktemp("epoch")
        manager, file, snapshot, out = _publish(tmp_path, payloads, pack_pages)
        spec = file.spec()
        from repro.storage import NodeFile

        mapped_manager = map_manager(out, pool_pages=8)
        mapped_file = NodeFile.reattach(mapped_manager.pool, spec)
        base_manager = StorageManager.reopen(snapshot, pool_pages=8)
        base_file = NodeFile.reattach(base_manager.pool, spec)
        for node_id, payload in enumerate(payloads):
            assert mapped_file.read_node(node_id, bytes) == payload
            assert base_file.read_node(node_id, bytes) == payload
        assert mapped_manager.io_snapshot() == base_manager.io_snapshot()


class TestArtifact:
    def test_meta_roundtrip(self, tmp_path):
        __, __, __, out = _publish(tmp_path, [b"abc", b"x" * PAGE], False)
        meta = read_epoch_meta(out)
        assert meta.page_size == PAGE
        assert meta.epoch == 0
        assert meta.size == 2
        assert meta.as_dict()["format"] == EPOCH_FORMAT

    def test_mapped_store_is_read_only(self, tmp_path):
        __, __, __, out = _publish(tmp_path, [b"abc"], False)
        store = map_store(out)
        with pytest.raises(RuntimeError, match="read-only"):
            store.write(0, b"zz")
        with pytest.raises(RuntimeError, match="read-only"):
            store.allocate(b"zz")

    def test_dump_pages_matches_snapshot(self, tmp_path):
        __, __, snapshot, out = _publish(tmp_path, [b"a", b"b" * 700], True)
        assert map_store(out).dump_pages() == snapshot.pages

    def test_out_of_range_read_raises(self, tmp_path):
        __, __, __, out = _publish(tmp_path, [b"a"], False)
        store = map_store(out)
        with pytest.raises(IndexError, match="out of range"):
            store.read(len(store))

    def test_wide_page_rejected(self, tmp_path):
        from repro.storage import StorageSnapshot
        from repro.storage.disk import DiskModel

        snap = StorageSnapshot(
            pages=(b"x" * 300,), page_size=PAGE, disk=DiskModel(page_size=PAGE)
        )
        with pytest.raises(ValueError, match="wider than page_size"):
            write_epoch(tmp_path / "bad", snap, spec=None, epoch=0, size=0)

    def test_format_tag_checked(self, tmp_path):
        __, __, __, out = _publish(tmp_path, [b"a"], False)
        meta_file = out / "meta.json"
        meta_file.write_text(meta_file.read_text().replace(EPOCH_FORMAT, "bogus/v0"))
        with pytest.raises(ValueError, match="not a"):
            map_store(out)

    def test_readonly_manager_refuses_new_files(self, tmp_path):
        __, __, __, out = _publish(tmp_path, [b"a"], False)
        manager = map_manager(out)
        with pytest.raises(RuntimeError, match="read-only"):
            manager.create_file()


def _snapshot(payloads):
    manager = StorageManager(page_size=PAGE, pool_pages=8)
    file = manager.create_file(pack_pages=False)
    for payload in payloads:
        file.append_node(payload)
    file.flush()
    return manager.snapshot()


class TestAtomicExport:
    def test_torn_export_over_a_stale_epoch_leaves_it_whole(self, tmp_path, monkeypatch):
        # A reused workdir: epoch-000001 holds an earlier run's export,
        # and the new export of the same epoch number dies right after
        # writing pages.bin.  Same page count on both sides, so a torn
        # directory would map without any error.
        old = _snapshot([b"old", b"o" * 200])
        new = _snapshot([b"n" * 100, b"new"])
        target = tmp_path / "epoch-000001"
        write_epoch(target, old, spec="old", epoch=1, size=2)
        write_bytes = Path.write_bytes

        def crash_after_pages(self, data):
            if self.name == "lengths.bin":
                raise OSError("injected crash after pages.bin")
            return write_bytes(self, data)

        monkeypatch.setattr(Path, "write_bytes", crash_after_pages)
        with pytest.raises(OSError, match="injected crash"):
            write_epoch(target, new, spec="new", epoch=1, size=2)
        monkeypatch.undo()
        assert map_store(target).dump_pages() == old.pages
        assert load_epoch_spec(target) == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["epoch-000001"]
        # A complete export replaces the stale one whole.
        write_epoch(target, new, spec="new", epoch=1, size=2)
        assert map_store(target).dump_pages() == new.pages
        assert load_epoch_spec(target) == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["epoch-000001"]


class TestMappedPageStoreGeometry:
    def test_shape_validation(self):
        pages = np.zeros((2, PAGE), dtype=np.uint8)
        with pytest.raises(ValueError, match="lengths"):
            MappedPageStore(pages, np.zeros(3, dtype=np.int64), PAGE)
        with pytest.raises(ValueError, match="pages must be"):
            MappedPageStore(pages, np.zeros(2, dtype=np.int64), PAGE + 1)
