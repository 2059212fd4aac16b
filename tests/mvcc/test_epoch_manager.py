"""EpochManager / ReaderRegistry semantics: the MVCC version clock."""

import threading

import pytest

from repro.mvcc import GENESIS_EPOCH, PENDING_EPOCH, EpochManager
from repro.txn import autocommit


class TestCommit:
    def test_commit_allocates_sequential_epochs(self):
        mgr = EpochManager()
        assert mgr.current == GENESIS_EPOCH
        assert mgr.commit([]) == 1
        assert mgr.commit([]) == 2
        assert mgr.current == 2

    def test_finalizers_run_with_the_allocated_epoch_before_publish(self):
        mgr = EpochManager()
        seen = []

        def finalize(epoch):
            # Publish-last: during the stamp, `current` must still be
            # the old value — a reader capturing now pins the old epoch
            # and must not see the half-stamped commit.
            seen.append((epoch, mgr.current))

        epoch = mgr.commit([finalize])
        assert seen == [(epoch, epoch - 1)]
        assert mgr.current == epoch

    def test_finalizer_failure_does_not_publish(self):
        mgr = EpochManager()
        with pytest.raises(RuntimeError):
            mgr.commit([lambda e: (_ for _ in ()).throw(RuntimeError("boom"))])
        assert mgr.current == GENESIS_EPOCH

    def test_autocommit_publishes_on_clean_exit(self):
        mgr = EpochManager()
        stamped = []
        with autocommit(mgr) as txn:
            txn.on_commit(stamped.append)
            assert mgr.current == GENESIS_EPOCH  # not yet published
        assert stamped == [1] and mgr.current == 1

    def test_after_publish_sees_the_published_epoch(self):
        mgr = EpochManager()
        seen = []
        with autocommit(mgr) as txn:
            txn.on_commit(lambda epoch: None)
            txn.after_publish(lambda: seen.append(mgr.current))
        assert seen == [1]

    def test_a_scope_with_no_hook_allocates_no_epoch(self):
        mgr = EpochManager()
        with autocommit(mgr) as txn:
            txn.after_publish(lambda: None)
        assert mgr.current == GENESIS_EPOCH

    def test_advance_to_is_monotonic(self):
        mgr = EpochManager()
        mgr.advance_to(7)
        assert mgr.current == 7
        mgr.advance_to(3)  # never goes backwards
        assert mgr.current == 7

    def test_pending_sentinel_is_beyond_any_real_epoch(self):
        mgr = EpochManager()
        for _ in range(100):
            mgr.commit([])
        assert PENDING_EPOCH > mgr.current


class TestReaders:
    def test_pin_captures_current_and_registers(self):
        mgr = EpochManager()
        mgr.commit([])
        lease = mgr.readers.pin(tag="t")
        assert lease.epoch == 1
        assert len(mgr.readers) == 1
        lease.release()
        assert len(mgr.readers) == 0

    def test_release_is_idempotent(self):
        mgr = EpochManager()
        lease = mgr.readers.pin()
        lease.release()
        lease.release()
        assert len(mgr.readers) == 0

    def test_lease_is_a_context_manager(self):
        mgr = EpochManager()
        with mgr.readers.pin() as lease:
            assert not lease.released
        assert lease.released

    def test_horizon_tracks_oldest_reader(self):
        mgr = EpochManager()
        assert mgr.horizon() == GENESIS_EPOCH
        old = mgr.readers.pin()
        mgr.commit([])
        mgr.commit([])
        assert mgr.horizon() == old.epoch == GENESIS_EPOCH
        new = mgr.readers.pin()
        assert new.epoch == 2
        old.release()
        assert mgr.horizon() == 2
        new.release()
        assert mgr.horizon() == mgr.current == 2

    def test_oldest_active_gauge_published(self):
        from repro.observability import registry as metrics

        mgr = EpochManager()
        mgr.commit([])
        lease = mgr.readers.pin()
        assert metrics.get_registry().gauge("mvcc.oldest_active_epoch") == 1
        mgr.commit([])
        lease.release()
        assert metrics.get_registry().gauge("mvcc.oldest_active_epoch") == 2

    def test_concurrent_pins_never_tear(self):
        """Readers pinning while commits install always observe a valid
        published epoch (never a half-installed one)."""
        mgr = EpochManager()
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                with mgr.readers.pin() as lease:
                    if not (GENESIS_EPOCH <= lease.epoch <= mgr.current):
                        bad.append(lease.epoch)

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(300):
            mgr.commit([])
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert not bad
        assert len(mgr.readers) == 0
