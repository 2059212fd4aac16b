"""The instrumented-iterator wrapper: correct counts, off by default."""

from __future__ import annotations

import sys
import threading

from repro.exec.batch import Batch
from repro.exec.operators.base import BatchOperator
from repro.exec.row_engine import RowOperator
from repro.observability import collect, collecting, opstats


class EmitBatches(BatchOperator):
    """Emits hand-built batches so expected counts are known exactly."""

    def __init__(self, sizes: list[int]) -> None:
        self.sizes = sizes

    @property
    def output_names(self) -> list[str]:
        return ["v"]

    def batches(self):
        for size in self.sizes:
            yield Batch.from_pydict({"v": list(range(size))})


class ConsumeBatches(BatchOperator):
    """A pass-through parent, to check inclusive stats nest correctly."""

    def __init__(self, child: BatchOperator) -> None:
        self.child = child

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def child_operators(self):
        return [self.child]

    def batches(self):
        yield from self.child.batches()


class EmitRows(RowOperator):
    def __init__(self, count: int) -> None:
        self.count = count

    @property
    def output_names(self) -> list[str]:
        return ["v"]

    def rows(self):
        for i in range(self.count):
            yield {"v": i}


class TestCollectionFlag:
    def test_off_by_default(self):
        assert not collecting()

    def test_collect_restores_previous_state(self):
        assert not collecting()
        with collect():
            assert collecting()
            with collect():
                assert collecting()
            assert collecting()
        assert not collecting()

    def test_no_stats_recorded_when_off(self):
        op = EmitBatches([4, 4])
        assert sum(b.active_count for b in op.batches()) == 8
        assert not op.op_stats.touched

    def test_enable_disable(self):
        opstats.enable()
        try:
            assert collecting()
        finally:
            opstats.disable()
        assert not collecting()

    def test_blocks_closing_out_of_order_across_threads_turn_it_off(self):
        """A enters, B enters, A exits, B exits: a block that saved and
        restored the flag would leave collection on for good."""

        class Block(threading.Thread):
            def __init__(self):
                super().__init__()
                self.go_in, self.go_out = threading.Event(), threading.Event()
                self.entered = threading.Event()

            def run(self):
                self.go_in.wait(5)
                with collect():
                    self.entered.set()
                    self.go_out.wait(5)

        a, b = Block(), Block()
        a.start()
        b.start()
        a.go_in.set()
        assert a.entered.wait(5)
        b.go_in.set()
        assert b.entered.wait(5)
        a.go_out.set()
        a.join(5)
        assert collecting()  # B is still inside its block
        b.go_out.set()
        b.join(5)
        assert not collecting()

    def test_many_threads_opening_and_closing_blocks_leave_it_off(self):
        """A lost update to the count of open blocks would leave it on."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def churn():
                for _ in range(2_000):
                    with collect():
                        assert collecting()

            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert not collecting()


class TestBatchCounts:
    def test_counts_match_known_input(self):
        op = EmitBatches([10, 20, 5])
        with collect():
            consumed = list(op.batches())
        assert len(consumed) == 3
        assert op.op_stats.batches == 3
        assert op.op_stats.rows == 35
        assert op.op_stats.wall_seconds > 0

    def test_rows_counted_by_selection_not_physical_length(self):
        import numpy as np

        batch = Batch.from_pydict({"v": list(range(10))})
        batch.selection = np.array([1, 3, 5], dtype=np.int64)

        class EmitOne(BatchOperator):
            @property
            def output_names(self):
                return ["v"]

            def batches(self):
                yield batch

        op = EmitOne()
        with collect():
            list(op.batches())
        assert op.op_stats.rows == 3

    def test_parent_and_child_both_counted(self):
        child = EmitBatches([8, 8])
        parent = ConsumeBatches(child)
        with collect():
            list(parent.batches())
        assert parent.op_stats.rows == 16
        assert child.op_stats.rows == 16
        # Inclusive timing: the parent's wall time covers its child's.
        assert parent.op_stats.wall_seconds >= child.op_stats.wall_seconds * 0.5

    def test_partial_consumption_counts_only_what_was_pulled(self):
        op = EmitBatches([4, 4, 4])
        with collect():
            stream = op.batches()
            next(stream)
            stream.close()
        assert op.op_stats.batches == 1
        assert op.op_stats.rows == 4


class TestRowCounts:
    def test_row_operator_counts_rows(self):
        op = EmitRows(17)
        with collect():
            assert len(list(op.rows())) == 17
        assert op.op_stats.rows == 17
        assert op.op_stats.batches == 0

    def test_row_operator_silent_when_off(self):
        op = EmitRows(5)
        assert len(list(op.rows())) == 5
        assert not op.op_stats.touched


class TestWrapping:
    def test_generators_are_wrapped_exactly_once(self):
        for wrapped in (EmitBatches.batches, EmitRows.rows):
            assert not hasattr(wrapped.__wrapped__, "__wrapped__")

    def test_subclass_inheriting_batches_is_not_rewrapped(self):
        class Inherits(EmitBatches):
            pass

        assert Inherits.batches is EmitBatches.batches

    def test_an_operator_without_describe_is_explained_by_its_class(self):
        assert ConsumeBatches(EmitBatches([1])).explain_lines() == [
            "ConsumeBatches", "  EmitBatches"
        ]
        assert EmitRows(1).explain_lines() == ["EmitRows"]

    def test_stats_accumulate_across_executions(self):
        op = EmitBatches([4])
        with collect():
            list(op.batches())
            list(op.batches())
        assert op.op_stats.rows == 8
        assert op.op_stats.batches == 2
