"""WAL record framing: roundtrips, damage classification, corruption fuzz."""

import os
import random

from repro.wal.log import LoggedSegment, judge_log
from repro.wal.record import (
    WalRecordType,
    encode_record,
    scan_segment,
)

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def make_segment(first_lsn: int = 1, count: int = 5) -> tuple[bytes, list]:
    """A well-formed segment of ``count`` records and the expected list."""
    rng = random.Random(SEED + first_lsn)
    data = bytearray()
    expected = []
    types = list(WalRecordType)
    for i in range(count):
        rtype = types[i % len(types)]
        table = ["t", "sales", "árbol", ""][i % 4]
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
        data += encode_record(rtype, first_lsn + i, table, payload)
        expected.append((first_lsn + i, rtype, table, payload))
    return bytes(data), expected


def records_match(records, expected) -> bool:
    return [
        (r.lsn, r.rtype, r.table, r.payload) for r in records
    ] == list(expected)


class TestRoundtrip:
    def test_scan_recovers_every_record(self):
        data, expected = make_segment(first_lsn=7, count=12)
        scan = scan_segment(data, first_lsn=7)
        assert scan.damage is None
        assert scan.good_bytes == len(data)
        assert records_match(scan.records, expected)

    def test_empty_segment_is_clean(self):
        scan = scan_segment(b"", first_lsn=1)
        assert scan.records == [] and scan.damage is None

    def test_empty_payload_and_table(self):
        data = encode_record(WalRecordType.REBUILD, 1, "", b"")
        scan = scan_segment(data, first_lsn=1)
        assert scan.damage is None
        assert scan.records[0].table == "" and scan.records[0].payload == b""


class TestDamageClassification:
    def test_truncated_last_frame_is_torn_tail(self):
        data, expected = make_segment(count=3)
        scan = scan_segment(data[:-1], first_lsn=1)
        assert scan.damage is not None and scan.damage.kind == "torn-tail"
        assert records_match(scan.records, expected[:2])
        # good_bytes points at the end of the last whole record.
        assert scan_segment(data[: scan.good_bytes], 1).damage is None

    def test_truncated_mid_header_is_torn_tail(self):
        data, _ = make_segment(count=2)
        scan = scan_segment(data[: len(data) // 2], first_lsn=1)
        assert scan.damage is None or scan.damage.kind == "torn-tail"

    def test_flip_with_valid_successor_is_corrupt(self):
        data, _ = make_segment(count=3)
        # Corrupt a payload byte of the FIRST record: its length field is
        # intact, so the scanner can see record 2 is still well-formed.
        mutated = bytearray(data)
        mutated[12] ^= 0xFF
        scan = scan_segment(bytes(mutated), first_lsn=1)
        assert scan.damage is not None and scan.damage.kind == "corrupt"
        assert scan.records == []
        [verdict] = judge_log([LoggedSegment("seg_test.wal", 1, scan)])
        assert verdict.status == "corrupt" and not verdict.ok
        assert verdict.detail.startswith("byte 0")

    def test_flip_in_final_record_is_torn_tail(self):
        data, expected = make_segment(count=3)
        mutated = bytearray(data)
        mutated[-1] ^= 0x01
        scan = scan_segment(bytes(mutated), first_lsn=1)
        assert scan.damage is not None and scan.damage.kind == "torn-tail"
        assert records_match(scan.records, expected[:2])
        # A torn tail at the end of the log is tolerable.
        [verdict] = judge_log([LoggedSegment("seg_test.wal", 1, scan)])
        assert verdict.status == "torn-tail" and verdict.ok

    def test_lsn_break_is_corrupt(self):
        part_a = encode_record(WalRecordType.INSERT, 1, "t", b"a")
        part_b = encode_record(WalRecordType.INSERT, 5, "t", b"b")  # gap
        scan = scan_segment(part_a + part_b, first_lsn=1)
        assert scan.damage is not None and scan.damage.kind == "corrupt"
        assert "LSN 5 where 2 was expected" in scan.damage.detail

    def test_wrong_first_lsn_is_corrupt(self):
        data, _ = make_segment(first_lsn=10, count=2)
        scan = scan_segment(data, first_lsn=1)
        assert scan.damage is not None and scan.damage.kind == "corrupt"


class TestCorruptionFuzz:
    """Random bit flips and truncations must never yield wrong records —
    only a (possibly shorter) prefix plus classified damage."""

    def _check_invariant(self, mutated: bytes, expected) -> None:
        scan = scan_segment(mutated, first_lsn=1)
        got = [(r.lsn, r.rtype, r.table, r.payload) for r in scan.records]
        assert got == list(expected[: len(got)]), "scan produced a non-prefix"
        if scan.damage is None:
            assert scan.good_bytes == len(mutated)

    def test_single_bit_flips(self):
        data, expected = make_segment(count=8)
        rng = random.Random(SEED)
        offsets = {0, len(data) - 1} | {
            rng.randrange(len(data)) for _ in range(200)
        }
        for offset in sorted(offsets):
            mutated = bytearray(data)
            mutated[offset] ^= 1 << rng.randrange(8)
            self._check_invariant(bytes(mutated), expected)

    def test_truncations(self):
        data, expected = make_segment(count=6)
        for cut in range(len(data)):
            self._check_invariant(data[:cut], expected)

    def test_flip_plus_truncation(self):
        data, expected = make_segment(count=6)
        rng = random.Random(SEED + 1)
        for _ in range(200):
            cut = rng.randrange(1, len(data) + 1)
            mutated = bytearray(data[:cut])
            mutated[rng.randrange(cut)] ^= 1 << rng.randrange(8)
            self._check_invariant(bytes(mutated), expected)

    def test_random_garbage_never_decodes_past_damage(self):
        rng = random.Random(SEED + 2)
        for _ in range(50):
            garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            scan = scan_segment(garbage, first_lsn=1)
            # A random blob passing CRC-32C is vanishingly unlikely.
            assert scan.records == [] and scan.damage is not None
