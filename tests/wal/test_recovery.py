"""Replay-on-open: differential testing, corruption handling, checkpoints.

The differential tests run a randomized DML script against a WAL-backed
database and an identical in-memory shadow, "crash" (abandon the live
object without saving), reopen the directory, and require the replayed
database to answer every query exactly like the shadow — structural
equality, not just survival.
"""

import os
import random

import pytest

from repro import Database, StoreConfig
from repro.cli import Shell, main
from repro.errors import WalCorruptError
from repro.storage.diskio import DiskIO
from repro.storage.snapshot import MANIFEST_NAME, load_manifest
from repro.wal.log import WAL_DIR_NAME

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

_CONFIG = StoreConfig(rowgroup_size=24, bulk_load_threshold=12, delta_close_rows=12)

_QUERIES = (
    "SELECT * FROM r ORDER BY id",
    "SELECT grp, COUNT(*) AS n, SUM(amount) AS s FROM r GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*) AS n FROM r WHERE amount > 5",
)


def state_of(db: Database) -> list:
    if not db.catalog.has_table("r"):
        return ["<no table>"]
    return [db.sql(q).rows for q in _QUERIES]


def random_script(rng: random.Random, length: int) -> list:
    """A reproducible mixed-DML script as (callable name, args) pairs."""
    ops = [("create", ())]
    next_id = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            count = rng.randrange(1, 6)
            rows = [
                (next_id + i, f"g{rng.randrange(4)}", round(rng.uniform(0, 10), 2))
                for i in range(count)
            ]
            next_id += count
            ops.append(("insert", (rows,)))
        elif roll < 0.6:
            count = rng.randrange(10, 20)
            rows = [
                (next_id + i, f"g{rng.randrange(4)}", round(rng.uniform(0, 10), 2))
                for i in range(count)
            ]
            next_id += count
            ops.append(("bulk", (rows,)))
        elif roll < 0.75:
            ops.append(("delete", (f"g{rng.randrange(4)}",)))
        elif roll < 0.85:
            ops.append(("update", (f"g{rng.randrange(4)}",)))
        elif roll < 0.95:
            ops.append(("mover", ()))
        else:
            ops.append(("rebuild", ()))
    return ops


def apply_op(db: Database, op: str, args: tuple) -> None:
    if op == "create":
        db.sql("CREATE TABLE r (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
    elif op == "insert":
        db.insert("r", args[0])
    elif op == "bulk":
        db.bulk_load("r", args[0])
    elif op == "delete":
        db.sql(f"DELETE FROM r WHERE grp = '{args[0]}'")
    elif op == "update":
        db.sql(f"UPDATE r SET amount = amount + 1 WHERE grp = '{args[0]}'")
    elif op == "mover":
        db.run_tuple_mover("r", include_open=True)
    elif op == "rebuild":
        db.rebuild("r")


class TestDifferentialReplay:
    @pytest.mark.parametrize("round_seed", [SEED, SEED + 1, SEED + 2])
    def test_replay_after_crash_equals_no_crash_run(self, tmp_path, round_seed):
        rng = random.Random(round_seed)
        script = random_script(rng, 40)
        target = tmp_path / f"diff_{round_seed}"
        live = Database.open(str(target), durability="off", default_config=_CONFIG)
        shadow = Database(_CONFIG)
        checkpoint_at = {len(script) // 3, 2 * len(script) // 3}
        for i, (op, args) in enumerate(script):
            apply_op(live, op, args)
            apply_op(shadow, op, args)
            if i in checkpoint_at:
                live.save(str(target))  # mid-script checkpoint
        # Crash: abandon `live` without close()/save(); replay must
        # reconstruct every statement from snapshot + log tail.
        recovered = Database.open(str(target), default_config=_CONFIG)
        assert state_of(recovered) == state_of(shadow)
        # The replayed database is structurally equivalent going forward:
        # the same new statements produce the same answers.
        for db in (recovered, shadow):
            db.sql("DELETE FROM r WHERE grp = 'g1'")
            db.run_tuple_mover("r", include_open=True)
        assert state_of(recovered) == state_of(shadow)

    def test_reopen_continue_reopen(self, tmp_path):
        target = tmp_path / "continue"
        shadow = Database(_CONFIG)
        db = Database.open(str(target), default_config=_CONFIG)
        for d in (db, shadow):
            d.sql("CREATE TABLE r (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
            d.insert("r", [(1, "a", 1.0), (2, "b", 2.0)])
        first_lsn = db.wal.last_lsn
        db.close()
        db = Database.open(str(target), default_config=_CONFIG)
        assert db.wal.last_lsn == first_lsn  # LSNs continue, not restart
        for d in (db, shadow):
            d.insert("r", [(3, "c", 3.0)])
            d.sql("DELETE FROM r WHERE id = 1")
        db.close()
        assert state_of(Database.open(str(target))) == state_of(shadow)


class TestTornTailAndCorruption:
    def _populated(self, tmp_path, name="db"):
        target = tmp_path / name
        db = Database.open(str(target), durability="per-commit",
                           default_config=_CONFIG)
        db.sql("CREATE TABLE r (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.insert("r", [(i, "a", float(i)) for i in range(5)])
        db.insert("r", [(10, "b", 1.0)])
        db.sql("DELETE FROM r WHERE id = 2")
        return target, state_of(db)

    def _segment_paths(self, target):
        return sorted((target / WAL_DIR_NAME).glob("seg_*.wal"))

    def test_torn_final_record_truncates_and_replays(self, tmp_path, registry):
        target, _ = self._populated(tmp_path)
        seg = self._segment_paths(target)[-1]
        pristine = seg.read_bytes()
        seg.write_bytes(pristine[:-3])  # tear the last frame
        db = Database.open(str(target), default_config=_CONFIG)
        assert registry.counter("storage.wal.replay.torn_tails_truncated") == 1
        # The torn statement (the DELETE) is gone; everything before it
        # survived.
        assert db.sql("SELECT COUNT(*) AS n FROM r").scalar() == 6
        # The truncated log replays cleanly on a second open.
        assert state_of(Database.open(str(target))) == state_of(db)

    def test_mid_log_corruption_refuses_to_open(self, tmp_path):
        target, _ = self._populated(tmp_path)
        seg = self._segment_paths(target)[0]
        data = bytearray(seg.read_bytes())
        data[12] ^= 0xFF  # first record's body: valid records follow
        seg.write_bytes(bytes(data))
        with pytest.raises(WalCorruptError) as excinfo:
            Database.open(str(target))
        assert seg.name in str(excinfo.value)

    def test_corruption_fuzz_prefix_or_refusal(self, tmp_path):
        """Random single-bit flips and truncations anywhere in the log:
        opening either succeeds with a committed prefix of the script or
        raises WalCorruptError — never wrong data, never a crash."""
        rng = random.Random(SEED)
        # Prefix states of the fixed script in _populated.
        shadow = Database(_CONFIG)
        prefixes = [state_of(shadow)]
        shadow.sql("CREATE TABLE r (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        prefixes.append(state_of(shadow))
        shadow.insert("r", [(i, "a", float(i)) for i in range(5)])
        prefixes.append(state_of(shadow))
        shadow.insert("r", [(10, "b", 1.0)])
        prefixes.append(state_of(shadow))
        shadow.sql("DELETE FROM r WHERE id = 2")
        prefixes.append(state_of(shadow))
        for round_no in range(30):
            target, _ = self._populated(tmp_path, name=f"fuzz_{round_no}")
            seg = rng.choice(self._segment_paths(target))
            data = bytearray(seg.read_bytes())
            if rng.random() < 0.5:
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            else:
                del data[rng.randrange(len(data)) :]
            seg.write_bytes(bytes(data))
            try:
                db = Database.open(str(target), default_config=_CONFIG)
            except WalCorruptError:
                continue
            assert state_of(db) in prefixes, (
                f"fuzz round {round_no}: recovered state is not a "
                "committed prefix"
            )


class TestCheckpoints:
    def test_save_records_lsn_and_truncates_log(self, tmp_path, registry):
        target, expected = TestTornTailAndCorruption()._populated(tmp_path)
        db = Database.open(str(target), default_config=_CONFIG)
        lsn_before = db.wal.last_lsn
        db.save(str(target))
        manifest = load_manifest(DiskIO(), target)
        assert manifest.checkpoint_lsn == lsn_before
        assert self_segments(target) == []
        assert registry.counter("storage.wal.checkpoints") == 1
        # Reopen: nothing to replay, state intact, appends continue.
        db2 = Database.open(str(target), default_config=_CONFIG)
        assert state_of(db2) == expected
        db2.insert("r", [(99, "z", 0.5)])
        assert db2.wal.last_lsn == lsn_before + 1
        db2.close()
        assert (
            Database.open(str(target)).sql(
                "SELECT COUNT(*) AS n FROM r WHERE id = 99"
            ).scalar()
            == 1
        )

    def test_wal_only_directory_opens_and_checks(self, tmp_path):
        target = tmp_path / "walonly"
        db = Database.open(str(target), durability="per-commit",
                           default_config=_CONFIG)
        db.sql("CREATE TABLE r (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.insert("r", [(1, "a", 1.0)])
        # Never saved: no manifest, all state in the log.
        assert not (target / MANIFEST_NAME).exists()
        report = Database.check(str(target))
        assert report.manifest_status == "wal-only" and report.ok
        recovered = Database.open(str(target), default_config=_CONFIG)
        assert recovered.sql("SELECT COUNT(*) AS n FROM r").scalar() == 1

    def test_corrupt_manifest_with_wal_refuses_to_open(self, tmp_path):
        # Regression: a corrupt manifest used to fall into the "no
        # snapshot yet, recover from the log alone" path — but the
        # checkpoint had truncated the log, so the database silently
        # opened *empty*. Corruption must fail the open instead.
        target = tmp_path / "corruptsnap"
        db = Database.open(str(target), durability="per-commit",
                           default_config=_CONFIG)
        db.sql("CREATE TABLE r (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.insert("r", [(1, "a", 1.0)])
        db.save(str(target))  # checkpoint: the log no longer holds state
        db.close()
        manifest_path = target / MANIFEST_NAME
        data = bytearray(manifest_path.read_bytes())
        data[len(data) // 2] ^= 0x10
        manifest_path.write_bytes(bytes(data))
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError, match="manifest"):
            Database.open(str(target), default_config=_CONFIG)

    def test_plain_load_without_wal_dir_stays_walless(self, tmp_path):
        db = Database(_CONFIG)
        db.sql("CREATE TABLE r (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.save(str(tmp_path / "plain"))
        loaded = Database.load(str(tmp_path / "plain"))
        assert loaded.wal is None
        assert not (tmp_path / "plain" / WAL_DIR_NAME).exists()

    def test_reopen_keeps_the_default_config(self, tmp_path):
        # Regression: reopening an existing directory dropped
        # ``default_config``, so tables created after the reopen got the
        # default row-group size.
        path = str(tmp_path / "d")
        config = StoreConfig(rowgroup_size=1024)
        first = Database.open(path, default_config=config)
        first.sql("CREATE TABLE early (id INT)")
        first.close()
        db = Database.open(path, default_config=config)
        assert db.default_config == config
        assert db.table("early").config.rowgroup_size == 1024  # from the log
        db.sql("CREATE TABLE later (id INT)")
        assert db.table("later").config.rowgroup_size == 1024
        db.close()


def self_segments(target):
    return sorted((target / WAL_DIR_NAME).glob("seg_*.wal"))


class TestCheckIntegration:
    def test_check_names_corrupt_segment_and_offset(self, tmp_path):
        target, _ = TestTornTailAndCorruption()._populated(tmp_path)
        seg = self_segments(target)[0]
        data = bytearray(seg.read_bytes())
        data[12] ^= 0xFF
        seg.write_bytes(bytes(data))
        report = Database.check(str(target))
        assert not report.ok
        bad = [v for v in report.wal_verdicts if v.status == "corrupt"]
        assert bad and bad[0].segment == seg.name
        assert "byte 0" in bad[0].detail
        rendered = "\n".join(report.render())
        assert f"wal/{seg.name}: corrupt" in rendered

    def test_cli_check_fails_on_wal_damage(self, tmp_path, capsys):
        target, _ = TestTornTailAndCorruption()._populated(tmp_path)
        assert main(["check", str(target)]) == 0
        capsys.readouterr()
        seg = self_segments(target)[0]
        data = bytearray(seg.read_bytes())
        data[12] ^= 0xFF
        seg.write_bytes(bytes(data))
        assert main(["check", str(target)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_shell_wal_and_durability_commands(self, tmp_path):
        shell = Shell()
        assert "no write-ahead log" in shell.run_meta("\\wal")[0]
        out = shell.run_meta(f"\\open {tmp_path / 'shelldb'}")
        assert any("wal" in line for line in out)
        shell.feed_line("CREATE TABLE t (a INT);")
        shell.feed_line("INSERT INTO t VALUES (1), (2);")
        out = shell.run_meta("\\wal")
        assert any("last LSN: 2" in line for line in out)
        assert shell.run_meta("\\durability") == ["durability is group"]
        assert shell.run_meta("\\durability per-commit") == [
            "durability set to per-commit"
        ]
        assert "error" in shell.run_meta("\\durability bogus")[0]
        # Statements survive without an explicit save.
        shell2 = Shell()
        shell2.run_meta(f"\\open {tmp_path / 'shelldb'}")
        out = shell2.feed_line("SELECT COUNT(*) AS n FROM t;")
        assert any("2" in line for line in out)
