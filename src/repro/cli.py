"""Interactive SQL shell: ``python -m repro [database-dir]``.

``python -m repro check <dir>`` runs the offline integrity scan instead
(per-file checksum + decode verdicts, WAL and WAL-archive verdicts; exit
status 1 if anything is bad — including archived segments a restore
would need but cannot reach).

``python -m repro backup <dir> <dest>`` takes a consistent, checksummed
backup (base image + covered WAL prefix) into ``dest``.

``python -m repro restore <backup> <dest> [--to-lsn N | --to-txn T |
--latest] [--archive DIR]`` restores a backup, replaying archived WAL up
to the requested commit boundary (``--latest`` is the default).

``python -m repro serve <dir> [--host H] [--port N]`` hosts the database
on a local socket: one session per connection, JSON-lines protocol,
snapshot reads concurrent with serialized writers (see repro.server).

A small REPL over :class:`repro.Database` with psql-style meta-commands:

    \\tables              list tables
    \\schema <table>      show a table's columns and storage
    \\sizes <table>       storage accounting (compression ratios)
    \\mode batch|row|auto force an execution mode
    \\explain <query>     show the optimized plan
    \\analyze <query>     execute and show per-operator runtime stats
    \\stats on|off        append runtime stats to every query result
    \\timing on|off       print per-statement wall-clock time
    \\save <dir>          persist the database (checkpoints the WAL)
    \\open <dir>          open a database with a write-ahead log
    \\check <dir>         verify a saved database (checksums, WAL, decode)
    \\backup <dir>        hot-backup the open database into <dir>
    \\wal                 show write-ahead log + archive status
    \\durability <mode>   per-commit | group | off
    \\mover <table>       run the tuple mover
    \\rebuild <table>     rebuild the columnstore
    \\q                   quit

``--durability <mode>`` on the command line sets the WAL mode the opened
database uses. Statements end with ``;`` and may span lines.
"""

from __future__ import annotations

import sys
import time
from typing import Any

from .db.database import Database, Result
from .errors import ReproError

_MAX_ROWS_SHOWN = 40


def format_result(result: Result, max_rows: int = _MAX_ROWS_SHOWN) -> str:
    """Render a query result as an aligned text table."""
    headers = result.columns
    shown = result.rows[:max_rows]
    cells = [[_format_value(v) for v in row] for row in shown]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows)} rows total, first {max_rows} shown)")
    else:
        lines.append(f"({len(result.rows)} row{'s' if len(result.rows) != 1 else ''})")
    return "\n".join(lines)


def _format_value(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


class Shell:
    """The REPL state machine (I/O-free core, testable directly)."""

    def __init__(
        self,
        db: Database | None = None,
        stats: bool = False,
        durability: str | None = None,
    ) -> None:
        self.db = db or Database()
        self.mode = "auto"
        self.timing = False
        self.stats = stats
        self.durability = durability  # WAL mode for \open, None = default
        self.running = True
        self._buffer: list[str] = []

    # ------------------------------------------------------------------ #
    # Line handling
    # ------------------------------------------------------------------ #
    def feed_line(self, line: str) -> list[str]:
        """Process one input line; returns output lines to print."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            return self.run_meta(stripped)
        if not stripped and not self._buffer:
            return []
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            return self.run_sql(statement)
        return []

    @property
    def prompt(self) -> str:
        if self._buffer:
            return "   ...> "
        # The `*` marks an open transaction (psql's convention): work is
        # applied but not yet committed.
        return "repro*=> " if self.db.in_transaction else "repro=> "

    # ------------------------------------------------------------------ #
    # SQL statements
    # ------------------------------------------------------------------ #
    def run_sql(self, statement: str) -> list[str]:
        start = time.perf_counter()
        try:
            result = self.db.sql(statement, mode=self.mode, stats=self.stats)
        except ReproError as exc:
            return [f"error: {exc}"]
        elapsed = (time.perf_counter() - start) * 1000
        out: list[str] = []
        if result is None:
            out.append("ok")
        else:
            out.append(format_result(result))
            if result.stats is not None:
                out.extend(result.stats.render().split("\n"))
        if self.timing:
            out.append(f"time: {elapsed:.1f} ms ({self.mode} mode)")
        return out

    # ------------------------------------------------------------------ #
    # Meta commands
    # ------------------------------------------------------------------ #
    def run_meta(self, command: str) -> list[str]:
        parts = command.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        handler = {
            "\\q": self._meta_quit,
            "\\quit": self._meta_quit,
            "\\tables": self._meta_tables,
            "\\schema": self._meta_schema,
            "\\sizes": self._meta_sizes,
            "\\mode": self._meta_mode,
            "\\stats": self._meta_stats,
            "\\timing": self._meta_timing,
            "\\explain": self._meta_explain,
            "\\analyze": self._meta_analyze,
            "\\save": self._meta_save,
            "\\open": self._meta_open,
            "\\check": self._meta_check,
            "\\backup": self._meta_backup,
            "\\wal": self._meta_wal,
            "\\durability": self._meta_durability,
            "\\mover": self._meta_mover,
            "\\rebuild": self._meta_rebuild,
            "\\help": self._meta_help,
        }.get(name)
        if handler is None:
            return [f"unknown command {name} (try \\help)"]
        try:
            return handler(arg)
        except ReproError as exc:
            return [f"error: {exc}"]

    def _meta_quit(self, arg: str) -> list[str]:
        self.running = False
        return ["bye"]

    def _meta_tables(self, arg: str) -> list[str]:
        names = self.db.catalog.table_names()
        if not names:
            return ["(no tables)"]
        out = []
        for name in names:
            table = self.db.table(name)
            out.append(
                f"{name}  [{table.storage_kind.value}]  {table.row_count:,} rows"
            )
        return out

    def _meta_schema(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\schema <table>"]
        table = self.db.table(arg)
        out = [f"{table.name} ({table.storage_kind.value}):"]
        for col in table.schema:
            out.append(f"  {col}")
        for index_name, index in table.indexes.items():
            out.append(f"  index {index_name} on ({', '.join(index.columns)})")
        return out

    def _meta_sizes(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\sizes <table>"]
        table = self.db.table(arg)
        report = table.size_report()
        out = [f"{table.name}: {table.row_count:,} live rows"]
        if "columnstore_bytes" in report:
            ratio = report["columnstore_raw_bytes"] / max(1, report["columnstore_bytes"])
            out.append(
                f"  columnstore: {report['columnstore_bytes']:,} bytes "
                f"(raw {report['columnstore_raw_bytes']:,}, {ratio:.1f}x)"
            )
            index = table.columnstore
            out.append(
                f"  row groups: {len(index.directory)}, delta rows: "
                f"{index.delta_rows:,}, deleted marks: "
                f"{index.delete_bitmap.total_deleted:,}"
            )
        if "rowstore_used_bytes" in report:
            out.append(
                f"  rowstore: {report['rowstore_used_bytes']:,} bytes used "
                f"(PAGE-compressed est. {report['rowstore_page_compressed_bytes']:,})"
            )
        return out

    def _meta_mode(self, arg: str) -> list[str]:
        if arg not in ("batch", "row", "auto"):
            return [f"current mode: {self.mode} (usage: \\mode batch|row|auto)"]
        self.mode = arg
        return [f"execution mode set to {arg}"]

    def _meta_stats(self, arg: str) -> list[str]:
        if arg == "on":
            self.stats = True
        elif arg == "off":
            self.stats = False
        else:
            from .observability import registry as metrics

            registry = metrics.get_registry()
            out = [f"stats is {'on' if self.stats else 'off'}"]
            out.append(
                "transactions: "
                f"{registry.counter('txn.begins'):.0f} begun, "
                f"{registry.counter('txn.commits'):.0f} committed, "
                f"{registry.counter('txn.rollbacks'):.0f} rolled back, "
                f"{registry.counter('txn.statement_rollbacks'):.0f} "
                "statement rollbacks"
            )
            out.append(
                "governance: "
                f"{registry.counter('governance.statements_timed_out'):.0f} "
                "timed out, "
                f"{registry.counter('governance.statements_cancelled'):.0f} "
                "cancelled, "
                f"{registry.counter('governance.statements_killed'):.0f} killed, "
                f"{registry.counter('governance.statements_shed'):.0f} shed"
            )
            out.append(
                "memory: "
                f"{registry.counter('governance.spills_forced'):.0f} "
                "spills forced, "
                f"{registry.counter('governance.budget_rejections'):.0f} "
                "budget rejections"
            )
            oldest = registry.gauge("mvcc.oldest_active_epoch")
            out.append(
                "mvcc: "
                f"{registry.counter('mvcc.versions_installed'):.0f} "
                "versions installed, "
                f"{registry.counter('mvcc.versions_gced'):.0f} gced, "
                f"{registry.counter('mvcc.lockfree_reads'):.0f} lock-free reads, "
                f"{registry.counter('mvcc.reader_pins'):.0f} reader pins, "
                "oldest active epoch "
                f"{oldest if oldest is not None else 0:.0f}"
            )
            out.append(
                "snapshots: "
                f"{registry.counter('storage.snapshot.files_written'):.0f} "
                "files written "
                f"({registry.counter('storage.snapshot.bytes_written'):.0f} bytes), "
                f"{registry.counter('storage.snapshot.files_reused'):.0f} "
                "segment blobs reused, "
                f"{registry.counter('storage.snapshot.bytes_checksummed'):.0f} "
                "bytes checksummed, "
                f"{registry.counter('storage.snapshot.saves_skipped'):.0f} "
                "saves skipped"
            )
            shapes = [f"{registry.counter(f'sql.shapes.{name}'):.0f}" for name in (
                "hits", "misses", "evicted", "not_kept.join", "not_kept.subquery",
                "not_kept.statement")]
            out.append("statement shapes: {} hits, {} misses, {} evicted; not kept: {} join, "
                       "{} subquery, {} statement".format(*shapes))
            from .governance import get_query_registry

            running = get_query_registry().list_running()
            if running:
                out.append(f"running queries: {len(running)} (SHOW QUERIES for detail)")
            if self.db.in_transaction:
                out.append("a transaction is open (COMMIT or ROLLBACK to end it)")
            return out
        return [f"stats {'on' if self.stats else 'off'}"]

    def _meta_timing(self, arg: str) -> list[str]:
        if arg == "on":
            self.timing = True
        elif arg == "off":
            self.timing = False
        else:
            return [f"timing is {'on' if self.timing else 'off'}"]
        return [f"timing {'on' if self.timing else 'off'}"]

    def _meta_explain(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\explain <select statement>"]
        return self.db.explain(arg.rstrip(";"), mode=self.mode).split("\n")

    def _meta_analyze(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\analyze <select statement>"]
        return self.db.explain_analyze(arg.rstrip(";"), mode=self.mode).split("\n")

    def _meta_save(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\save <directory>"]
        self.db.save(arg)
        return [f"saved to {arg}"]

    def _meta_open(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\open <directory>"]
        self.db.close()
        self.db = Database.open(arg, durability=self.durability or "group")
        out = [f"opened {arg} ({len(self.db.catalog.table_names())} tables)"]
        if self.db.wal is not None:
            status = self.db.wal.status()
            out.append(
                f"wal: durability={status['durability']}, "
                f"last LSN {status['last_lsn']}"
            )
        return out

    def _meta_check(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\check <directory>"]
        return Database.check(arg).render()

    def _meta_backup(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\backup <directory>"]
        if self.db.wal is None:
            return ["no write-ahead log attached (use \\open <dir>)"]
        result = self.db.backup(arg)
        return [
            f"backup of {result.files} files ({result.bytes:,} bytes) "
            f"committed to {result.dest}",
            f"cut at LSN {result.backup_lsn} (epoch {result.epoch}, "
            f"checkpoint LSN {result.checkpoint_lsn}, "
            f"{result.wal_records} WAL records)",
        ]

    def _meta_wal(self, arg: str) -> list[str]:
        if self.db.wal is None:
            return ["no write-ahead log attached (use \\open <dir>)"]
        status = self.db.wal.status()
        out = [
            f"durability: {status['durability']} "
            f"(group size {status['group_commit_size']})",
            f"last LSN: {status['last_lsn']} "
            f"(durable through {status['durable_lsn']}, "
            f"{status['pending_commits']} commits pending)",
            f"segments: {status['segments']} ({status['bytes']:,} bytes)",
        ]
        archive = status.get("archive")
        if archive is not None:
            out.append(
                f"archive: {archive['archived_segments']} segments archived "
                f"(last archived LSN {archive['last_archived_lsn']}), "
                f"{archive['pending_segments']} live segments pending, "
                f"{archive['registered_backups']} backups registered"
            )
        return out

    def _meta_durability(self, arg: str) -> list[str]:
        if self.db.wal is None:
            return ["no write-ahead log attached (use \\open <dir>)"]
        if not arg:
            return [f"durability is {self.db.wal.durability}"]
        try:
            self.db.set_durability(arg)
        except ValueError as exc:
            return [f"error: {exc}"]
        return [f"durability set to {self.db.wal.durability}"]

    def _meta_mover(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\mover <table>"]
        report = self.db.run_tuple_mover(arg, include_open=True)
        return [
            f"moved {report.rows_moved:,} rows from "
            f"{report.delta_stores_compressed} delta stores into "
            f"{report.row_groups_created} row groups"
        ]

    def _meta_rebuild(self, arg: str) -> list[str]:
        if not arg:
            return ["usage: \\rebuild <table>"]
        self.db.rebuild(arg)
        return [f"rebuilt {arg}"]

    def _meta_help(self, arg: str) -> list[str]:
        return [line.strip() for line in (__doc__ or "").split("\n") if "\\" in line]


def main(argv: list[str] | None = None) -> int:
    args = list(argv) if argv is not None else sys.argv[1:]
    stats = "--stats" in args
    args = [a for a in args if a != "--stats"]
    durability = None
    if "--durability" in args:
        at = args.index("--durability")
        if at + 1 >= len(args):
            print("usage: python -m repro [--durability per-commit|group|off] [dir]")
            return 2
        durability = args[at + 1]
        del args[at : at + 2]
    if args and args[0] == "serve":
        # `repro serve <dir> [--port N] [--host H] [--max-connections N]
        # [--max-statements N] [--idle-timeout S]`: host the database
        # on a local socket — one session per connection, JSON lines
        # (see repro.server). Blocks until Ctrl-C, then drains.
        usage = (
            "usage: python -m repro serve <directory> [--host H] [--port N] "
            "[--max-connections N] [--max-statements N] [--idle-timeout S]"
        )
        rest = args[1:]
        host = None
        numeric = {
            "--port": 0,
            "--max-connections": None,
            "--max-statements": None,
            "--idle-timeout": None,
        }
        if "--host" in rest:
            at = rest.index("--host")
            if at + 1 >= len(rest):
                print(usage)
                return 2
            host = rest[at + 1]
            del rest[at : at + 2]
        for flag in list(numeric):
            if flag not in rest:
                continue
            at = rest.index(flag)
            if at + 1 >= len(rest):
                print(usage)
                return 2
            parse = float if flag == "--idle-timeout" else int
            try:
                numeric[flag] = parse(rest[at + 1])
            except ValueError:
                print(f"invalid {flag} value {rest[at + 1]!r}")
                return 2
            del rest[at : at + 2]
        if len(rest) != 1:
            print(usage)
            return 2
        from .server import DEFAULT_HOST, serve
        from .server.server import DEFAULT_MAX_CONNECTIONS, DEFAULT_MAX_STATEMENTS

        try:
            return serve(
                rest[0],
                host=host or DEFAULT_HOST,
                port=numeric["--port"],
                max_connections=numeric["--max-connections"]
                or DEFAULT_MAX_CONNECTIONS,
                max_statements=numeric["--max-statements"] or DEFAULT_MAX_STATEMENTS,
                idle_timeout=numeric["--idle-timeout"],
                durability=durability or "group",
            )
        except (ReproError, OSError) as exc:
            print(f"serve failed: {exc}")
            return 1
    if args and args[0] == "check":
        # `repro check <dir>`: offline integrity scan. Exit 0 only when
        # the report is clean — corruption, a missing directory, or a
        # scan that itself blows up must all fail the invocation, so CI
        # and scripts can gate on the status code.
        if len(args) < 2:
            print("usage: python -m repro check <directory>")
            return 2
        try:
            report = Database.check(args[1])
        except (ReproError, OSError) as exc:
            print(f"check failed: {exc}")
            return 1
        print("\n".join(report.render()))
        return 0 if report.ok else 1
    if args and args[0] == "backup":
        # `repro backup <dir> <dest>`: open the database (replaying its
        # WAL) and take a verified hot backup. Exit 0 only when the
        # backup committed and passed read-back verification.
        if len(args) != 3:
            print("usage: python -m repro backup <directory> <dest>")
            return 2
        try:
            db = Database.load(args[1], durability=durability)
            try:
                result = db.backup(args[2])
            finally:
                db.close()
        except (ReproError, OSError) as exc:
            print(f"backup failed: {exc}")
            return 1
        print(
            f"backup of {result.files} files ({result.bytes:,} bytes) "
            f"committed to {result.dest}"
        )
        print(
            f"cut at LSN {result.backup_lsn} (epoch {result.epoch}, "
            f"checkpoint LSN {result.checkpoint_lsn}, "
            f"{result.wal_records} WAL records)"
        )
        return 0
    if args and args[0] == "restore":
        # `repro restore <backup> <dest> [--to-lsn N | --to-txn T |
        # --latest] [--archive DIR]`: point-in-time restore. A target
        # the available history cannot reach (mid-transaction LSN, or
        # past what the archive holds) exits nonzero with the nearest
        # valid boundaries named.
        usage = (
            "usage: python -m repro restore <backup> <dest> "
            "[--to-lsn N | --to-txn T | --latest] [--archive DIR]"
        )
        rest = args[1:]
        to_lsn = to_txn = None
        archive_dir = None
        for flag in ("--to-lsn", "--to-txn", "--archive"):
            if flag not in rest:
                continue
            at = rest.index(flag)
            if at + 1 >= len(rest):
                print(usage)
                return 2
            value = rest[at + 1]
            if flag == "--archive":
                archive_dir = value
            else:
                try:
                    parsed = int(value)
                except ValueError:
                    print(f"invalid {flag} value {value!r}")
                    return 2
                if flag == "--to-lsn":
                    to_lsn = parsed
                else:
                    to_txn = parsed
            del rest[at : at + 2]
        rest = [a for a in rest if a != "--latest"]
        if len(rest) != 2:
            print(usage)
            return 2
        from .backup.restore import restore_backup

        try:
            result = restore_backup(
                rest[0], rest[1], to_lsn=to_lsn, to_txn=to_txn, archive=archive_dir
            )
        except (ReproError, OSError) as exc:
            print(f"restore failed: {exc}")
            return 1
        print(
            f"restored {rest[0]} to {result.dest} at LSN {result.target_lsn} "
            f"({result.records} WAL records laid down for replay)"
        )
        report = Database.check(result.dest)
        print("\n".join(report.render()))
        return 0 if report.ok else 1
    shell = Shell(stats=stats, durability=durability)
    if args:
        # Opening the named database must succeed or the invocation
        # fails — silently continuing with an empty in-memory database
        # (and exit 0) would let scripts write into the void.
        try:
            print("\n".join(shell.run_meta(f"\\open {args[0]}")))
        except ReproError as exc:
            print(f"error: {exc}")
            return 1
        if shell.db.wal is None:
            return 1
    print("repro SQL shell — \\help for commands, \\q to quit")
    while shell.running:
        try:
            line = input(shell.prompt)
        except (EOFError, KeyboardInterrupt):
            print()
            break
        for out in shell.feed_line(line):
            print(out)
    shell.db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - interactive entry
    raise SystemExit(main())
