"""Read-only transactions log nothing.

BEGIN is never logged, and a transaction that wrote nothing commits or
rolls back without a COMMIT/ABORT record, an fsync or a commit-listener
call -- but it still releases its locks and counts as committed.  A
dead instance still refuses it, and MVCC snapshots taken from the WAL
tail keep their visibility boundary.
"""

import pytest

from repro.engine.database import Database
from repro.engine.errors import (
    DuplicateKeyError,
    ShardUnavailableError,
    SimulatedCrash,
    WriteConflictError,
)
from repro.engine.txn import IsolationLevel
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import LogKind

from tests.shard.test_2pc import load_keys
from tests.shard.test_router import kv_fleet


def fresh_db():
    db = Database("ro")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10])
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 20])
    return db


class Tally:
    """Snapshot of everything a read-only transaction must leave alone."""

    def __init__(self, db, calls):
        self.db = db
        self.calls = calls
        self.lsn = db.wal.last_lsn
        self.fsyncs = db.wal.fsyncs
        self.listener_calls = len(calls)
        self.committed = db.txns.committed

    def assert_logged_nothing(self, committed=1):
        assert self.db.wal.last_lsn == self.lsn
        assert self.db.wal.fsyncs == self.fsyncs
        assert len(self.calls) == self.listener_calls
        assert self.db.txns.committed == self.committed + committed


def watched(db):
    calls = []
    db.add_commit_listener(lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("isolation", list(IsolationLevel))
class TestReadOnlyCommit:
    def test_autocommit_select(self, isolation):
        db = fresh_db()
        db.default_isolation = isolation
        tally = Tally(db, watched(db))
        assert db.query("SELECT V FROM kv WHERE K = ?", [1]).rows == [(10,)]
        tally.assert_logged_nothing()

    def test_explicit_read_only_txn(self, isolation):
        db = fresh_db()
        tally = Tally(db, watched(db))
        txn = db.begin(isolation)
        db.execute("SELECT V FROM kv WHERE K = ?", [1], txn=txn)
        db.execute("SELECT V FROM kv", txn=txn)
        if isolation is IsolationLevel.SERIALIZABLE:
            assert db.locks.locks_held(txn.txn_id)  # S locks held to commit
        txn.commit()
        tally.assert_logged_nothing()
        assert not db.locks.locks_held(txn.txn_id)


def test_read_only_rollback_appends_nothing():
    db = fresh_db()
    tally = Tally(db, watched(db))
    txn = db.begin(IsolationLevel.SERIALIZABLE)
    db.execute("SELECT V FROM kv WHERE K = ?", [1], txn=txn)
    txn.rollback()
    tally.assert_logged_nothing(committed=0)
    assert db.txns.aborted == 1
    assert not db.locks.locks_held(txn.txn_id)


def test_write_rejected_before_logging_commits_read_only():
    db = fresh_db()
    tally = Tally(db, watched(db))
    txn = db.begin()
    with pytest.raises(DuplicateKeyError):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 99], txn=txn)
    txn.commit()
    tally.assert_logged_nothing()


def test_a_write_still_logs_commit_and_fsync():
    db = fresh_db()
    calls = watched(db)
    tally = Tally(db, calls)
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1])
    kinds = [r.kind for r in db.wal.records_from(tally.lsn + 1)]
    assert kinds == [LogKind.UPDATE, LogKind.COMMIT]
    assert db.wal.fsyncs == tally.fsyncs + 1
    assert len(calls) == 1


def test_first_data_record_opens_the_undo_chain():
    db = fresh_db()
    txn = db.begin()
    db.execute("SELECT V FROM kv", txn=txn)
    assert txn.last_lsn == 0
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1], txn=txn)
    assert db.wal.record_at(txn.last_lsn).prev_lsn == 0
    txn.rollback()
    assert db.wal.record_at(db.wal.last_lsn).kind is LogKind.ABORT


class TestDeadInstance:
    def test_begin_on_killed_wal_raises(self):
        db = fresh_db()
        db.wal.kill()
        with pytest.raises(SimulatedCrash):
            db.begin()
        with pytest.raises(SimulatedCrash):
            db.query("SELECT V FROM kv WHERE K = ?", [1])

    def test_read_only_commit_on_killed_wal_raises(self):
        db = fresh_db()
        txn = db.begin()
        db.execute("SELECT V FROM kv WHERE K = ?", [1], txn=txn)
        db.wal.kill()
        with pytest.raises(SimulatedCrash):
            txn.commit()
        assert txn.is_active

    def test_fleet_read_on_killed_shard_is_unavailable(self):
        fleet = kv_fleet(3)
        by_shard = load_keys(fleet)
        fleet.shards[1].wal.kill()
        with pytest.raises(ShardUnavailableError):
            fleet.execute("SELECT V FROM kv WHERE K = ?", [by_shard[1][0]])


class TestSnapshotBoundary:
    def test_snapshot_begun_after_a_commit_sees_it(self):
        db = fresh_db()
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1])
        reader = db.begin(IsolationLevel.SNAPSHOT)
        assert db.execute(
            "SELECT V FROM kv WHERE K = ?", [1], txn=reader
        ).rows == [(11,)]
        reader.commit()

    def test_commit_after_begin_stays_invisible(self):
        """The writer's COMMIT is the very next record after the
        reader's snapshot: one LSN is the whole margin."""
        db = fresh_db()
        writer = db.begin()
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1], txn=writer)
        reader = db.begin(IsolationLevel.SNAPSHOT)
        writer.commit()
        assert db.wal.last_lsn == reader.snapshot_lsn + 1
        assert db.execute(
            "SELECT V FROM kv WHERE K = ?", [1], txn=reader
        ).rows == [(10,)]
        reader.commit()

    def test_first_updater_wins_still_fires(self):
        db = fresh_db()
        writer = db.begin(IsolationLevel.SNAPSHOT)
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1])
        with pytest.raises(WriteConflictError):
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [12, 1], txn=writer)
        assert not writer.is_active

    def test_back_to_back_snapshots_share_the_tail(self):
        """With nothing logged in between, two snapshots take the same
        LSN -- and a commit between them separates them."""
        db = fresh_db()
        first = db.begin(IsolationLevel.SNAPSHOT)
        second = db.begin(IsolationLevel.SNAPSHOT)
        assert first.snapshot_lsn == second.snapshot_lsn == db.wal.last_lsn
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1])
        third = db.begin(IsolationLevel.SNAPSHOT)
        assert third.snapshot_lsn > second.snapshot_lsn
        for txn in (first, second, third):
            txn.commit()
