"""Engine provenance in the campaign store, and the v1 -> v2 migration."""

import json
import sqlite3

import pytest

from repro.campaign.spec import (
    JobSpec,
    execute_job,
    execute_job_batch,
    jobs_batchable,
)
from repro.campaign.store import STORE_SCHEMA_VERSION, ResultStore
from repro.engine.api import KERNEL_VERSION, OO_KERNEL_VERSION
from repro.errors import ConfigError

# The jobs DDL exactly as schema v1 wrote it: no engine columns.
_V1_TABLES = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE jobs (
    job_id      TEXT PRIMARY KEY,
    eid         TEXT NOT NULL,
    point_index INTEGER NOT NULL,
    replicate   INTEGER NOT NULL DEFAULT 0,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    attempts    INTEGER NOT NULL DEFAULT 0,
    worker      TEXT,
    started_at  TEXT,
    finished_at TEXT,
    wall_s      REAL,
    error       TEXT,
    payload     TEXT
);
CREATE INDEX idx_jobs_status ON jobs(status);
CREATE INDEX idx_jobs_eid ON jobs(eid, replicate, point_index);
"""


def _spec(index=0, replicate=0):
    return JobSpec(
        eid="demo-noc", point_index=index, point=[index], quick=True,
        seed=1, replicate=replicate,
    )


def _write_v1_db(path, specs):
    """A database exactly as a v1 repro would have left it."""
    conn = sqlite3.connect(str(path))
    conn.executescript(_V1_TABLES)
    conn.execute(
        "INSERT INTO meta(key, value) VALUES('store_schema', '1')"
    )
    for i, spec in enumerate(specs):
        status = "done" if i == 0 else "pending"
        payload = (
            json.dumps({"record": ["old", 1.0]}, sort_keys=True)
            if i == 0
            else None
        )
        conn.execute(
            "INSERT INTO jobs(job_id, eid, point_index, replicate, spec, "
            "status, attempts, payload) VALUES(?, ?, ?, ?, ?, ?, ?, ?)",
            (
                spec.job_id, spec.eid, spec.point_index, spec.replicate,
                spec.to_json(), status, 1 if i == 0 else 0, payload,
            ),
        )
    conn.commit()
    conn.close()


class TestMigration:
    def test_v1_database_upgrades_in_place(self, tmp_path):
        db = tmp_path / "old.db"
        specs = [_spec(0), _spec(1)]
        _write_v1_db(db, specs)

        with ResultStore(db) as store:
            assert store.get_meta("store_schema") == str(STORE_SCHEMA_VERSION)
            # The old done row is fully readable; its engine provenance is
            # honestly unrecorded, not guessed.
            done = store.get_job(specs[0].job_id)
            assert done.status == "done"
            assert done.record() == ["old", 1.0]
            assert done.engine is None
            assert done.kernel_version is None
            # New work in the migrated store records provenance normally.
            store.mark_running(specs[1].job_id, "w0")
            store.mark_done(
                specs[1].job_id,
                {"record": [1], "_provenance": {
                    "engine": "batched", "kernel_version": KERNEL_VERSION}},
                0.5,
            )
            fresh = store.get_job(specs[1].job_id)
            assert fresh.engine == "batched"
            assert fresh.kernel_version == KERNEL_VERSION

    def test_migration_is_idempotent(self, tmp_path):
        db = tmp_path / "old.db"
        _write_v1_db(db, [_spec(0)])
        ResultStore(db).close()
        with ResultStore(db) as store:  # second open: already migrated
            assert store.get_meta("store_schema") == str(STORE_SCHEMA_VERSION)

    def test_unknown_old_schema_refused(self, tmp_path):
        db = tmp_path / "ancient.db"
        _write_v1_db(db, [_spec(0)])
        conn = sqlite3.connect(str(db))
        conn.execute("UPDATE meta SET value = '0' WHERE key = 'store_schema'")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigError, match="schema"):
            ResultStore(db)


class TestProvenanceLifting:
    def _done_row(self, payload):
        spec = _spec()
        with ResultStore(":memory:") as store:
            store.add_jobs([spec])
            store.mark_running(spec.job_id, "w0")
            store.mark_done(spec.job_id, payload, 0.1)
            return store.get_job(spec.job_id)

    def test_provenance_lifted_out_of_payload(self):
        row = self._done_row({
            "record": [1, 2],
            "_provenance": {"engine": "oo", "kernel_version": OO_KERNEL_VERSION},
        })
        assert row.engine == "oo"
        assert row.kernel_version == OO_KERNEL_VERSION
        # The canonical payload text never contains the provenance key:
        # rows stay byte-identical whichever engine computed them.
        assert row.payload == json.dumps({"record": [1, 2]}, sort_keys=True)

    def test_payload_without_provenance(self):
        row = self._done_row({"record": [3]})
        assert row.engine is None and row.kernel_version is None
        assert row.record() == [3]


class TestExecuteJobEngine:
    def test_legacy_experiment_has_no_provenance(self):
        payload = execute_job(
            JobSpec(eid="demo", point_index=0, point=[0], quick=True,
                    seed=1).to_dict()
        )
        assert "_provenance" not in payload

    def test_jobs_batchable_gates(self):
        specs = [_spec(0), _spec(1)]
        ok, reason = jobs_batchable([s.to_dict() for s in specs])
        assert ok, reason
        ok, reason = jobs_batchable([specs[0].to_dict()])
        assert not ok
        demo = JobSpec(eid="demo", point_index=0, point=[0], quick=True, seed=1)
        ok, reason = jobs_batchable([demo.to_dict(), demo.to_dict()])
        assert not ok

    def test_batch_members_byte_identical_to_singles(self):
        specs = [_spec(0), _spec(1), _spec(0, replicate=1)]
        outcome = execute_job_batch([s.to_dict() for s in specs])
        by_id = {m["job_id"]: m["payload"] for m in outcome["_batch"]}
        assert set(by_id) == {s.job_id for s in specs}
        for spec in specs:
            single = execute_job(spec.to_dict())
            batch_payload = by_id[spec.job_id]
            assert batch_payload["_provenance"]["engine"] == "batched"
            strip = {
                k: v for k, v in batch_payload.items() if k != "_provenance"
            }
            single.pop("_provenance", None)
            assert json.dumps(strip, sort_keys=True) == json.dumps(
                single, sort_keys=True
            )

    def test_batch_dispatch_through_execute_job(self):
        specs = [_spec(0), _spec(1)]
        via_wrapper = execute_job(
            {"_batch_members": [s.to_dict() for s in specs]}
        )
        assert len(via_wrapper["_batch"]) == 2
