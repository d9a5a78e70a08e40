"""Single-file campaign store on sqlite with write-ahead logging.

One writer at a time, any number of readers. Every mutation is one
transaction, so a crash at any instant leaves the file readable with the
last transaction either fully present or fully absent. Stages are
append-only: adding one never rewrites existing rows.

The store enforces the run lifecycle (`ALLOWED_TRANSITIONS`) and counts
attempts on the retry edge, but holds no recovery policy: deciding what
an interrupted run becomes is `Campaign.recover`'s job.
"""

from __future__ import annotations

import datetime as _dt
import json
import sqlite3
from contextlib import contextmanager
from pathlib import Path

from uqpilot.campaign.config import (
    AppSpec,
    CampaignConfig,
    ParameterDef,
    SCHEMA_VERSION,
)
from uqpilot.errors import DecodeError, StoreCorrupt, StoreLocked, StoreMissing

DB_FILENAME = "campaign.db"
SQLITE_HEADER = b"SQLite format 3\x00"   # the first 16 bytes of every SQLite database
BUSY_TIMEOUT_SECONDS = 30.0   # how long a write waits for another writer's lock

STATUSES = ("NEW", "ENCODED", "SUBMITTED", "COMPLETED", "FAILED", "COLLATED")

# run-status lifecycle; FAILED -> ENCODED is the retry edge
ALLOWED_TRANSITIONS = {
    "NEW": {"ENCODED"},
    "ENCODED": {"SUBMITTED"},
    "SUBMITTED": {"COMPLETED", "FAILED"},
    "COMPLETED": {"COLLATED"},
    "FAILED": {"ENCODED"},
    "COLLATED": set(),
}

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE parameters (
    position  INTEGER PRIMARY KEY,
    name      TEXT NOT NULL UNIQUE,
    kind      TEXT NOT NULL,
    dflt      TEXT NOT NULL,
    dist_json TEXT NOT NULL
);
CREATE TABLE app (
    id       INTEGER PRIMARY KEY CHECK (id = 1),
    app_json TEXT NOT NULL
);
CREATE TABLE stages (
    stage_id      INTEGER PRIMARY KEY,
    sampler_json  TEXT NOT NULL,
    rng_algorithm TEXT,
    seed          INTEGER,
    n_runs        INTEGER NOT NULL,
    created_at    TEXT NOT NULL
);
CREATE TABLE runs (
    run_id      INTEGER PRIMARY KEY,
    stage_id    INTEGER NOT NULL REFERENCES stages(stage_id),
    params_json TEXT NOT NULL,
    weight      REAL,
    status      TEXT NOT NULL,
    run_dir     TEXT,
    attempts    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE qoi_index (
    qoi        TEXT PRIMARY KEY,
    index_json TEXT
);
CREATE TABLE qoi_values (
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    qoi         TEXT NOT NULL,
    values_json TEXT NOT NULL,
    PRIMARY KEY (run_id, qoi)
);
CREATE TABLE run_scores (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    scorer TEXT NOT NULL,
    score  REAL NOT NULL,
    PRIMARY KEY (run_id, scorer)
);
"""


class IllegalTransition(StoreCorrupt):
    """Attempted run-status change outside the lifecycle graph."""


class CampaignStore:
    """Single-writer store on one connection, used by one thread at a time
    (not necessarily the one that opened it)."""

    def __init__(self, path: str | Path, conn: sqlite3.Connection):
        self.path = Path(path)
        self._conn = conn

    @contextmanager
    def _txn(self):
        """One transaction; a database error in it or at its commit rolls it
        back and ends as `StoreLocked` (another writer's lock) or `StoreCorrupt`."""
        try:
            with self._conn:
                yield self._conn
        except (sqlite3.ProgrammingError, sqlite3.InterfaceError):
            raise   # a misuse of the sqlite API: a fault of the code, not the store
        except sqlite3.Error as exc:
            if isinstance(exc, sqlite3.OperationalError) and "locked" in str(exc):
                raise StoreLocked(f"{self.path}: {exc} by another writer") from exc
            raise StoreCorrupt(f"{self.path}: {exc}") from exc

    # --- lifecycle --------------------------------------------------

    @classmethod
    def create(cls, workdir: str | Path, config: CampaignConfig) -> "CampaignStore":
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / DB_FILENAME
        if path.exists():
            raise StoreCorrupt(f"store already exists: {path}")
        conn = cls._connect(path)
        with conn:
            conn.executescript(_SCHEMA)
            now = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
            conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [
                    ("name", config.name),
                    ("created_at", now),
                    ("schema_version", str(SCHEMA_VERSION)),
                ],
            )
            conn.execute(
                "INSERT INTO app (id, app_json) VALUES (1, ?)",
                (json.dumps(config.app.to_json()),),
            )
            conn.executemany(
                "INSERT INTO parameters (position, name, kind, dflt, dist_json)"
                " VALUES (?, ?, ?, ?, ?)",
                [
                    (i, p.name, p.kind, json.dumps(p.default),
                     json.dumps(p.distribution.to_json()))
                    for i, p in enumerate(config.parameters)
                ],
            )
        return cls(path, conn)

    @classmethod
    def open(cls, workdir_or_db: str | Path) -> "CampaignStore":
        """The store at a workdir or a database file. A file that is not an
        SQLite database is no store (`StoreMissing`), unless it is a
        workdir's `campaign.db` (`StoreCorrupt`); either is left untouched."""
        path = Path(workdir_or_db)
        in_workdir = path.is_dir()
        if in_workdir:
            path = path / DB_FILENAME
        try:
            with open(path, "rb") as fh:   # before any pragma, which would write to it
                header = fh.read(len(SQLITE_HEADER))
        except FileNotFoundError:
            raise StoreMissing(f"no campaign store at {path}") from None
        except OSError as exc:   # a directory, or a path through a regular file
            raise StoreMissing(f"no campaign store at {path}: {exc.strerror}") from None
        if header != SQLITE_HEADER and in_workdir:
            raise StoreCorrupt(f"{path}: not an SQLite database")
        if header != SQLITE_HEADER:
            raise StoreMissing(f"no campaign store at {path}: not an SQLite database")
        conn = cls._connect(path)
        store = cls(path, conn)
        store.check_integrity()
        return store

    @staticmethod
    def _connect(path: Path) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(str(path), timeout=BUSY_TIMEOUT_SECONDS,
                                   check_same_thread=False)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA foreign_keys=ON")
        except sqlite3.DatabaseError as exc:
            raise StoreCorrupt(f"{path}: cannot open as a database ({exc})") from exc
        return conn

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # --- integrity ---------------------------------------------------

    def check_integrity(self):
        """Load-time invariants; raises StoreCorrupt on any violation."""
        try:
            tables = {
                r["name"]
                for r in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        except sqlite3.DatabaseError as exc:
            raise StoreCorrupt(f"{self.path}: not a database ({exc})") from exc
        needed = {"meta", "parameters", "app", "stages", "runs", "qoi_values"}
        if not needed <= tables:
            raise StoreCorrupt(f"{self.path}: missing tables {sorted(needed - tables)}")
        bad = self._conn.execute(
            "SELECT run_id, status FROM runs WHERE status NOT IN"
            f" ({', '.join('?' * len(STATUSES))})", STATUSES,
        ).fetchone()
        if bad:
            raise StoreCorrupt(f"run {bad['run_id']} has unknown status {bad['status']!r}")
        orphan = self._conn.execute(
            "SELECT run_id FROM runs WHERE stage_id NOT IN (SELECT stage_id FROM stages)"
        ).fetchone()
        if orphan:
            raise StoreCorrupt(f"run {orphan['run_id']} references a missing stage")
        dangling = self._conn.execute(
            "SELECT q.run_id FROM qoi_values q JOIN runs r ON q.run_id = r.run_id"
            " WHERE r.status != 'COLLATED'"
        ).fetchone()
        if dangling:
            raise StoreCorrupt(f"qoi rows exist for non-collated run {dangling['run_id']}")

    # --- configuration readback --------------------------------------

    def meta(self, key: str) -> str:
        row = self._conn.execute("SELECT value FROM meta WHERE key=?", (key,)).fetchone()
        if row is None:
            raise StoreCorrupt(f"meta key {key!r} missing")
        return row["value"]

    def app_spec(self) -> AppSpec:
        row = self._conn.execute("SELECT app_json FROM app WHERE id=1").fetchone()
        if row is None:
            raise StoreCorrupt("app row missing")
        return AppSpec.from_json(json.loads(row["app_json"]))

    def parameters(self) -> list[ParameterDef]:
        rows = self._conn.execute(
            "SELECT name, kind, dflt, dist_json FROM parameters ORDER BY position"
        ).fetchall()
        return [
            ParameterDef.from_json(
                {
                    "name": r["name"],
                    "kind": r["kind"],
                    "default": json.loads(r["dflt"]),
                    "distribution": json.loads(r["dist_json"]),
                }
            )
            for r in rows
        ]

    # --- stages and runs ----------------------------------------------

    def add_stage(
        self,
        sampler_json: dict,
        param_sets: list[dict],
        weights: list[float] | None,
        rng_algorithm: str | None = None,
        seed: int | None = None,
    ) -> int:
        """Append a stage and its runs in one transaction."""
        now = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
        with self._txn():
            cur = self._conn.execute(
                "INSERT INTO stages (sampler_json, rng_algorithm, seed, n_runs, created_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (json.dumps(sampler_json), rng_algorithm, seed, len(param_sets), now),
            )
            stage_id = cur.lastrowid
            next_id = self._conn.execute(
                "SELECT COALESCE(MAX(run_id), 0) + 1 FROM runs"
            ).fetchone()[0]
            self._conn.executemany(
                "INSERT INTO runs (run_id, stage_id, params_json, weight, status, attempts)"
                " VALUES (?, ?, ?, ?, 'NEW', 0)",
                [
                    (next_id + i, stage_id, json.dumps(ps),
                     None if weights is None else weights[i])
                    for i, ps in enumerate(param_sets)
                ],
            )
        return stage_id

    def stages(self) -> list[sqlite3.Row]:
        return self._conn.execute("SELECT * FROM stages ORDER BY stage_id").fetchall()

    def stage(self, stage_id: int) -> sqlite3.Row:
        row = self._conn.execute(
            "SELECT * FROM stages WHERE stage_id=?", (stage_id,)
        ).fetchone()
        if row is None:
            raise StoreCorrupt(f"no stage {stage_id}")
        return row

    def latest_stage_id(self) -> int | None:
        row = self._conn.execute("SELECT MAX(stage_id) AS m FROM stages").fetchone()
        return row["m"]

    def runs(self, stage_id: int | None = None, status: str | None = None) -> list[sqlite3.Row]:
        query = "SELECT * FROM runs"
        clauses, args = [], []
        if stage_id is not None:
            clauses.append("stage_id=?")
            args.append(stage_id)
        if status is not None:
            clauses.append("status=?")
            args.append(status)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY run_id"
        return self._conn.execute(query, args).fetchall()

    def run(self, run_id: int) -> sqlite3.Row:
        row = self._conn.execute("SELECT * FROM runs WHERE run_id=?", (run_id,)).fetchone()
        if row is None:
            raise StoreCorrupt(f"no run {run_id}")
        return row

    def run_params(self, row: sqlite3.Row) -> dict:
        return json.loads(row["params_json"])

    def status_counts(self, stage_id: int | None = None) -> dict[str, int]:
        query = "SELECT status, COUNT(*) AS n FROM runs"
        args: list = []
        if stage_id is not None:
            query += " WHERE stage_id=?"
            args.append(stage_id)
        query += " GROUP BY status"
        counts = {s: 0 for s in STATUSES}
        for row in self._conn.execute(query, args):
            counts[row["status"]] = row["n"]
        return counts

    def set_status(self, run_id: int, *statuses: str, run_dir: str | None = None):
        """Walk the run through one or more legal transitions, committed
        atomically."""
        with self._txn():
            for new_status in statuses:
                self._transition(run_id, new_status, run_dir)

    def _transition(self, run_id, new_status, run_dir=None):
        """Leaving FAILED for ENCODED starts a new attempt: attempts+1."""
        row = self._conn.execute(
            "SELECT status FROM runs WHERE run_id=?", (run_id,)
        ).fetchone()
        if row is None:
            raise StoreCorrupt(f"no run {run_id}")
        current = row["status"]
        if new_status not in ALLOWED_TRANSITIONS.get(current, set()):
            raise IllegalTransition(
                f"run {run_id}: illegal status transition {current} -> {new_status}"
            )
        sets = ["status=?"]
        args: list = [new_status]
        if run_dir is not None:
            sets.append("run_dir=?")
            args.append(run_dir)
        if (current, new_status) == ("FAILED", "ENCODED"):
            sets.append("attempts=attempts+1")
        args.append(run_id)
        self._conn.execute(f"UPDATE runs SET {', '.join(sets)} WHERE run_id=?", args)

    # --- qoi frame -----------------------------------------------------

    def insert_qoi(self, run_id: int, index: list[float] | None, columns: dict[str, list[float]]):
        """Record decoded vectors and collate the run, atomically.

        A SUBMITTED run (just ended, or recovered) passes COMPLETED on the way.
        Enforces the frame invariants: per-qoi vector lengths must match
        rows already present, and the index vector must be shared.
        """
        with self._txn():
            for qoi, values in columns.items():
                existing = self._conn.execute(
                    "SELECT index_json FROM qoi_index WHERE qoi=?", (qoi,)
                ).fetchone()
                if existing is None:
                    self._conn.execute(
                        "INSERT INTO qoi_index (qoi, index_json) VALUES (?, ?)",
                        (qoi, json.dumps(index)),
                    )
                else:
                    known = json.loads(existing["index_json"])
                    length = len(known) if known is not None else self._frame_length(qoi)
                    if length is not None and length != len(values):
                        raise DecodeError(
                            f"run {run_id} qoi {qoi!r}: vector length {len(values)} "
                            f"does not match frame length {length}"
                        )
                    if known is not None and index != known:
                        raise DecodeError(
                            f"run {run_id} qoi {qoi!r}: index vector differs from the frame's"
                        )
                self._conn.execute(
                    "INSERT INTO qoi_values (run_id, qoi, values_json) VALUES (?, ?, ?)",
                    (run_id, qoi, json.dumps(values)),
                )
            if self.run(run_id)["status"] == "SUBMITTED":
                self._transition(run_id, "COMPLETED")
            self._transition(run_id, "COLLATED")

    def _frame_length(self, qoi: str) -> int | None:
        row = self._conn.execute(
            "SELECT values_json FROM qoi_values WHERE qoi=? LIMIT 1", (qoi,)
        ).fetchone()
        return None if row is None else len(json.loads(row["values_json"]))

    def qoi_names(self) -> list[str]:
        return [r["qoi"] for r in self._conn.execute("SELECT qoi FROM qoi_index ORDER BY qoi")]

    def load_frame(self, qoi: str, stage_id: int | None = None):
        """Collated vectors for one QoI: (index, [(run_id, values), ...])."""
        row = self._conn.execute(
            "SELECT index_json FROM qoi_index WHERE qoi=?", (qoi,)
        ).fetchone()
        if row is None:
            return None, []
        index = json.loads(row["index_json"])
        query = (
            "SELECT q.run_id AS run_id, q.values_json AS v FROM qoi_values q"
            " JOIN runs r ON q.run_id = r.run_id WHERE q.qoi=?"
        )
        args: list = [qoi]
        if stage_id is not None:
            query += " AND r.stage_id=?"
            args.append(stage_id)
        query += " ORDER BY q.run_id"
        rows = [(r["run_id"], json.loads(r["v"])) for r in self._conn.execute(query, args)]
        return index, rows

    # --- scores ---------------------------------------------------------

    def record_scores(self, scorer: str, scores: dict[int, float]):
        """Record `scores` (run id -> score) of one scorer in one transaction."""
        with self._txn():
            self._conn.executemany(
                "INSERT OR REPLACE INTO run_scores (run_id, scorer, score) VALUES (?, ?, ?)",
                [(run_id, scorer, score) for run_id, score in scores.items()],
            )
