"""Disk backends of the compile-time artifact cache.

One :class:`CacheStore` contract, three implementations:

* :class:`SqliteStore` -- the default: one ``store.sqlite`` file (stdlib
  ``sqlite3``), WAL journaling, a ``quarantine`` table for entries that
  failed integrity checks.
* :class:`JsonDirStore` -- one JSON file per entry under ``json/<kind>/``,
  atomic writes via ``os.replace``; the fallback when sqlite is unavailable
  or its database file cannot be opened.
* :class:`NullStore` -- the degenerate backend used when no disk location is
  writable at all: every read misses, every write is dropped.

Every entry travels in one *wire record*: the caller's JSON payload wrapped
with the cache schema version and a SHA-256 checksum of the canonical
payload encoding.  Decoding verifies both; anything that fails -- torn
write, truncated file, foreign schema, bit rot -- is quarantined and
reported as a miss.  **No public method of a store ever raises**: a broken
cache must never break the search that consulted it (searches are always
able to recompute what the cache would have replayed).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Version of the on-disk entry format.  Stamped into every wire record and
#: into every cache key; entries written under any other version are ignored
#: (and dropped on contact) instead of being interpreted.  Version 2: basis
#: records carry a ``complete`` flag, and failure records may carry the
#: structural-certificate and node-budget reasons.
SCHEMA_VERSION = 2


@dataclass
class StoreStats:
    """Operation counters of one store instance (process-local, not persisted)."""

    gets: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for JSON reports (``BENCH_scheduler.json``, CLI)."""
        return asdict(self)


@dataclass
class EntryInfo:
    """Metadata of one stored entry, as reported by :meth:`CacheStore.entries`."""

    kind: str
    key: str
    size_bytes: int
    created: float


def encode_wire(payload: Dict[str, object]) -> str:
    """Wrap ``payload`` into the versioned, checksummed wire record."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "checksum": checksum,
            "created": time.time(),
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def decode_wire(blob: str) -> Optional[Dict[str, object]]:
    """Inverse of :func:`encode_wire`; ``None`` for anything not pristine.

    Rejects non-JSON blobs, wire records of a different :data:`SCHEMA_VERSION`
    and records whose payload does not hash to the recorded checksum.
    """
    try:
        wire = json.loads(blob)
    except (ValueError, TypeError):
        return None
    if not isinstance(wire, dict) or wire.get("schema") != SCHEMA_VERSION:
        return None
    payload = wire.get("payload")
    if not isinstance(payload, dict):
        return None
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != wire.get("checksum"):
        return None
    return payload


class CacheStore:
    """Abstract disk-backed ``(kind, key) -> JSON payload`` store.

    ``kind`` namespaces artifact types (``"schedule"``,
    ``"t_invariant_basis"``); ``key`` is an opaque string the caller derives
    from content fingerprints (see :mod:`repro.cache`).  Subclasses implement
    the raw ``_read`` / ``_write`` / ``_remove`` / ``_scan`` / ``_wipe``
    primitives; this base class supplies the safe public API -- integrity
    decoding, quarantine-on-corruption, and the guarantee that no public
    method raises.
    """

    #: Short name reported by ``python -m repro.cache stats`` and the bench.
    backend_name = "abstract"

    def __init__(self) -> None:
        self.stats = StoreStats()

    # -- primitives supplied by subclasses ---------------------------------
    def _read(self, kind: str, key: str) -> Optional[str]:
        raise NotImplementedError

    def _write(self, kind: str, key: str, blob: str) -> None:
        raise NotImplementedError

    def _remove(self, kind: str, key: str) -> None:
        raise NotImplementedError

    def _move_to_quarantine(self, kind: str, key: str, reason: str) -> None:
        raise NotImplementedError

    def _scan(self) -> Iterator[EntryInfo]:
        raise NotImplementedError

    def _wipe(self) -> None:
        raise NotImplementedError

    def _quarantine_count(self) -> int:
        raise NotImplementedError

    # -- safe public API ----------------------------------------------------
    def get(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        """The stored payload, or ``None`` for a miss.

        A corrupt entry (unreadable, wrong schema, checksum mismatch) is
        moved to the quarantine area and reported as a miss.
        """
        self.stats.gets += 1
        try:
            blob = self._read(kind, key)
        except Exception:
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        if blob is None:
            self.stats.misses += 1
            return None
        payload = decode_wire(blob)
        if payload is None:
            self.quarantine(kind, key, "wire record failed schema/checksum validation")
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, kind: str, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` under ``(kind, key)``, replacing any older entry.

        Failures (unwritable directory, locked database, full disk) are
        swallowed and counted in :attr:`stats` -- the entry is simply not
        cached.
        """
        try:
            self._write(kind, key, encode_wire(payload))
            self.stats.puts += 1
        except Exception:
            self.stats.errors += 1

    def delete(self, kind: str, key: str) -> None:
        """Drop one entry (no-op when absent)."""
        try:
            self._remove(kind, key)
        except Exception:
            self.stats.errors += 1

    def quarantine(self, kind: str, key: str, reason: str) -> None:
        """Move a suspect entry out of the lookup path, keeping it for autopsy.

        Quarantined entries never match another ``get``; ``clear`` removes
        them along with everything else.
        """
        try:
            self._move_to_quarantine(kind, key, reason)
            self.stats.quarantined += 1
        except Exception:
            self.stats.errors += 1
            # last resort: make sure the bad entry stops matching lookups
            try:
                self._remove(kind, key)
            except Exception:
                pass

    def entries(self) -> List[EntryInfo]:
        """Metadata of every live (non-quarantined) entry."""
        try:
            return list(self._scan())
        except Exception:
            self.stats.errors += 1
            return []

    def quarantined_count(self) -> int:
        """Number of entries currently sitting in quarantine."""
        try:
            return self._quarantine_count()
        except Exception:
            self.stats.errors += 1
            return 0

    def clear(self) -> None:
        """Remove every entry, including the quarantine area."""
        try:
            self._wipe()
        except Exception:
            self.stats.errors += 1

    def close(self) -> None:
        """Release any held resources (connections); the store stays usable."""

    def describe(self) -> str:
        """One-line human description (backend + location)."""
        return self.backend_name


class NullStore(CacheStore):
    """The always-empty store used when no disk location is usable.

    Keeps the calling code free of ``None`` checks and the degrade-to-miss
    contract intact: gets miss, puts drop, nothing raises.
    """

    backend_name = "disabled"

    def __init__(self, reason: str = "cache disabled"):
        super().__init__()
        self.reason = reason

    def _read(self, kind: str, key: str) -> Optional[str]:
        return None

    def _write(self, kind: str, key: str, blob: str) -> None:
        pass

    def _remove(self, kind: str, key: str) -> None:
        pass

    def _move_to_quarantine(self, kind: str, key: str, reason: str) -> None:
        pass

    def _scan(self) -> Iterator[EntryInfo]:
        return iter(())

    def _wipe(self) -> None:
        pass

    def _quarantine_count(self) -> int:
        return 0

    def describe(self) -> str:
        return f"disabled ({self.reason})"


class SqliteStore(CacheStore):
    """Entries in one sqlite database file (the default backend).

    Layout: an ``entries(kind, key, blob)`` table holding wire records and a
    ``quarantine(kind, key, blob, reason, ts)`` table for entries that failed
    integrity checks.  WAL journaling plus a busy timeout make concurrent
    readers cheap; concurrent writers serialize on sqlite's file lock, and a
    writer that still loses the race simply drops its write (counted in
    ``stats.errors``).  An unreadable / corrupt database file is rotated to
    ``store.sqlite.corrupt-<n>`` and a fresh database is started in its
    place.

    **Thread model**: one connection *per thread* (``threading.local``).  A
    single shared connection can interleave two threads' statement/commit
    pairs into torn transactions or raise ``ProgrammingError``; the serving
    daemon's executor drives one store from many threads at once, so every
    thread lazily opens its own connection against the same database file
    and sqlite's file locking arbitrates between them exactly as it does
    between processes.  :meth:`close` closes every connection the store ever
    opened; a corruption rotation bumps a generation counter so other
    threads' stale connections are replaced on their next use.
    """

    backend_name = "sqlite"
    FILENAME = "store.sqlite"

    def __init__(self, root: Path):
        super().__init__()
        self.root = Path(root)
        self.path = self.root / self.FILENAME
        self.root.mkdir(parents=True, exist_ok=True)
        # _lock guards the connection registry, the generation counter and
        # corrupt-file rotation; it is never held around statement execution
        self._lock = threading.RLock()
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._generation = 0
        self._closed = False
        try:
            self._connection()
        except sqlite3.Error:
            with self._lock:
                self._rotate_corrupt()
                self._generation += 1
            self._connection()  # a fresh file; raises only if the dir is unusable

    def _open(self) -> sqlite3.Connection:
        # check_same_thread=False solely so close() may reap connections
        # owned by finished executor threads; statements always run on the
        # opening thread (sqlite3.threadsafety serializes the rest)
        conn = sqlite3.connect(str(self.path), timeout=5.0, check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA busy_timeout=5000")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " kind TEXT NOT NULL, key TEXT NOT NULL, blob TEXT NOT NULL,"
            " created REAL NOT NULL, PRIMARY KEY (kind, key))"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            " kind TEXT NOT NULL, key TEXT NOT NULL, blob TEXT,"
            " reason TEXT NOT NULL, ts REAL NOT NULL)"
        )
        conn.commit()
        return conn

    def _forget_local(self) -> None:
        """Close and deregister the calling thread's connection, if any."""
        cached = getattr(self._local, "entry", None)
        if cached is None:
            return
        _generation, conn = cached
        self._local.entry = None
        try:
            conn.close()
        except sqlite3.Error:
            pass
        with self._lock:
            if conn in self._connections:
                self._connections.remove(conn)

    def _connection(self) -> sqlite3.Connection:
        """The calling thread's connection, opened (or refreshed) on demand."""
        if self._closed:
            raise sqlite3.OperationalError("store connection is closed")
        cached = getattr(self._local, "entry", None)
        if cached is not None:
            generation, conn = cached
            if generation == self._generation:
                return conn
            self._forget_local()  # the database was rotated under this thread
        with self._lock:
            generation = self._generation
        conn = self._open()
        with self._lock:
            if self._closed:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
                raise sqlite3.OperationalError("store connection is closed")
            self._connections.append(conn)
        self._local.entry = (generation, conn)
        return conn

    def _rotate_corrupt(self) -> None:
        """Move an unusable database file aside so a fresh one can start."""
        for attempt in range(100):
            target = self.path.with_name(f"{self.FILENAME}.corrupt-{attempt}")
            if not target.exists():
                self.path.replace(target)
                return
        self.path.unlink()

    def _recover_corrupt(self) -> None:
        """Rotate a database that went bad underneath us, exactly once.

        Several threads can observe the same malformed file concurrently;
        only the first (by generation) performs the rotation, the rest just
        drop their stale connections and reconnect to the fresh database.
        """
        cached = getattr(self._local, "entry", None)
        stale_generation = cached[0] if cached is not None else None
        self._forget_local()
        with self._lock:
            if stale_generation is None or stale_generation == self._generation:
                if self.path.exists():
                    self._rotate_corrupt()
                self._generation += 1

    def _execute(self, sql: str, params: Tuple = (), *, commit: bool = False) -> sqlite3.Cursor:
        try:
            conn = self._connection()
            cursor = conn.execute(sql, params)
            if commit:
                conn.commit()
            return cursor
        except sqlite3.DatabaseError as error:
            message = str(error).lower()
            if "malformed" in message or "not a database" in message:
                self._recover_corrupt()
                conn = self._connection()
                cursor = conn.execute(sql, params)
                if commit:
                    conn.commit()
                return cursor
            raise

    def _read(self, kind: str, key: str) -> Optional[str]:
        row = self._execute(
            "SELECT blob FROM entries WHERE kind = ? AND key = ?", (kind, key)
        ).fetchone()
        return row[0] if row else None

    def _write(self, kind: str, key: str, blob: str) -> None:
        self._execute(
            "INSERT OR REPLACE INTO entries (kind, key, blob, created) VALUES (?, ?, ?, ?)",
            (kind, key, blob, time.time()),
            commit=True,
        )

    def _remove(self, kind: str, key: str) -> None:
        self._execute(
            "DELETE FROM entries WHERE kind = ? AND key = ?", (kind, key), commit=True
        )

    def _move_to_quarantine(self, kind: str, key: str, reason: str) -> None:
        row = self._execute(
            "SELECT blob FROM entries WHERE kind = ? AND key = ?", (kind, key)
        ).fetchone()
        self._execute(
            "INSERT INTO quarantine (kind, key, blob, reason, ts) VALUES (?, ?, ?, ?, ?)",
            (kind, key, row[0] if row else None, reason, time.time()),
        )
        self._execute(
            "DELETE FROM entries WHERE kind = ? AND key = ?", (kind, key), commit=True
        )

    def _scan(self) -> Iterator[EntryInfo]:
        for kind, key, blob, created in self._execute(
            "SELECT kind, key, blob, created FROM entries ORDER BY kind, key"
        ):
            yield EntryInfo(kind=kind, key=key, size_bytes=len(blob), created=created)

    def _quarantine_count(self) -> int:
        return int(self._execute("SELECT COUNT(*) FROM quarantine").fetchone()[0])

    def _wipe(self) -> None:
        self._execute("DELETE FROM entries")
        self._execute("DELETE FROM quarantine", commit=True)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        self._local.entry = None
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def describe(self) -> str:
        return f"sqlite ({self.path})"


class JsonDirStore(CacheStore):
    """One JSON file per entry: ``json/<kind>/<key>.json`` under the root.

    The fallback backend for environments where sqlite cannot open a
    database (exotic filesystems, read-only sqlite builds); also the easier
    backend to inspect by hand.  Writes go through a temporary file and
    ``os.replace`` so readers never observe a half-written entry; corrupt
    files are moved to ``quarantine/``.
    """

    backend_name = "json"

    def __init__(self, root: Path):
        super().__init__()
        self.root = Path(root)
        self.json_root = self.root / "json"
        self.quarantine_root = self.root / "quarantine"
        self.json_root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _filename(key: str) -> str:
        # keys are fingerprint-built and already filesystem-safe, but hash
        # anything suspicious rather than trusting it as a path component
        if all(c.isalnum() or c in "._:-" for c in key) and len(key) < 200:
            return key.replace(":", "_") + ".json"
        return hashlib.sha256(key.encode("utf-8")).hexdigest() + ".json"

    def _path(self, kind: str, key: str) -> Path:
        return self.json_root / kind / self._filename(key)

    def _read(self, kind: str, key: str) -> Optional[str]:
        path = self._path(kind, key)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")

    @staticmethod
    def _fsync_directory(directory: Path) -> None:
        """Flush a directory entry so a just-renamed file survives a crash.

        Directory fds are a POSIX notion; on platforms (or filesystems) that
        refuse to open or fsync a directory the flush is skipped -- the
        rename is still atomic, we merely lose the durability upgrade.
        """
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _write(self, kind: str, key: str, blob: str) -> None:
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # pid alone is not unique under the serving daemon's thread pool:
        # two threads of one process writing the same key would share (and
        # corrupt) one temp file, so the thread id joins the suffix
        tmp = path.with_name(
            path.name + f".tmp-{os.getpid()}-{threading.get_ident()}"
        )
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(blob)
                handle.flush()
                # without the fsync, os.replace can publish a name whose
                # *data* never reached the disk: a crash then leaves a
                # truncated entry that later reads silently quarantine
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        # and the rename itself must be flushed, or the crash loses the
        # entry entirely (acceptable) *or* resurrects a half-gone tmp file
        self._fsync_directory(path.parent)

    def _remove(self, kind: str, key: str) -> None:
        path = self._path(kind, key)
        if path.exists():
            path.unlink()

    def _move_to_quarantine(self, kind: str, key: str, reason: str) -> None:
        path = self._path(kind, key)
        if not path.exists():
            return
        self.quarantine_root.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_root / f"{kind}.{path.name}"
        suffix = 0
        while target.exists():  # never overwrite an earlier quarantined entry
            suffix += 1
            target = self.quarantine_root / f"{kind}.{path.name}.{suffix}"
        os.replace(path, target)

    def _scan(self) -> Iterator[EntryInfo]:
        if not self.json_root.exists():
            return
        for kind_dir in sorted(self.json_root.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*.json")):
                stat = path.stat()
                yield EntryInfo(
                    kind=kind_dir.name,
                    key=path.stem,
                    size_bytes=stat.st_size,
                    created=stat.st_mtime,
                )

    def _quarantine_count(self) -> int:
        if not self.quarantine_root.exists():
            return 0
        return sum(1 for _ in self.quarantine_root.iterdir())

    def _wipe(self) -> None:
        import shutil

        for directory in (self.json_root, self.quarantine_root):
            if directory.exists():
                shutil.rmtree(directory, ignore_errors=True)
        self.json_root.mkdir(parents=True, exist_ok=True)

    def describe(self) -> str:
        return f"json ({self.json_root})"
