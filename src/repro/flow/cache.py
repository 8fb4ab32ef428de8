"""Content-addressed stage cache for the design flow.

Each flow stage (synthesis, physical synthesis, routing/STA, packing) is
a deterministic function of (input netlist, architecture, stage options,
seed), so its result can be keyed by a stable hash of those components
and persisted across processes and invocations.  Repeated benchmark or
experiment runs then skip every unchanged prefix of the pipeline.

Entries live under ``~/.cache/repro`` (override with the
``REPRO_CACHE_DIR`` environment variable; set ``REPRO_NO_CACHE=1`` to
disable caching globally).  Every entry embeds a SHA-256 digest of its
pickled payload; a digest mismatch on read (truncated or corrupted file)
is counted, the entry is discarded, and the stage is recomputed — a bad
cache can cost time but never correctness.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..netlist.core import Netlist
from ..obs import core as _obs

#: Bump to invalidate all existing cache entries on format changes.
#: 2: SynthesisResult.pre_compaction_netlist + DesignRun.packed.
CACHE_FORMAT_VERSION = 2

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_NO_CACHE"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def cache_globally_disabled() -> bool:
    return os.environ.get(CACHE_DISABLE_ENV, "") not in ("", "0")


def canonical_netlist(netlist: Netlist) -> str:
    """A stable, content-complete text form of a netlist.

    Instances are emitted in sorted order with their cell type, pin
    connections and configuration mask, so two netlists with the same
    structure canonicalize identically regardless of construction order.
    """
    parts = [
        f"netlist:{netlist.name}",
        "in:" + ",".join(netlist.inputs),
        "out:" + ",".join(netlist.outputs),
    ]
    for name in sorted(netlist.instances):
        inst = netlist.instances[name]
        pins = ",".join(f"{p}={n}" for p, n in sorted(inst.pin_nets.items()))
        cfg = "seq" if inst.config is None else f"{inst.config.n_inputs}:{inst.config.mask}"
        parts.append(f"{name}|{inst.cell.name}|{pins}|{cfg}")
    return "\n".join(parts)


def stable_hash(*components: Any) -> str:
    """SHA-256 over the repr of the components (order-sensitive)."""
    h = hashlib.sha256()
    for component in components:
        if isinstance(component, Netlist):
            component = canonical_netlist(component)
        h.update(repr(component).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/volume counters for one cache (or an aggregate)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.corrupt += other.corrupt
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The traffic counted after ``earlier``, a copy of these stats."""
        return CacheStats(*(
            getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)
        ))

    def format(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, {self.corrupt} corrupt, "
            f"{self.bytes_read} B read, {self.bytes_written} B written"
        )


class StageCache:
    """Content-addressed store of pickled stage results.

    File format: ``<hex sha256 of payload>\\n<payload>``.  Writes go
    through a temp file + atomic rename so another process sharing the
    directory (a concurrent run, ``repro cache gc``) never sees a partial
    entry (a torn read would be caught by the digest anyway).  Within one
    flow run only the process that runs the stage DAG reads and writes
    it: pool workers receive their inputs' pickles and return their
    artifact's, which is stored as it is (see
    :mod:`repro.flow.scheduler`).
    """

    def __init__(self, root: Optional[Path] = None, enabled: bool = True):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled and not cache_globally_disabled()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key(self, stage: str, *components: Any) -> str:
        return stable_hash(CACHE_FORMAT_VERSION, stage, *components)

    def _path(self, stage: str, key: str) -> Path:
        return self.root / stage / f"{key}.pkl"

    def get(self, stage: str, key: str, loads=pickle.loads) -> Optional[Any]:
        """``loads`` of the cached payload, or ``None`` on miss/corruption
        (a payload that ``loads`` rejects is corrupt too)."""
        if not self.enabled:
            return None
        path = self._path(stage, key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            _obs.counter("cache.miss")
            _obs.point("cache", stage=stage, outcome="miss")
            return None
        digest, sep, payload = raw.partition(b"\n")
        ok = bool(sep) and hashlib.sha256(payload).hexdigest().encode() == digest
        if ok:
            try:
                result = loads(payload)
            except Exception:
                ok = False
        if not ok:
            self.stats.corrupt += 1
            self.stats.misses += 1
            _obs.counter("cache.corrupt")
            _obs.counter("cache.miss")
            _obs.point("cache", stage=stage, outcome="corrupt", bytes=len(raw))
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(raw)
        try:
            os.utime(path)  # recency signal for `repro cache gc` (LRU)
        except OSError:
            pass
        _obs.counter("cache.hit")
        _obs.point("cache", stage=stage, outcome="hit", bytes=len(raw))
        return result

    def put(self, stage: str, key: str, value: Any,
            payload: Optional[bytes] = None) -> None:
        """Store ``value``, or its pickle ``payload`` as it is if given."""
        if not self.enabled:
            return
        path = self._path(stage, key)
        if payload is None:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            return  # a read-only or full cache dir silently degrades to no-op
        self.stats.bytes_written += len(blob)
        _obs.counter("cache.write")
        _obs.counter("cache.bytes_written", len(blob))


class NullCache(StageCache):
    """A disabled cache (used when ``FlowOptions.use_cache`` is off)."""

    def __init__(self):
        super().__init__(root=Path(os.devnull), enabled=False)


# ----------------------------------------------------------------------
# Cache maintenance (`repro cache stats` / `repro cache gc`).
#
# The content-addressed store grows without bound by construction —
# every new netlist/option/seed combination adds entries and nothing
# ever removes them.  `get` refreshes an entry's mtime on every hit, so
# mtime order is LRU order and eviction can be both size- and age-based.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache entry (stat snapshot, payload never read)."""

    path: Path
    stage: str
    size: int
    mtime: float


@dataclass
class GcReport:
    """What one :func:`collect_garbage` pass did (or would do)."""

    scanned: int = 0
    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    errors: int = 0
    dry_run: bool = False
    removed_paths: List[str] = field(default_factory=list)

    def format(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"{self.scanned} entries scanned; {verb} {self.removed} "
            f"({self.freed_bytes} B), kept {self.kept} "
            f"({self.kept_bytes} B), {self.errors} errors"
        )


def iter_entries(root: Optional[Path] = None) -> List[CacheEntry]:
    """Every cache entry under ``root``, sorted oldest-first (LRU order).

    Tolerant by design: files that vanish or fail to ``stat`` mid-scan
    are skipped, non-``.pkl`` strays are ignored, and a missing root
    yields an empty list.  Sort ties on path so the order is stable on
    filesystems with coarse mtimes.
    """
    root = Path(root) if root is not None else default_cache_dir()
    entries: List[CacheEntry] = []
    if not root.is_dir():
        return entries
    for path in root.glob("*/*.pkl"):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append(
            CacheEntry(
                path=path, stage=path.parent.name,
                size=st.st_size, mtime=st.st_mtime,
            )
        )
    entries.sort(key=lambda e: (e.mtime, str(e.path)))
    return entries


def usage_summary(root: Optional[Path] = None) -> Dict[str, Any]:
    """Per-stage entry counts and byte totals for ``repro cache stats``."""
    root = Path(root) if root is not None else default_cache_dir()
    entries = iter_entries(root)
    stages: Dict[str, Dict[str, int]] = {}
    for entry in entries:
        bucket = stages.setdefault(entry.stage, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += entry.size
    summary: Dict[str, Any] = {
        "root": str(root),
        "entries": len(entries),
        "bytes": sum(e.size for e in entries),
        "stages": {name: stages[name] for name in sorted(stages)},
    }
    if entries:
        summary["oldest_mtime"] = entries[0].mtime
        summary["newest_mtime"] = entries[-1].mtime
    return summary


def parse_size(text: str) -> int:
    """``"500M"``/``"2G"``/``"1024"`` -> bytes (suffixes K/M/G/T, base 1024)."""
    raw = text.strip()
    suffixes = {"K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}
    factor = 1
    if raw and raw[-1].upper() in suffixes:
        factor = suffixes[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value * factor):
        raise ValueError(f"unparsable size {text!r}")
    if value < 0:
        raise ValueError(f"negative size {text!r}")
    return int(value * factor)


def parse_age(text: str) -> float:
    """``"7d"``/``"12h"``/``"30m"``/``"45s"``/``"3600"`` -> seconds."""
    raw = text.strip()
    suffixes = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    factor = 1.0
    if raw and raw[-1].lower() in suffixes:
        factor = suffixes[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value * factor):
        raise ValueError(f"unparsable age {text!r}")
    if value < 0:
        raise ValueError(f"negative age {text!r}")
    return value * factor


def collect_garbage(
    root: Optional[Path] = None,
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    dry_run: bool = False,
    now: Optional[float] = None,
) -> GcReport:
    """Evict cache entries by age and/or LRU order until within budget.

    Entries older than ``max_age_seconds`` go first; then the
    least-recently-used entries (oldest mtime — refreshed on every
    cache hit) are removed until the remainder fits ``max_bytes``.
    Corruption-tolerant: an entry that cannot be removed (permission,
    stray directory masquerading as an entry, concurrent deletion) is
    counted in ``errors`` and never aborts the pass — gc can cost time
    but never correctness, mirroring the read path.
    """
    if now is None:
        now = time.time()  # check: allow(DT002) gc ages entries by wall clock
    report = GcReport(dry_run=dry_run)
    entries = iter_entries(root)
    report.scanned = len(entries)

    doomed: List[CacheEntry] = []
    survivors: List[CacheEntry] = []
    if max_age_seconds is not None:
        cutoff = now - max_age_seconds
        for entry in entries:
            (doomed if entry.mtime < cutoff else survivors).append(entry)
    else:
        survivors = list(entries)
    if max_bytes is not None:
        live_bytes = sum(e.size for e in survivors)
        index = 0  # survivors are oldest-first: evict from the front
        while live_bytes > max_bytes and index < len(survivors):
            entry = survivors[index]
            doomed.append(entry)
            live_bytes -= entry.size
            index += 1
        survivors = survivors[index:]

    for entry in doomed:
        if not dry_run:
            try:
                entry.path.unlink()
            except FileNotFoundError:
                pass  # racing gc/eviction already removed it
            except OSError:
                report.errors += 1
                report.kept += 1
                report.kept_bytes += entry.size
                continue
        report.removed += 1
        report.freed_bytes += entry.size
        report.removed_paths.append(str(entry.path))
    report.kept += len(survivors)
    report.kept_bytes += sum(e.size for e in survivors)
    return report
