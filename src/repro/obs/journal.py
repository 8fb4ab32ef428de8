"""Run journals: JSONL event streams under ``results/journals/``.

A journal is the serialized form of one trace: every span, point, cache
event, and final metrics snapshot from a run (including events shipped
back from pool workers), one JSON object per line.  Journals are plain
data — readable with a text editor, greppable, and consumed by the
``repro trace`` / ``repro stats`` exporters in :mod:`repro.obs.export`.

The journal directory defaults to ``results/journals`` relative to the
working directory and is overridden with ``REPRO_JOURNAL_DIR``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import core

JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

#: The last journal written by this process (shown by the CLI).
_LAST: Optional[Path] = None


def journal_dir() -> Path:
    """``$REPRO_JOURNAL_DIR`` or ``results/journals``."""
    override = os.environ.get(JOURNAL_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("results") / "journals"


def environment_fingerprint() -> Dict:
    """Reproducibility context recorded in every journal's meta event."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "argv": list(sys.argv),
        "env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
    }


def write_journal(
    events: List[Dict], label: str = "run", directory: Optional[Path] = None
) -> Path:
    """Write events as one JSONL file; returns (and remembers) its path."""
    global _LAST
    root = Path(directory) if directory is not None else journal_dir()
    root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = f"{stamp}-{label}-{os.getpid()}"
    path = root / f"{base}.jsonl"
    n = 0
    while path.exists():  # same second, same pid: disambiguate
        n += 1
        path = root / f"{base}-{n}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True, default=str))
            handle.write("\n")
    _LAST = path
    return path


def read_journal(path) -> List[Dict]:
    """Parse a JSONL journal back into its event list."""
    events: List[Dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a valid journal line: {exc}"
                ) from exc
    return events


def tail_journal(path, offset: int = 0) -> Tuple[List[Dict], int]:
    """Incrementally read a growing JSONL journal.

    Returns ``(events, new_offset)``: every complete event line that
    starts at or after byte ``offset``, plus the offset to resume from.
    A partially written final line (a writer mid-append) is left for the
    next call, and a malformed complete line is skipped rather than
    raised — a live tail must tolerate a torn or corrupt write without
    killing the stream.  A missing file yields ``([], offset)``, so
    tailing can begin before the journal exists.

    This is the primitive behind job progress streaming in
    :mod:`repro.serve`: the server appends obs-format events per job and
    the ``/v1/jobs/{id}/events`` endpoint serves them from ``offset``.
    """
    events: List[Dict] = []
    try:
        with Path(path).open("rb") as handle:
            handle.seek(offset)
            while True:
                line = handle.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    break  # torn tail: re-read it once the writer finishes
                offset += len(line)
                text = line.strip()
                if not text:
                    continue
                try:
                    events.append(json.loads(text))
                except json.JSONDecodeError:
                    continue
    except OSError:
        return events, offset
    return events, offset


def latest_journal(directory: Optional[Path] = None) -> Optional[Path]:
    """The most recently modified journal, or None."""
    root = Path(directory) if directory is not None else journal_dir()
    if not root.is_dir():
        return None
    candidates = sorted(
        root.glob("*.jsonl"), key=lambda p: (p.stat().st_mtime, p.name)
    )
    return candidates[-1] if candidates else None


def last_journal() -> Optional[Path]:
    """The journal most recently written by this process, if any."""
    return _LAST


def finalize(label: str = "run", directory: Optional[Path] = None) -> Optional[Path]:
    """Drain the live trace and write it as one journal.

    Only the trace owner (the caller whose :func:`repro.obs.core.begin`
    returned True) should call this.  Returns None when tracing was not
    active (nothing to write).
    """
    events = core.drain()
    if not events:
        return None
    return write_journal(events, label=label, directory=directory)
