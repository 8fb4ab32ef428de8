"""Build and load the package's compiled kernels.

Each kernel is one C source beside the module that calls it: the SA
move loop (``place/_sweep.c``) and FlowMap's cut search
(``synth/_flowmap.c``).  :func:`load` compiles a source on first use
with the system C compiler (``cc``) and keeps the library in the
source's ``__pycache__`` as ``<stem>.<sha256>.so``, hashed over the
source, the flags and the machine type: an edited source builds a new
library, and an unchanged one loads without running the compiler.
Concurrent first imports each build to a pid-tagged temporary name and
``os.replace`` it into place, so no process ever loads a half-written
library.  When ``__pycache__`` is not writable the library is built in
a private temporary directory instead; it is never loaded from a
shared, predictable path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

#: ``-ffp-contract=off``: no fused multiply-add, so every float
#: operation rounds exactly as CPython's does (GCC contracts by default
#: on aarch64).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _compile(source: Path, text: bytes, out: Path) -> None:
    """Compile ``text`` to ``out`` through a pid-tagged temporary."""
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            ["cc", *FLAGS, "-x", "c", "-", "-o", str(tmp), "-lm"],
            input=text, capture_output=True, check=True,
        )
        os.replace(tmp, out)
    except FileNotFoundError:
        raise ImportError(
            f"repro needs a C compiler to build {source.name}: "
            "`cc` is not on PATH"
        ) from None
    except subprocess.CalledProcessError as exc:
        raise ImportError(
            f"`cc` could not build {source.name}:\n"
            + exc.stderr.decode(errors="replace")
        ) from None
    finally:
        if tmp.exists():
            tmp.unlink()


def load(source: Path, directory: Optional[Path] = None) -> ctypes.CDLL:
    """The library compiled from ``source``, built into ``directory``
    (default: the source's ``__pycache__``) unless it is there."""
    if directory is None:
        directory = source.parent / "__pycache__"
    text = source.read_bytes()
    digest = hashlib.sha256(
        b"\0".join([text, " ".join(FLAGS).encode(),
                    platform.machine().encode()])
    ).hexdigest()
    path = directory / f"{source.stem}.{digest}.so"
    if path.exists():
        return ctypes.CDLL(str(path))
    try:
        directory.mkdir(exist_ok=True)
        writable = os.access(directory, os.W_OK)
    except OSError:
        writable = False
    if writable:
        _compile(source, text, path)
        return ctypes.CDLL(str(path))
    with tempfile.TemporaryDirectory(prefix="repro-kernel-") as private:
        path = Path(private) / path.name
        _compile(source, text, path)
        return ctypes.CDLL(str(path))
