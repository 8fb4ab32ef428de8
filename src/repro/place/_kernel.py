"""Build and load the compiled SA move loop, ``_sweep.c``.

The library is compiled on first import with the system C compiler
(``cc``) and kept in the package's ``__pycache__`` as
``_sweep.<sha256>.so``, hashed over the source, the flags and the
machine type: an edited source builds a new library, and an unchanged
one loads without running the compiler.  Concurrent first imports each
build to a pid-tagged temporary name and ``os.replace`` it into place,
so no process ever loads a half-written library.  When ``__pycache__``
is not writable the library is built in a private temporary directory
instead; it is never loaded from a shared, predictable path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_sweep.c")
#: ``-ffp-contract=off``: no fused multiply-add, so every float
#: operation rounds exactly as CPython's does (GCC contracts by default
#: on aarch64).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _compile(source: bytes, out: Path) -> None:
    """Compile ``source`` to ``out`` through a pid-tagged temporary."""
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            ["cc", *FLAGS, "-x", "c", "-", "-o", str(tmp), "-lm"],
            input=source, capture_output=True, check=True,
        )
        os.replace(tmp, out)
    except FileNotFoundError:
        raise ImportError(
            "repro.place needs a C compiler: `cc` is not on PATH"
        ) from None
    except subprocess.CalledProcessError as exc:
        raise ImportError(
            f"`cc` could not build {SOURCE.name}:\n"
            + exc.stderr.decode(errors="replace")
        ) from None
    finally:
        if tmp.exists():
            tmp.unlink()


def load(directory: Path = SOURCE.parent / "__pycache__") -> ctypes.CDLL:
    """The compiled kernel, built into ``directory`` unless it is there."""
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(),
                    platform.machine().encode()])
    ).hexdigest()
    path = directory / f"_sweep.{digest}.so"
    if path.exists():
        return ctypes.CDLL(str(path))
    try:
        directory.mkdir(exist_ok=True)
        writable = os.access(directory, os.W_OK)
    except OSError:
        writable = False
    if writable:
        _compile(source, path)
        return ctypes.CDLL(str(path))
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as private:
        path = Path(private) / path.name
        _compile(source, path)
        return ctypes.CDLL(str(path))
