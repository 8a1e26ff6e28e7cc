"""The library compiled from _simcore.c: the simulator's event loop
(simcore_run) and the bucket sort's key draw (simcore_bucket_sort).

It is built with the system C compiler on first use and cached under
$XDG_CACHE_HOME/contend (default ~/.cache/contend); library() loads it once
per process, with every function typed, or says on stderr why it cannot.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_SIMCORE_SOURCE = Path(__file__).with_name("_simcore.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _compile_simcore(cc: str, out_dir: str) -> str:
    """Path of the compiled library in out_dir, building it if absent; the
    name carries a digest of the source and flags, so a stale build is
    never loaded."""
    digest = hashlib.sha256(_SIMCORE_SOURCE.read_bytes()
                            + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = os.path.join(out_dir, f"simcore-{digest}.so")
    if not os.path.exists(lib):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=out_dir)
        os.close(fd)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", tmp, str(_SIMCORE_SOURCE)],
                           check=True, capture_output=True)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


@functools.cache
def library() -> ctypes.CDLL | None:
    """The compiled library with its functions typed, or None (after one
    line on stderr) when it cannot be built."""
    cc = shutil.which("cc")
    if cc is None:
        print("contend: no C compiler (cc) found; simulating with the slower "
              "pure-Python loop", file=sys.stderr)
        return None
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache"), "contend")
    try:
        try:
            os.makedirs(cache, exist_ok=True)
            path = _compile_simcore(cc, cache)
        except OSError:   # no writable cache: a directory private to this process
            private = tempfile.mkdtemp(prefix="contend-")
            atexit.register(shutil.rmtree, private, ignore_errors=True)
            path = _compile_simcore(cc, private)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"contend: cannot build {_SIMCORE_SOURCE.name} ({e}); simulating "
              f"with the slower pure-Python loop", file=sys.stderr)
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.simcore_run.argtypes = [ctypes.c_int, ptr, ptr, ptr, ptr, ptr, ptr, ctypes.c_uint64,
                                i64, i64, i64, i64, ctypes.c_int, ptr, ptr, ptr, ptr, ptr,
                                ptr, ptr]
    lib.simcore_run.restype = i64
    lib.simcore_bucket_sort.argtypes = [ptr, i64, i64, ctypes.c_uint64, ptr, ptr, i64, i64]
    lib.simcore_bucket_sort.restype = ctypes.c_int
    return lib
