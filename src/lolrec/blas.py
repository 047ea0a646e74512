"""One BLAS thread for every inexact-ALM solve.

The solvers' sweeps multiply and factor 50-400-wide matrices, where
OpenBLAS spends more on handing work to its threads than the extra cores
save: on a 2-core machine a 50x60 `denoise` solve ran 6-7 times as long
with OpenBLAS on both cores as with one.  `one_blas_thread()` sets every
OpenBLAS copy loaded in the process to one thread while a solve runs, and
restores the count it found.  numpy's wheel ships one copy and scipy's
another.  A normal run maps only numpy's: lolrec imports scipy.linalg only
for the SVD fallback in `prox.thin_svd`, which calls `pin_late_copies()` so
that scipy's copy, mapped in mid-solve, is pinned too.

The pin is skipped when OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set: the user's setting wins.  It is a no-op where no
OpenBLAS with `openblas_set_num_threads_local` (OpenBLAS >= 0.3.27) is
loaded, or where /proc/self/maps cannot be read.

In the pthreads builds that the wheels ship, `openblas_set_num_threads_local`
changes the count for the whole process, not only for the calling thread
(a second thread reads the count the first one set).  So the pin is
reference-counted across threads: the first solve to start sets one
thread, and the last one to finish restores the previous count.  Solves
running on several sweep threads never undo each other's pin.  OpenMP builds,
where the count may be per thread, are untested.
"""

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class OpenBlas:
    library: str                 # file name of the loaded copy
    version: str | None          # its `openblas_get_config` string
    set_threads_local: object    # ctypes function, or None before 0.3.27


def _symbol(lib, name, restype, argtypes):
    """`name` as exported plainly or with scipy-openblas's prefix/suffix."""
    for exported in (name, f"scipy_{name}", f"scipy_{name}64_"):
        fn = getattr(lib, exported, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            return fn
    return None


@functools.cache
def loaded_openblas():
    """Each OpenBLAS copy mapped into this process, found on first use and
    again by `pin_late_copies`."""
    try:
        with open("/proc/self/maps") as fh:
            mapped = {ln.split(maxsplit=5)[-1].strip() for ln in fh}  # last field: the path
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in mapped if "openblas" in Path(p).name):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _symbol(lib, "openblas_get_config", ctypes.c_char_p, [])
        found.append(OpenBlas(
            library=Path(path).name,
            version=config().decode() if config is not None else None,
            set_threads_local=_symbol(lib, "openblas_set_num_threads_local",
                                      ctypes.c_int, [ctypes.c_int])))
    return tuple(found)


def solve_threads():
    """BLAS threads a solve runs on: 1, "env" (a BLAS variable is set) or "unpinned"."""
    if any(os.environ.get(var) for var in BLAS_ENV_VARS):
        return "env"
    if any(lib.set_threads_local is not None for lib in loaded_openblas()):
        return 1
    return "unpinned"


_lock = threading.Lock()
_active = 0    # solves inside the pin, over all threads
_saved = {}    # library -> (setter, count found), for each copy pinned since the pin began


def _pin_unpinned_copies():
    """With `_lock` held and a solve entering or inside the pin: set each
    loaded OpenBLAS copy not pinned yet to one thread, saving its count."""
    if solve_threads() == 1:
        for lib in loaded_openblas():
            if lib.library not in _saved and lib.set_threads_local is not None:
                _saved[lib.library] = (lib.set_threads_local, lib.set_threads_local(1))


def pin_late_copies():
    """Scan again for OpenBLAS copies mapped since the last scan.  While a
    pinned solve runs, each copy not pinned yet is set to one thread now
    and gets its own count back when the last solve ends."""
    with _lock:
        loaded_openblas.cache_clear()
        if _active:
            _pin_unpinned_copies()


@contextmanager
def one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread (see module doc)."""
    global _active
    with _lock:
        if _active == 0:
            _pin_unpinned_copies()
        _active += 1
    try:
        yield
    finally:
        with _lock:
            _active -= 1
            if _active == 0:
                for set_threads, count in _saved.values():
                    set_threads(count)
                _saved.clear()
