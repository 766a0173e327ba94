"""Atomic replacement of the ladder cache file."""

from __future__ import annotations

import contextlib
import os
import threading


@contextlib.contextmanager
def atomic_writer(path):
    """Yield a binary handle whose contents replace `path` only on clean
    exit.

    The data goes to a temporary file in the same directory, which
    `os.replace` then renames over `path`; a write that fails halfway leaves
    the previous file untouched and removes the temporary one.  This guards
    against failures of the writing process, not against power loss (no
    fsync).
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
