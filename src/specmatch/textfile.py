"""The one writer of the package's output files."""

from __future__ import annotations

import os
import stat


def _open_without_truncating(path, flags):
    # the flags of open()'s "w" mode less O_TRUNC, with its permissions
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_text(path, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` as ``open(path, "w")``
    would, but over the old content instead of after truncating it; then
    cut a regular file at the written length, so no old tail is left.
    Other targets (a pipe, a terminal, ``/dev/null``) get no cut.

    On an ext4 filesystem mounted with ``discard`` (a 2-core host), a
    truncating rewrite of a written-out file of 3 KB to 1.9 MB took 22-115
    ms, and this overwrite in place 0.2-0.45 ms. A process killed while
    writing leaves the new head followed by the old tail.
    """
    with open(path, "w", opener=_open_without_truncating) as fh:
        fh.writelines(chunks)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
