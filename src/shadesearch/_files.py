"""Writing program outputs through a temporary file beside the target.

Every writer puts its bytes into ``.<name>.<pid>.tmp`` in the target's
directory first, so a write that fails part-way leaves any file already at
the target as it was. The last step differs:

* ``save_index`` renames the temporary file over the target, so a whole
  index is at the path at every moment. On ext4 (``auto_da_alloc``) that
  rename makes the kernel flush the new data first, which makes a replace
  without fsync crash-safe; it costs tens of milliseconds at any size. When
  the target already holds exactly the new bytes (``holds_bytes``), there
  is nothing to make durable, so the save writes nothing at all and the
  unchanged index keeps its inode and mtime.
* ``write_new_file`` unlinks the target and then renames the temporary file
  onto the free name. The output lands on a new inode and pays no flush, but
  for a moment nothing is at the path. It serves the outputs that promise no
  atomicity: reports, shaded images and the synthetic corpus.
"""

import os
import stat
from contextlib import contextmanager
from pathlib import Path

_COMPARE_CHUNK = 1 << 20


@contextmanager
def temporary_beside(path: Path):
    """Yield the temporary path for ``path``; remove it if the block fails.

    An OSError about the temporary file is raised again naming ``path``
    instead, since the temporary name means nothing to the caller.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == os.fspath(tmp):
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def holds_bytes(path: Path, data: bytes) -> bool:
    """Whether ``path`` is a regular file, not a symlink, holding exactly ``data``.

    The file is read in chunks, so no second copy of a large ``data`` is
    held. Any OSError, such as a missing file, a symlink (``ELOOP``) or no
    permission, answers False, leaving the error to the write that follows.
    O_NONBLOCK keeps a FIFO at ``path`` from blocking the open.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return False
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode) or info.st_size != len(data):
            return False
        offset = 0
        while offset < len(data):
            chunk = os.read(fd, _COMPARE_CHUNK)
            if not chunk or not data.startswith(chunk, offset):
                return False
            offset += len(chunk)
        return os.read(fd, 1) == b""
    except OSError:
        return False
    finally:
        os.close(fd)


def write_new_file(path, data: bytes) -> None:
    """Write ``data`` to ``path`` as a new file, never into the old one.

    Whatever was at ``path`` is unlinked rather than written through, so a
    symlink there is replaced, not followed.
    """
    path = Path(path)
    with temporary_beside(path) as tmp:
        with open(tmp, "wb") as fh:
            fh.write(data)
        path.unlink(missing_ok=True)
        os.rename(tmp, path)
