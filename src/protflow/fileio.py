"""The one atomic file writer: a temp file beside the target, then os.replace.

Standard library only, so the CLI writes its text outputs without loading
numpy; checkpoints go through it too.
"""

import os
import tempfile

from .errors import ConfigError


def write_atomic(path, data, what):
    """Write bytes to path atomically, with the mode open(path, "wb") gives a new
    file. An OSError (say, path is a directory or its directory is missing) is a
    ConfigError that names what was written; the temp file is removed on any
    failure."""
    dirpath = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=dirpath, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        # mkstemp's file is 0o600; open's is 0o666 less the umask, which os.umask
        # reads only by setting it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise ConfigError(f"{path}: cannot write {what}: {e.strerror or e}") from None
        raise
