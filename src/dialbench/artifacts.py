"""Crash-safe artifact writes.

Every file a run leaves behind (checkpoints, curves, summaries, tables) is
written to a hidden temporary file in its final directory and renamed
over the final name only once complete, so a killed or failed write never
leaves a partial file under a name a later verb reads.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file whose contents replace ``path`` when the block exits
    cleanly; on an exception ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())    # complete on disk before it is named
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text_atomic(path: str | Path, text: str) -> Path:
    with atomic_writer(path) as f:
        f.write(text.encode())
    return Path(path)
