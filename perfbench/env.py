"""Locating the program under test and describing the host a run measured on.

The benchmark runs from the root of a source checkout and imports the
``repro`` package from that checkout's ``src/`` directory only, never from an
installed copy, so a measurement always belongs to the tree it ran in.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no repro package under {SRC}; run from a source checkout")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unknown``."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git_dir / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content, in path order.

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_info() -> Dict[str, object]:
    """Interpreter, numpy, core count, platform and code identity of this run."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
