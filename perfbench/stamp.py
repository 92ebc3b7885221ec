"""Run-record stamps: which host, toolchain and code produced a number."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import time
from importlib import metadata
from pathlib import Path

#: Stamp fields that must agree before two records may be compared.
HOST_KEYS = ("hostname", "machine", "nproc", "python", "numpy", "scipy")


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD's commit from ``.git`` files (the checkout may have none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` path and its bytes."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_stamp(root: Path, backend: str | None, engine: str | None) -> dict:
    return {
        "hostname": socket.gethostname(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "backend": backend,
        "engine": engine,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_record(directory: Path, record: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-s{record['seed']}-t{record['trace']}"
            f"-{time.time_ns()}.json")
    path = directory / name
    path.write_text(json.dumps(record, indent=1, default=str))
    return path
