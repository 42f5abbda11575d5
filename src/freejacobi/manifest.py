"""Run manifests: enough metadata to reproduce any command bit-for-bit.

Every CLI run writes one of these next to its outputs.  Output files are
referenced by SHA-256 digest; re-running the recorded command line with
the recorded parameters and seeds on the same BLAS kernel must reproduce
the digests exactly.  OpenBLAS picks its kernel by CPU core type
(``OPENBLAS_CORETYPE`` overrides it), and another kernel may move the last
bits of what runs on it: ``np.correlate`` (so ``np.convolve`` in series
products) and the oracle's ``eigh``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command_line: list[str]
    parameters: dict
    seeds: list[int] = field(default_factory=list)
    package_version: str = __version__
    started_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    outputs: list[dict] = field(default_factory=list)

    def add_output(self, path: str | Path) -> None:
        p = Path(path)
        self.outputs.append({"path": p.name, "sha256": file_digest(p)})

    def write(self, path: str | Path) -> None:
        if self.finished_at is None:
            self.finished_at = time.time()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")
