"""Run manifests: enough provenance to re-run any result exactly.

`cli.dispatch` is the one writer: it digests the input files with
`file_digest` before the handler runs and calls `write_manifest` once
the outputs are written.
"""

from __future__ import annotations

import hashlib
import json
import time


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str, command: list, config: dict, seeds: dict, input_digests: dict,
                   outputs: list, started: float) -> None:
    """Write one run's manifest as indented JSON with sorted keys; its duration runs from `started` (time.time())."""
    doc = {"command": command, "config": config, "seeds": seeds, "input_digests": input_digests,
           "outputs": outputs, "duration_seconds": time.time() - started}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
