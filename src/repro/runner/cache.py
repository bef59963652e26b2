"""Content-addressed on-disk result cache.

Keys are blake2b digests over everything that can change a simulation's
outcome: the task description (device, model, scheme, batch, cluster
knobs), the fault plan, the device's calibration constants and the code
version.  Changing any of those — recalibrating a device, bumping the
package version, tweaking a fault plan — yields a different key, so a
stale cache self-invalidates without any manual flushing.

The store is a directory of one JSON file per key under
``.repro-cache/objects/``.  It is *single-writer by construction*: only
the coordinating process (the one driving the engine) ever calls
:meth:`ResultCache.store`; worker processes just return payloads.
Writes go through a temporary file and ``os.replace`` so a crashed run
can leave at worst a stale temp file, never a torn object.  Corrupt or
truncated objects read back as misses, never as errors.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro._version import __version__
from repro.gpu.device import get_device
from repro.runner.tasks import ExperimentTask

__all__ = ["CACHE_FORMAT_VERSION", "CacheCounters", "ResultCache", "task_key"]

# Bump when the payload layout changes; invalidates every existing key.
CACHE_FORMAT_VERSION = 1


def task_key(task: ExperimentTask) -> str:
    """The content-addressed cache key for ``task``.

    blake2b over a canonical JSON encoding of the task description, the
    device calibration constants and the code/cache-format versions.
    """
    material = {
        "cache_format": CACHE_FORMAT_VERSION,
        "code_version": __version__,
        "task": task.describe(),
        "calibration": asdict(get_device(task.device)),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


@dataclass
class CacheCounters:
    """What the cache did during one engine run."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}


class ResultCache:
    """Single-writer JSON object store under ``root``."""

    def __init__(self, root: str = ".repro-cache") -> None:
        self.root = root
        self.counters = CacheCounters()

    @property
    def objects_dir(self) -> str:
        """Directory holding one JSON file per key."""
        return os.path.join(self.root, "objects")

    def _path(self, key: str) -> str:
        return os.path.join(self.objects_dir, f"{key}.json")

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss.

        A corrupt, truncated or wrong-shape object is a miss, not an
        error: the engine simply recomputes and overwrites it.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except (OSError, ValueError):
            self.counters.misses += 1
            return None
        if (not isinstance(obj, dict) or obj.get("key") != key
                or "payload" not in obj):
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return obj["payload"]

    def store(self, key: str, task: ExperimentTask,
              payload: Dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key``.

        Only the coordinating process calls this (single-writer); the
        task description rides along for debuggability.
        """
        os.makedirs(self.objects_dir, exist_ok=True)
        obj = {"key": key, "cache_format": CACHE_FORMAT_VERSION,
               "code_version": __version__, "task": task.describe(),
               "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.objects_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.counters.writes += 1

    def __repr__(self) -> str:
        return f"<ResultCache {self.root!r} {self.counters.as_dict()}>"
