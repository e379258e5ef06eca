"""Tiny content-addressed JSON result cache.

Keys are canonical JSON; the file name is the sha256 of the key.  Each file
stores the key alongside the payload so hash collisions or stale schemas are
detected by comparison, not trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

SCHEMA = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ResultCache:
    def __init__(self, root) -> None:
        self.root = Path(root)

    def _path(self, key_text: str) -> Path:
        digest = hashlib.sha256(key_text.encode()).hexdigest()
        return self.root / f"{digest}.json"

    def get(self, key) -> dict | None:
        key_text = canonical_json(key)
        path = self._path(key_text)
        try:
            with open(path) as fh:
                stored = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(stored, dict) or stored.get("schema") != SCHEMA:
            return None
        if canonical_json(stored.get("key")) != key_text:
            return None
        return stored

    def put(self, key, payload: dict) -> None:
        key_text = canonical_json(key)
        self.root.mkdir(parents=True, exist_ok=True)
        record = {"schema": SCHEMA, "key": key}
        record.update(payload)
        # write a temp file beside the entry and rename it into place, so a
        # reader never sees a half-written entry
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json(record))
                fh.write("\n")
            os.replace(tmp, self._path(key_text))
        except BaseException:
            os.unlink(tmp)
            raise
