"""Canonical JSON serialization.

Every file the toolkit emits is sorted, 2-space indented, and newline
terminated so that identical objects always produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_canonical(path, payload) -> None:
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
