"""Only ``repro.storage.compat`` names an on-disk format an earlier build
wrote: its checksums (CRC-32C), its archive codec (XPR1) and its
manifests. Every other module reads exactly the format this build writes,
so dropping an earlier format is deleting part of one module."""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
COMPAT = SRC / "storage" / "compat.py"
# ``\bxpress`` keeps "expressions" out; the rest match inside names too
# (``crc32c_scalar``, ``manifest_crc32c``).
EARLIER = re.compile(r"crc32c|legacy|XPR1|\bxpress|LEGACY_MANIFEST_VERSION", re.IGNORECASE)


def test_only_compat_names_an_earlier_format():
    modules = sorted(SRC.rglob("*.py"))
    assert COMPAT in modules
    found = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in modules
        if path != COMPAT
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if EARLIER.search(line)
    ]
    assert not found, "\n".join(found)
