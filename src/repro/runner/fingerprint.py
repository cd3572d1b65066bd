"""Source fingerprinting for the result and analysis caches.

A cached result is only valid for the code that produced it.  The
fingerprint is a SHA-256 over every ``*.py`` file under the ``repro``
package (paths and contents, sorted), so any source change — including
to a figure module or the simulator kernels — invalidates all entries
without needing per-module dependency tracking.  The whole-program
analyzer (:mod:`repro.devtools.analysis`) keys its diagnostic cache on
the same digest: the analysis is a pure function of exactly the file
set hashed here.
"""

from __future__ import annotations

from pathlib import Path

from repro._sha256 import sha256

__all__ = ["source_files", "source_fingerprint"]

_cached: tuple[str, str] | None = None


def source_files(root: Path | str | None = None) -> list[Path]:
    """The sorted ``*.py`` file set one fingerprint covers."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    return sorted(Path(root).rglob("*.py"))


def source_fingerprint(root: Path | str | None = None) -> str:
    """Hex digest (16 chars) of the ``repro`` package's source tree."""
    global _cached
    if root is None:
        root = Path(__file__).resolve().parent.parent
    root = Path(root)
    key = str(root)
    if _cached is not None and _cached[0] == key:
        return _cached[1]
    digest = sha256()
    for path in source_files(root):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()[:16]
    _cached = (key, fingerprint)
    return fingerprint
