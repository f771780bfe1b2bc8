"""The sweep cache: an in-process LRU over a content-addressed disk tier.

A sweep is a pure function of its :class:`~repro.harness.parallel.RunSpec`
values — run function, every argument (scale, seed, configs, fault-plan
and scenario names, ...) — and of the code that computes it.  The key is
therefore just the specs themselves (``repr`` of the ``{point_key: spec}``
items) **plus a code-version salt**: a digest over every ``*.py`` file
under ``src/repro``.  Two sweeps that differ in any argument never share
an entry; editing any source file (a service model, a scenario template,
a broker) changes the salt, so a stale cache can never satisfy a lookup
from newer code; there is nothing to remember to invalidate.

Disk entries live under ``$REPRO_CACHE_DIR`` (default ``.repro-cache/`` in
the working directory) as pickle files named by the SHA-256 of their key.
Writes go through a temp file + ``os.replace`` so concurrent processes
(e.g. ``--jobs N`` workers warming the same sweep) never observe a torn
entry; unreadable or truncated entries are treated as misses and removed.
A cached run result is the whole observation of its run (record book, mark
tally, armed faults, node samples), so ``--trace`` and ``--metrics-out``
read a sweep served by either tier as they read a freshly simulated one.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Optional

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_code_salt: Optional[str] = None


def cache_root() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def code_salt() -> str:
    """Digest of every ``repro`` source file (computed once per process)."""
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parents[1]  # src/repro
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt = digest.hexdigest()
    return _code_salt


class DiskCache:
    """Pickle-per-entry cache addressed by hashed key tuples."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else cache_root()

    def path_for(self, key: tuple) -> Path:
        payload = repr((code_salt(),) + key).encode()
        return self.root / (hashlib.sha256(payload).hexdigest() + ".pkl")

    def get(self, key: tuple) -> Optional[Any]:
        """The cached value, or ``None`` on a miss (or a corrupt entry)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn write from a killed process, incompatible pickle, ...:
            # drop the entry and recompute.
            path.unlink(missing_ok=True)
            return None

    def put(self, key: tuple, value: Any) -> None:
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp_name)
            raise

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                with suppress(OSError):
                    path.unlink()
                    removed += 1
            for path in self.root.glob("*.tmp"):
                with suppress(OSError):
                    path.unlink()
        return removed


class SweepCache:
    """Both tiers behind one lookup.

    The in-process tier holds ``max_entries`` sweeps, evicting LRU-first:
    sweeps hold whole record books, so an unbounded cache would grow
    without limit when many (scale, seed) combinations run in one process
    (a benchmark session); there are ~7 sweep kinds, so one combination
    fits entirely.
    """

    def __init__(self, max_entries: int = 8):
        self.max_entries = max_entries
        self._memory: "OrderedDict[tuple, Any]" = OrderedDict()

    def fetch(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The sweep cached under ``key``, building (and storing) it on a
        miss."""
        mem_key = repr(key)
        if mem_key in self._memory:
            self._memory.move_to_end(mem_key)
            return self._memory[mem_key]
        disk = DiskCache()
        value = disk.get(key)
        if value is None:
            value = build()
            disk.put(key, value)
        self._memory[mem_key] = value
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
        return value

    def forget(self) -> None:
        """Drop the in-process tier only — what a fresh process starts with."""
        self._memory.clear()

    def clear(self) -> None:
        """Empty both tiers."""
        self.forget()
        DiskCache().clear()
