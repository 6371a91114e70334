"""Persistent multigrid setup cache.

The adaptive setup (paper Section 7.1) is the expensive, reusable part
of a multigrid solve: the near-null vectors depend only on the gauge
configuration, the operator parameters and the :class:`MGParams` — not
on any right-hand side.  Production workflows therefore amortize one
setup over hundreds of solves, and a *service* should amortize it over
its whole lifetime, including restarts.

:class:`SetupCache` provides exactly that:

* an in-memory LRU keyed by the deterministic content fingerprint of
  (gauge field, operator scalars, canonicalized params), accounted and
  evicted by :meth:`MultigridHierarchy.setup_memory_bytes`;
* optional disk persistence of the built hierarchy — its
  :meth:`~MultigridHierarchy.arrays`: null vectors, transfer bases and
  Galerkin coarse operators — so a restarted service loads the setup
  with :meth:`~MultigridHierarchy.from_arrays` and runs no relaxation,
  no QR and no Galerkin product.  Files are uncompressed (``np.savez``):
  complex128 arrays compress by ~3%, and decompressing cost ~10% of a
  restore.  Each is written under a temporary name and renamed into
  place, so no reader sees half of one;
* revalidation on load: a stored entry is used only if its recorded
  gauge/operator/params fingerprints match the live request, otherwise
  it is treated as a miss and rebuilt.  A file of the first format
  (null vectors only, ``version`` 1) is still a disk hit: it is rebuilt
  from its null vectors once and rewritten in the current format.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import zipfile
import zlib
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from ..gauge.io import gauge_fingerprint
from ..mg.hierarchy import MultigridHierarchy
from ..mg.params import MGParams
from ..telemetry.metrics import get_registry
from ..telemetry.tracer import get_tracer

_DISK_VERSION = 2
_NULL_VECTORS_ONLY = 1  # the first format: rebuilt from its null vectors

# Operator scalar attributes that (with the gauge field) determine the
# fine matrix, and therefore the null space the setup produces.
_OP_SCALARS = ("mass", "c_sw", "antiperiodic_t", "anisotropy", "hop_weights")


def _operator_fingerprint(op, gauge_fp: str) -> str:
    scalars = {
        name: getattr(op, name) for name in _OP_SCALARS if hasattr(op, name)
    }
    payload = json.dumps(
        {"class": type(op).__name__, "scalars": scalars},
        sort_keys=True,
        default=list,
    )
    h = hashlib.sha256()
    h.update(gauge_fp.encode())
    h.update(payload.encode())
    return h.hexdigest()


def operator_fingerprint(op) -> str:
    """Deterministic content hash of a fine operator.

    Combines the gauge-field fingerprint with the operator class name
    and its defining scalars, so two processes constructing the same
    Wilson-Clover matrix agree on the key.
    """
    return _operator_fingerprint(op, gauge_fingerprint(op.gauge))


class _Fingerprints(NamedTuple):
    """What a lookup hashes, once: the cache key derives from it and a
    persisted file records and is checked against it."""

    gauge_fp: str
    op_fp: str
    params_fp: str

    @classmethod
    def of(cls, op, params: MGParams) -> "_Fingerprints":
        gauge_fp = gauge_fingerprint(op.gauge)
        return cls(gauge_fp, _operator_fingerprint(op, gauge_fp), params.fingerprint())

    @property
    def key(self) -> str:
        h = hashlib.sha256()
        h.update(self.op_fp.encode())
        h.update(self.params_fp.encode())
        return h.hexdigest()


def setup_cache_key(op, params: MGParams) -> str:
    """The cache key for one (operator, MG configuration) pair."""
    return _Fingerprints.of(op, params).key


class SetupCache:
    """LRU cache of built hierarchies with optional disk persistence.

    Parameters
    ----------
    max_bytes:
        In-memory budget for cached setups (estimated by
        :meth:`MultigridHierarchy.setup_memory_bytes`).  ``None`` means
        unbounded; the most recently used entry is never evicted.
    disk_dir:
        Directory for persisted setups (created on demand), one
        uncompressed ``mgsetup-<key>.npz`` per entry holding the
        hierarchy's arrays; a restart loads them instead of computing
        anything.  ``None`` disables persistence.

    Thread safety: concurrent ``get_or_build`` calls for *different*
    keys build in parallel; calls for the same key serialize on a
    per-key lock so the setup runs once.
    """

    def __init__(self, max_bytes: int | None = None, disk_dir: str | None = None):
        self.max_bytes = max_bytes
        self.disk_dir = disk_dir
        self._entries: OrderedDict[str, tuple[MultigridHierarchy, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self._key_locks: dict[str, threading.Lock] = {}
        self.stats = {
            "hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalid": 0,
            "seeded": 0,
        }

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        op,
        params: MGParams,
        rng: np.random.Generator | None = None,
    ) -> MultigridHierarchy:
        """The hierarchy for ``(op, params)`` — cached, restored, or built."""
        fps = _Fingerprints.of(op, params)
        key = fps.key
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._book("hits", tier="memory")
                return cached[0]
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            # another thread may have built it while we waited
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self._book("hits", tier="memory")
                    return cached[0]
            hierarchy = self._restore(fps, op, params)
            if hierarchy is None:
                self._book("misses")
                rng = rng if rng is not None else np.random.default_rng()
                with get_tracer().span("serve.setup_cache.build"):
                    hierarchy = MultigridHierarchy.build(op, params, rng)
                self._persist(fps, params, hierarchy)
            self._insert(key, hierarchy)
            return hierarchy

    def seed(self, op, params: MGParams, hierarchy: MultigridHierarchy) -> str:
        """Adopt an already-built hierarchy for ``(op, params)``.

        This is the replication path of the fleet tier: when a router
        spills a hot operator onto a second shard, the new shard adopts
        the donor's hierarchy (in production: ships its arrays over the
        wire) instead of re-running the adaptive setup.  The entry goes
        through the normal LRU accounting and, with a disk directory
        configured, is persisted like a built one.  Returns the cache
        key.
        """
        fps = _Fingerprints.of(op, params)
        key = fps.key
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return key
        self._book("seeded")
        self._persist(fps, params, hierarchy)
        self._insert(key, hierarchy)
        return key

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    # ------------------------------------------------------------------
    def _insert(self, key: str, hierarchy: MultigridHierarchy) -> None:
        size = hierarchy.setup_memory_bytes()
        with self._lock:
            self._entries[key] = (hierarchy, size)
            self._entries.move_to_end(key)
            self._bytes += size
            while (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self._book("evictions")
            registry = get_registry()
            if registry.enabled:
                registry.gauge("serve.setup_cache.bytes").set(self._bytes)
                registry.gauge("serve.setup_cache.entries").set(len(self._entries))

    def _book(self, stat: str, **labels) -> None:
        with self._lock:
            self.stats[stat] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(f"serve.setup_cache.{stat}", **labels).inc()

    # -- disk persistence ----------------------------------------------
    def _path(self, key: str) -> str | None:
        if self.disk_dir is None:
            return None
        return os.path.join(self.disk_dir, f"mgsetup-{key}.npz")

    def _persist(self, fps: _Fingerprints, params: MGParams, hierarchy) -> None:
        path = self._path(fps.key)
        if path is None:
            return
        os.makedirs(self.disk_dir, exist_ok=True)
        with get_tracer().span("serve.setup_cache.persist"):
            fd, tmp = tempfile.mkstemp(
                prefix=f"mgsetup-{fps.key}.", suffix=".tmp", dir=self.disk_dir
            )
            try:
                # a file object: np.savez appends ".npz" to a bare path
                with os.fdopen(fd, "wb") as fh:
                    np.savez(
                        fh,
                        version=_DISK_VERSION,
                        n_levels=len(params.levels),
                        **fps._asdict(),
                        **hierarchy.arrays(),
                    )
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise

    def _restore(self, fps: _Fingerprints, op, params: MGParams):
        """Load the persisted hierarchy, or ``None``."""
        path = self._path(fps.key)
        if path is None or not os.path.exists(path):
            return None
        header = {"version", "n_levels", *fps._fields}
        try:
            with open(path, "rb") as fh, np.load(fh) as data:
                version = int(data["version"])
                ok = (
                    version in (_NULL_VECTORS_ONLY, _DISK_VERSION)
                    and all(str(data[name]) == fp for name, fp in fps._asdict().items())
                    and int(data["n_levels"]) == len(params.levels)
                )
                if not ok:
                    self._book("invalid")
                    return None
                arrays = {name: data[name] for name in data.files if name not in header}
            with get_tracer().span("serve.setup_cache.restore", version=version):
                if version == _DISK_VERSION:
                    hierarchy = MultigridHierarchy.from_arrays(op, params, arrays)
                else:
                    nulls = [list(arrays[f"level{i}"]) for i in range(len(params.levels))]
                    hierarchy = MultigridHierarchy.build(
                        op, params, np.random.default_rng(), null_vectors=nulls
                    )
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error):
            # A truncated npz raises zipfile.BadZipFile and a corrupted
            # member zlib.error/EOFError — none of which are OSError — and
            # a member of the wrong shape or dtype ValueError; a damaged
            # cache file must mean "rebuild", never a crash.
            self._book("invalid")
            return None
        if version == _NULL_VECTORS_ONLY:
            self._persist(fps, params, hierarchy)
        self._book("disk_hits", tier="disk")
        return hierarchy
