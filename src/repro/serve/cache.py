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
* optional disk persistence of the built hierarchy, one file per key:
  its :meth:`~MultigridHierarchy.arrays` (null vectors, transfer bases,
  Galerkin coarse operators) and its
  :meth:`~MultigridHierarchy.streamed_arrays` (what the cycle streams at
  the configured precisions: reduced-precision bases, distinct-neighbour
  and parity tables, the coarsest LU factors).  A restarted service
  maps the file and holds every array as a read-only view into the map
  (:meth:`~MultigridHierarchy.from_arrays`): it runs no relaxation, no
  QR and no Galerkin product, and its first solve gathers, inverts and
  factors nothing;
* revalidation on load: a stored entry is used only if it is a whole
  setup file and its recorded gauge/operator/params fingerprints match
  the live request, otherwise it is ``invalid``, a miss, and rebuilt.

The file (format version 3, the only one, :func:`write_setup_file` /
:func:`read_setup_file`) is a 24-byte prelude — magic, checksum, header
length, little-endian — then a JSON header (version, ``n_levels``, the
three fingerprints, and each array's name, dtype, shape, order and
offset), then the raw array payloads, each starting on a 64-byte
boundary, the file zero-padded to one.  It is written under a
temporary name and renamed into place, so no reader sees half of one
and a mapped file is never modified: a rewrite replaces the name, and
a hierarchy mapping the old file keeps reading it.

The checksum is the 64-bit modular sum of the little-endian words after
the checksum field — header, padding and payloads: one
``np.add.reduce`` over a ``uint64`` view of the map, at memory speed.
A flipped bit changes one word by ``±2^b``, which is never 0 modulo
``2^64``; an error burst of up to 64 bits spans at most two adjacent
words, and the changes it makes to them cannot cancel, so every
single-bit flip and every burst of up to 64 bits reads as damage.
Other damage is caught only with probability ``1 - 2^-64``, which is
the cache's bar: a damaged file must mean "rebuild", and it is not a
defence against a deliberate forgery.  A CRC would catch more patterns
but cost as much as reading the file.

Any other file at a key's name — the ``np.savez`` archives of earlier
formats among them — is not a setup file: it reads ``invalid`` and is
rebuilt and replaced, like a damaged one.  No key could name one: every
such file was written under a params fingerprint that no current
:class:`MGParams` produces.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from ..gauge.io import gauge_fingerprint
from ..mg.hierarchy import MultigridHierarchy
from ..mg.params import MGParams
from ..telemetry.metrics import get_registry
from ..telemetry.tracer import get_tracer

_DISK_VERSION = 3

_MAGIC = b"MGSETUP\x03"
#: magic, checksum, header length
_PRELUDE = struct.Struct("<8sQQ")
#: where the checksummed words begin: just after the checksum field
_SUMMED = 16
_ALIGN = 64

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


# -- the setup file --------------------------------------------------------


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _word_sum(words: np.ndarray) -> int:
    """The modular sum of little-endian 64-bit words."""
    return int(np.add.reduce(words.view("<u8"), dtype=np.uint64))


def write_setup_file(fh, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write one setup file to the binary file object ``fh``: the
    prelude, ``header`` (JSON values) with each array's layout added
    under ``"arrays"``, and the payloads, each in its own memory order
    (a Fortran-ordered array stays Fortran-ordered)."""
    entries, payloads, offset = [], [], 0
    for name, array in arrays.items():
        order = "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"
        payload = np.asarray(array, order=order)
        if payload.dtype.itemsize % 8:
            raise ValueError(f"setup array {name!r}: {payload.dtype} is not word-sized")
        entries.append({
            "name": name, "dtype": payload.dtype.str, "shape": list(payload.shape),
            "order": order, "offset": offset,
        })
        payloads.append(payload.ravel(order="K"))
        offset = _aligned(offset + payload.nbytes)
    head = json.dumps({**header, "arrays": entries}).encode()
    prelude = np.zeros(_aligned(_PRELUDE.size + len(head)), dtype=np.uint8)
    prelude[_PRELUDE.size : _PRELUDE.size + len(head)] = np.frombuffer(head, np.uint8)
    _PRELUDE.pack_into(prelude, 0, _MAGIC, 0, len(head))
    checksum = _word_sum(prelude[_SUMMED:]) + sum(_word_sum(p) for p in payloads)
    _PRELUDE.pack_into(prelude, 0, _MAGIC, checksum % 2**64, len(head))
    fh.write(prelude)
    for payload in payloads:
        fh.write(payload)
        fh.write(bytes(_aligned(payload.nbytes) - payload.nbytes))


def read_setup_file(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and arrays of the setup file at ``path``, every array a
    read-only view into one map of the file.  ``ValueError`` on a file
    that is not one, or is damaged (checksum, truncation, layout)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _ALIGN or size % _ALIGN:
            raise ValueError(f"not a setup file: {size} bytes")
        view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    magic, checksum, head_len = _PRELUDE.unpack_from(view)
    if magic != _MAGIC:
        raise ValueError("not a setup file: bad magic")
    if _word_sum(np.frombuffer(view, np.uint8, offset=_SUMMED)) != checksum:
        raise ValueError("setup file checksum mismatch")
    start = _aligned(_PRELUDE.size + head_len)
    header = json.loads(view[_PRELUDE.size : _PRELUDE.size + head_len])
    arrays = {}
    for entry in header.pop("arrays"):
        dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
        offset = start + entry["offset"]
        if offset + dtype.itemsize * int(np.prod(shape)) > size:
            raise ValueError(f"setup array {entry['name']!r} runs past the file")
        arrays[entry["name"]] = np.ndarray(
            shape, dtype, buffer=view, offset=offset, order=entry["order"]
        )
    return header, arrays


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
        ``mgsetup-<key>.npz`` setup file per entry holding the
        hierarchy's arrays and what its cycle streams (the name
        predates the format); a restart maps them instead of computing
        anything, and any file there that is not a whole setup file of
        the key is rebuilt and replaced.  ``None`` disables persistence.

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
            header = {"version": _DISK_VERSION, "n_levels": len(params.levels), **fps._asdict()}
            arrays = hierarchy.arrays() | hierarchy.streamed_arrays()
            fd, tmp = tempfile.mkstemp(
                prefix=f"mgsetup-{fps.key}.", suffix=".tmp", dir=self.disk_dir
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    write_setup_file(fh, header, arrays)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise

    def _restore(self, fps: _Fingerprints, op, params: MGParams):
        """Load the persisted hierarchy, or ``None``."""
        path = self._path(fps.key)
        if path is None or not os.path.exists(path):
            return None
        try:
            header, arrays = read_setup_file(path)
            ok = (
                header["version"] == _DISK_VERSION
                and all(header[name] == fp for name, fp in fps._asdict().items())
                and header["n_levels"] == len(params.levels)
            )
            if not ok:
                self._book("invalid")
                return None
            with get_tracer().span("serve.setup_cache.restore", version=_DISK_VERSION):
                hierarchy = MultigridHierarchy.from_arrays(op, params, arrays)
        except (OSError, ValueError, KeyError):
            # Anything but a whole setup file — damaged, truncated, empty
            # or of another format — fails read_setup_file (ValueError);
            # an array of the wrong shape or dtype raises ValueError and
            # a header missing a field KeyError.  A bad cache file must
            # mean "rebuild", never a crash.
            self._book("invalid")
            return None
        self._book("disk_hits", tier="disk")
        return hierarchy
