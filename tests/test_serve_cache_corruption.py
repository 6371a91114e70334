"""Disk-persistence failure paths of the setup cache.

A restarted service must treat *any* damaged cache file — truncated,
garbage, tampered, flipped in a single bit, or holding an array of
another shape or dtype — as a miss and rebuild, never crash: the cache
is an optimization, not a dependency.  A setup file is checksummed, so
damage anywhere in it reads as ``invalid``; the tampering cases are
written through the same writer, with a valid checksum, so that each
reaches the check behind it (fingerprints, members, shapes).  A write
that fails leaves no file behind and costs the request nothing, a file
is replaced while a hierarchy maps it without disturbing that
hierarchy, and a file of an earlier ``np.savez`` format is garbage
like any other.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.gauge import gauge_fingerprint
from repro.mg import MultigridSolver
from repro.mg.params import LevelParams, MGParams
from repro.serve import cache as cache_module
from repro.serve.cache import (
    SetupCache,
    read_setup_file,
    setup_cache_key,
    write_setup_file,
)
from repro.telemetry.metrics import get_registry

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def params():
    return MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=4, null_iters=10)],
        outer_tol=1e-6,
    )


@pytest.fixture()
def persisted(tmp_path, wilson448, params):
    """A cache directory holding one valid persisted setup."""
    cache = SetupCache(disk_dir=str(tmp_path))
    cache.get_or_build(wilson448, params, np.random.default_rng(3))
    key = setup_cache_key(wilson448, params)
    path = tmp_path / f"mgsetup-{key}.npz"
    assert path.exists()
    return tmp_path, path


def _rebuilds(tmp_path, wilson448, params):
    """A fresh cache over the same dir must rebuild (miss), not crash."""
    cache = SetupCache(disk_dir=str(tmp_path))
    hierarchy = cache.get_or_build(wilson448, params, np.random.default_rng(3))
    assert hierarchy is not None
    assert cache.stats["disk_hits"] == 0
    assert cache.stats["misses"] == 1
    return cache


def _contents(path):
    """The header and arrays of a setup file, copied out of its map."""
    header, arrays = read_setup_file(str(path))
    return header, {name: np.array(array) for name, array in arrays.items()}


def _write(path, header, arrays):
    """Write a setup file with a valid checksum, replacing ``path``
    whole, as the cache does (a mapped file is never written into)."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        write_setup_file(fh, header, arrays)
    os.replace(tmp, path)


def _rewrite(path, header=None, **changes):
    """Rewrite the persisted file with header fields and members replaced
    (``None`` drops a member)."""
    fields, payload = _contents(path)
    fields.update(header or {})
    payload.update(changes)
    _write(path, fields, {k: v for k, v in payload.items() if v is not None})


def test_valid_file_is_a_disk_hit(persisted, wilson448, params):
    tmp_path, _path = persisted
    cache = SetupCache(disk_dir=str(tmp_path))
    cache.get_or_build(wilson448, params, np.random.default_rng(3))
    assert cache.stats["disk_hits"] == 1
    assert cache.stats["misses"] == 0


def test_truncated_npz_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_empty_file_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    path.write_bytes(b"")
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_tampered_gauge_fingerprint_invalidates(persisted, wilson448, params):
    tmp_path, path = persisted
    _rewrite(path, header={"gauge_fp": "0" * 64})
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_missing_member_invalidates(persisted, wilson448, params):
    # a structurally valid file missing the null-vector arrays must be
    # rejected via the KeyError path, not KeyError-crash
    tmp_path, path = persisted
    header, _ = _contents(path)
    _write(path, header, {})
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_member_of_the_wrong_shape_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    _, arrays = _contents(path)
    _rewrite(path, basis0=arrays["basis0"][..., :-1])
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_member_of_the_wrong_dtype_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    _, arrays = _contents(path)
    _rewrite(path, x1=arrays["x1"].astype(np.complex64))
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_missing_coarse_operator_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    _rewrite(path, hop1=None)
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_missing_streamed_table_rebuilds(persisted, wilson448, params):
    # a version-3 file holds what the cycle streams; one without it is
    # not whole
    tmp_path, path = persisted
    _, arrays = _contents(path)
    streamed = sorted(name for name in arrays if name.startswith("schur1."))
    assert streamed
    _rewrite(path, **{streamed[0]: None})
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def _write_archive(path, savez, **members):
    """Replace ``path`` with an ``np.savez`` archive, as the earlier
    formats were written (through a file object: ``np.savez`` appends
    ".npz" to a bare path)."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        savez(fh, **members)
    os.replace(tmp, path)


def _garbage(path):
    path.write_bytes(b"\x00\x01this is not a zip archive\xff" * 64)


def _first_format(path):
    # as the first format wrote it: the null vectors and the
    # fingerprints, compressed
    header, arrays = _contents(path)
    fields = {k: header[k] for k in ("n_levels", "gauge_fp", "op_fp", "params_fp")}
    _write_archive(path, np.savez_compressed, version=1, level0=arrays["null0"], **fields)


def _second_format(path):
    # as the second format wrote it: an uncompressed archive of the
    # hierarchy's arrays and the fingerprints, no streamed tables
    header, arrays = _contents(path)
    fields = {k: header[k] for k in ("n_levels", "gauge_fp", "op_fp", "params_fp")}
    setup = {k: arrays[k] for k in ("null0", "basis0", "x1", "hop1")}
    _write_archive(path, np.savez, version=2, **fields, **setup)


NOT_A_SETUP_FILE = {"garbage": _garbage, "format-1": _first_format, "format-2": _second_format}


@pytest.mark.parametrize("write", sorted(NOT_A_SETUP_FILE))
def test_a_file_that_is_not_a_setup_file_rebuilds(persisted, wilson448, params, write):
    """Garbage, or an archive of an earlier format with the key's own
    fingerprints, reads invalid; the rebuild replaces it with a setup
    file that the next cache restores."""
    tmp_path, path = persisted
    NOT_A_SETUP_FILE[write](path)
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats == {
        "hits": 0, "disk_hits": 0, "misses": 1, "evictions": 0, "invalid": 1, "seeded": 0,
        "persist_failed": 0,
    }
    header, _ = read_setup_file(str(path))
    assert header["version"] == 3
    restored = SetupCache(disk_dir=str(tmp_path))
    restored.get_or_build(wilson448, params)
    assert (restored.stats["disk_hits"], restored.stats["misses"], restored.stats["invalid"]) == (
        1, 0, 0,
    )


def _regions(path):
    """Byte offsets of a setup file by what they hold: the prelude
    (magic, checksum, header length), the JSON header, the payloads, and
    the padding after the header and after each payload."""
    blob = path.read_bytes()
    head_len = int.from_bytes(blob[16:24], "little")
    _, arrays = read_setup_file(str(path))
    base = np.frombuffer(arrays["null0"].base, np.uint8).ctypes.data  # the map
    covered = np.zeros(len(blob), dtype=bool)
    covered[: 24 + head_len] = True
    payload = []
    for array in arrays.values():
        offset = array.ctypes.data - base
        covered[offset : offset + array.nbytes] = True
        payload.append((offset, offset + array.nbytes))
    return {
        "prelude": (0, 24), "header": (24, 24 + head_len),
        "padding": np.flatnonzero(~covered), "payload": payload,
    }


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_flipped_bit_anywhere_reads_invalid_and_is_repaired(
    tmp_path_factory, wilson448, params, data
):
    tmp_path = tmp_path_factory.mktemp("flip")
    SetupCache(disk_dir=str(tmp_path)).get_or_build(
        wilson448, params, np.random.default_rng(3)
    )
    path = tmp_path / f"mgsetup-{setup_cache_key(wilson448, params)}.npz"
    regions = _regions(path)
    assert len(regions["padding"])
    where = data.draw(st.sampled_from(sorted(regions)), label="region")
    if where == "padding":
        offset = data.draw(st.sampled_from(regions["padding"].tolist()), label="offset")
    else:
        lo, hi = regions[where] if where != "payload" else data.draw(
            st.sampled_from(regions["payload"]), label="member"
        )
        offset = data.draw(st.integers(lo, hi - 1), label="offset")
    bit = data.draw(st.integers(0, 7), label="bit")
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 1 << bit
    path.write_bytes(bytes(blob))
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1
    repaired = SetupCache(disk_dir=str(tmp_path))
    repaired.get_or_build(wilson448, params)
    assert (repaired.stats["disk_hits"], repaired.stats["invalid"]) == (1, 0)


@pytest.mark.chaos
def test_a_file_replaced_while_mapped_leaves_its_reader_whole(persisted, wilson448, params):
    """A restored hierarchy reads views into the map of its file; other
    caches persisting the same key (another hierarchy, three times over)
    replace the name, never the mapped bytes: the hierarchy still solves
    bitwise as before, and the file on disk is the last one written."""
    tmp_path, path = persisted
    mapped = SetupCache(disk_dir=str(tmp_path)).get_or_build(wilson448, params)
    b = np.random.default_rng(9).standard_normal((wilson448.lattice.volume, 4, 3)) + 0j
    before = MultigridSolver.from_hierarchy(mapped).solve(b, tol=1e-8)
    other = SetupCache().get_or_build(wilson448, params, np.random.default_rng(4))
    for _ in range(3):
        SetupCache(disk_dir=str(tmp_path)).seed(wilson448, params, other)
    after = MultigridSolver.from_hierarchy(mapped).solve(b, tol=1e-8)
    assert np.array_equal(after.x, before.x)
    assert after.iterations == before.iterations
    assert after.telemetry.level_stats == before.telemetry.level_stats
    _, arrays = read_setup_file(str(path))
    assert np.array_equal(arrays["null0"], other.arrays()["null0"])
    assert not np.array_equal(arrays["null0"], mapped.arrays()["null0"])


def test_failed_persist_leaves_no_file(tmp_path, wilson448, params, monkeypatch):
    """A write that dies halfway (a full disk) costs the disk copy, not
    the request: the hierarchy is returned and kept in memory, the
    failure is booked, and no partial file is left behind."""

    def dies_halfway(fh, header, arrays):
        write_setup_file(fh, header, dict(list(arrays.items())[: len(arrays) // 2]))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cache_module, "write_setup_file", dies_halfway)
    cache = SetupCache(disk_dir=str(tmp_path))
    telemetry.enable()
    telemetry.reset()
    try:
        hierarchy = cache.get_or_build(wilson448, params, np.random.default_rng(3))
        assert get_registry().value("serve.setup_cache.persist_failed") == 1
    finally:
        telemetry.disable()
    assert hierarchy is not None
    assert cache.stats["persist_failed"] == 1 and cache.stats["misses"] == 1
    assert os.listdir(tmp_path) == []
    assert cache.get_or_build(wilson448, params) is hierarchy
    assert cache.stats["hits"] == 1
    # seeding books the same way
    seeded = SetupCache(disk_dir=str(tmp_path))
    seeded.seed(wilson448, params, hierarchy)
    assert seeded.stats["persist_failed"] == 1 and os.listdir(tmp_path) == []
    monkeypatch.undo()
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 0


def test_two_caches_persisting_one_key_leave_one_valid_file(
    tmp_path, wilson448, params
):
    hierarchy = SetupCache().get_or_build(wilson448, params, np.random.default_rng(3))
    start = threading.Barrier(2)
    errors = []

    def persist() -> None:
        try:
            start.wait()
            for _ in range(3):
                SetupCache(disk_dir=str(tmp_path)).seed(wilson448, params, hierarchy)
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=persist) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not errors
    key = setup_cache_key(wilson448, params)
    assert os.listdir(tmp_path) == [f"mgsetup-{key}.npz"]
    cache = SetupCache(disk_dir=str(tmp_path))
    cache.get_or_build(wilson448, params)
    assert (cache.stats["disk_hits"], cache.stats["invalid"]) == (1, 0)


def test_rebuild_repairs_the_file(persisted, wilson448, params):
    tmp_path, path = persisted
    path.write_bytes(b"garbage")
    _rebuilds(tmp_path, wilson448, params)
    # the rebuild re-persisted a valid file: next cold cache disk-hits
    cache = SetupCache(disk_dir=str(tmp_path))
    cache.get_or_build(wilson448, params, np.random.default_rng(3))
    assert cache.stats["disk_hits"] == 1


class TestGaugeFingerprint:
    def test_sensitive_to_single_element(self, gauge448):
        before = gauge_fingerprint(gauge448)
        mutated = gauge448.copy()
        mutated.data[1, 7, 2, 0] += 1e-12
        assert gauge_fingerprint(mutated) != before
        # and the original is untouched (copy semantics)
        assert gauge_fingerprint(gauge448) == before

    def test_stable_across_recomputation(self, gauge448):
        assert gauge_fingerprint(gauge448) == gauge_fingerprint(gauge448)

    def test_distinct_fields_distinct_fingerprints(self, gauge448, gauge44):
        assert gauge_fingerprint(gauge448) != gauge_fingerprint(gauge44)


def test_key_depends_on_operator_scalars(wilson448, params, gauge448):
    from repro.dirac import WilsonCloverOperator

    other = WilsonCloverOperator(gauge448, mass=-0.25, c_sw=1.0)
    assert setup_cache_key(wilson448, params) != setup_cache_key(other, params)


def test_disk_disabled_never_touches_fs(tmp_path, wilson448, params, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = SetupCache()  # no disk_dir
    cache.get_or_build(wilson448, params, np.random.default_rng(3))
    assert os.listdir(tmp_path) == []
