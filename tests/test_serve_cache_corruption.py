"""Disk-persistence failure paths of the setup cache.

A restarted service must treat *any* damaged cache file — truncated,
garbage, tampered, or holding an array of another shape or dtype — as a
miss and rebuild, never crash: the cache is an optimization, not a
dependency.  Truncation is the interesting case: ``np.load`` raises
``zipfile.BadZipFile`` (not ``OSError``) for it, a path that was
previously uncaught.  A write that fails leaves no file behind, and a
file of the first format (null vectors only) is still used.
"""

from __future__ import annotations

import io
import os
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.gauge import gauge_fingerprint
from repro.mg.params import LevelParams, MGParams
from repro.serve.cache import SetupCache, setup_cache_key
from repro.telemetry.tracer import get_tracer

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


def test_garbage_bytes_rebuild(persisted, wilson448, params):
    tmp_path, path = persisted
    path.write_bytes(b"\x00\x01this is not a zip archive\xff" * 64)
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_empty_file_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    path.write_bytes(b"")
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_tampered_gauge_fingerprint_invalidates(persisted, wilson448, params):
    tmp_path, path = persisted
    with np.load(path) as data:
        payload = dict(data)
    payload["gauge_fp"] = np.array("0" * 64)
    np.savez_compressed(path, **payload)
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_missing_member_invalidates(persisted, wilson448, params):
    # a structurally valid npz missing the null-vector arrays must be
    # rejected via the KeyError path, not KeyError-crash
    tmp_path, path = persisted
    with np.load(path) as data:
        payload = {
            k: data[k] for k in ("version", "n_levels", "gauge_fp", "op_fp",
                                 "params_fp")
        }
    np.savez_compressed(path, **payload)
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def _rewrite(path, **changes):
    """Rewrite the persisted file with members replaced (``None`` drops one)."""
    with np.load(path) as data:
        payload = dict(data)
    payload.update(changes)
    np.savez(path, **{k: v for k, v in payload.items() if v is not None})


def test_member_of_the_wrong_shape_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    with np.load(path) as data:
        basis = data["basis0"]
    _rewrite(path, basis0=basis[..., :-1])
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_member_of_the_wrong_dtype_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    with np.load(path) as data:
        x = data["x1"]
    _rewrite(path, x1=x.astype(np.complex64))
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_missing_coarse_operator_rebuilds(persisted, wilson448, params):
    tmp_path, path = persisted
    _rewrite(path, hop1=None)
    cache = _rebuilds(tmp_path, wilson448, params)
    assert cache.stats["invalid"] == 1


def test_first_format_file_is_a_disk_hit_and_is_upgraded(persisted, wilson448, params):
    # a file as the first format wrote it: the null vectors and the
    # fingerprints, compressed
    tmp_path, path = persisted
    with np.load(path) as data:
        header = {k: data[k] for k in ("n_levels", "gauge_fp", "op_fp", "params_fp")}
        nulls = data["null0"]
    path.unlink()
    np.savez_compressed(path, version=1, level0=nulls, **header)
    upgraded = SetupCache(disk_dir=str(tmp_path))
    first = upgraded.get_or_build(wilson448, params)
    assert (upgraded.stats["disk_hits"], upgraded.stats["misses"]) == (1, 0)
    assert upgraded.stats["invalid"] == 0
    with np.load(path) as data:
        assert int(data["version"]) == 2
    telemetry.enable()
    telemetry.reset()
    try:
        cache = SetupCache(disk_dir=str(tmp_path))
        second = cache.get_or_build(wilson448, params)
        assert not get_tracer().find("coarsen")
    finally:
        telemetry.disable()
        telemetry.reset()
    assert cache.stats["disk_hits"] == 1
    for name, array in first.arrays().items():
        assert np.array_equal(second.arrays()[name], array)


def test_failed_persist_leaves_no_file(tmp_path, wilson448, params, monkeypatch):
    savez = np.savez

    def dies_halfway(fh, **arrays):
        whole = io.BytesIO()
        savez(whole, **arrays)
        fh.write(whole.getvalue()[: whole.tell() // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", dies_halfway)
    with pytest.raises(OSError, match="No space"):
        SetupCache(disk_dir=str(tmp_path)).get_or_build(
            wilson448, params, np.random.default_rng(3)
        )
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []
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


def test_key_ignores_verify_level(wilson448, params):
    verified = MGParams(
        levels=params.levels, outer_tol=params.outer_tol, verify_level="solve"
    )
    assert setup_cache_key(wilson448, params) == setup_cache_key(
        wilson448, verified
    )


def test_disk_disabled_never_touches_fs(tmp_path, wilson448, params, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = SetupCache()  # no disk_dir
    cache.get_or_build(wilson448, params, np.random.default_rng(3))
    assert os.listdir(tmp_path) == []
