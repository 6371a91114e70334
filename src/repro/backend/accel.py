"""Optional accelerated backends — auto-registered only when importable.

Neither numba nor cupy is a dependency of this package; these backends
exist so that an environment that *does* have them picks up the extra
formulations without any code change, and an environment that does not
loses nothing (the registry simply never lists them).  Registration is
attempted once at import of :mod:`repro.backend`; any import error,
missing device, or version incompatibility silently skips the backend.

* ``numba`` — JIT-compiled fused coarse-stencil and block-multiply
  loops (parallel over sites), layered on top of the einsum backend's
  GEMM formulations for everything else.
* ``cupy`` — device-resident gather-GEMM coarse stencil; requires at
  least one visible CUDA device, not just an importable module.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from ..precision import compute_dtype, reduced
from .einsum_backend import EinsumBackend, _has_dense_blocks


def _make_numba_backend():
    import numba

    @numba.njit(cache=True, parallel=True)
    def _coarse_apply_jit(x_blocks, hop_blocks, fwd, bwd, flat, out):
        vol = flat.shape[0]
        for site in numba.prange(vol):
            acc = x_blocks[site] @ flat[site]
            for mu in range(4):
                acc = acc + hop_blocks[mu, 0, site] @ flat[fwd[mu, site]]
                acc = acc + hop_blocks[mu, 1, site] @ flat[bwd[mu, site]]
            out[site] = acc

    @numba.njit(cache=True, parallel=True)
    def _dense_blocks_jit(mats, flat, out):
        for site in numba.prange(flat.shape[0]):
            out[site] = mats[site] @ flat[site]

    class NumbaBackend(EinsumBackend):
        """JIT-fused coarse stencil loops (numba), einsum elsewhere."""

        name = "numba"
        description = (
            "numba-JIT fused coarse-stencil loops (parallel over sites) "
            "over the einsum backend's GEMM formulations"
        )

        def coarse_apply(self, op, v: np.ndarray) -> np.ndarray:
            if not _has_dense_blocks(op):
                return super().coarse_apply(op, v)
            lat = op.lattice
            n = op.ns * op.nc
            flat = np.ascontiguousarray(v.reshape(lat.volume, n))
            out = np.empty_like(flat)
            fwd = np.ascontiguousarray(np.stack(list(lat.fwd)))
            bwd = np.ascontiguousarray(np.stack(list(lat.bwd)))
            dtype = compute_dtype(v)
            _coarse_apply_jit(
                reduced(op, "x_blocks", dtype), reduced(op, "hop_blocks", dtype),
                fwd, bwd, flat, out,
            )
            return out.reshape(v.shape)

        def dense_blocks_apply(self, mats: np.ndarray, v: np.ndarray) -> np.ndarray:
            vol, n, _ = mats.shape
            flat = np.ascontiguousarray(v.reshape(vol, n))
            out = np.empty_like(flat)
            _dense_blocks_jit(mats, flat, out)
            return out.reshape(v.shape)

    return NumbaBackend()


def _make_cupy_backend():
    import cupy

    if cupy.cuda.runtime.getDeviceCount() < 1:
        raise RuntimeError("no CUDA device visible")

    class CupyBackend(EinsumBackend):
        """Device-resident gather-GEMM coarse stencil (cupy)."""

        name = "cupy"
        description = (
            "cupy device-resident gather-GEMM coarse stencil; host "
            "round-trips at the protocol boundary"
        )

        def _device_tables(self, op, dtype):
            def build():
                cat, idx = self._coarse_tables(op, True, dtype)
                return cupy.asarray(cat), cupy.asarray(idx)

            return self.op_cache(op, "cupy_cat9", build, dtype)

        def coarse_apply_multi(self, op, vs: np.ndarray) -> np.ndarray:
            if not _has_dense_blocks(op):
                return super().coarse_apply_multi(op, vs)
            cat, idx = self._device_tables(op, compute_dtype(vs))
            k, vol = vs.shape[0], vs.shape[1]
            n = cat.shape[1]
            flat = cupy.asarray(vs.reshape(k, vol, n)).transpose(1, 2, 0)
            gathered = flat[idx].transpose(1, 0, 2, 3).reshape(
                vol, idx.shape[0] * n, k
            )
            out = cupy.matmul(cat, gathered).transpose(2, 0, 1)
            return cupy.asnumpy(out).reshape(vs.shape)

        def coarse_apply(self, op, v: np.ndarray) -> np.ndarray:
            if not _has_dense_blocks(op):
                return super().coarse_apply(op, v)
            return self.coarse_apply_multi(op, v[None])[0]

    return CupyBackend()


def register_optional_backends(register) -> list[str]:
    """Try to build and register every optional backend; returns the
    names that made it.  Never raises: a missing module, missing GPU or
    broken install must leave the required backends untouched."""
    registered = []
    for module, factory in (("numba", _make_numba_backend), ("cupy", _make_cupy_backend)):
        try:
            if importlib.util.find_spec(module) is None:
                continue
            backend = factory()
        except Exception:  # noqa: BLE001 — optional by contract
            continue
        register(backend)
        registered.append(backend.name)
    return registered
