"""QUDA-style 16-bit block-normalized fixed-point ("half") storage.

QUDA's custom half format (paper Section 4, strategy (c)) stores each
site's spinor/gauge components as int16 fractions of a per-site float32
maximum norm.  Combined with reliable-update mixed-precision solvers
this achieves high speed with no loss in final accuracy.

We emulate exactly that storage: per leading-axis block (one lattice
site), find the max absolute real component, store components as
``round(x / max * 32767)`` in int16, and reconstruct.
"""

from __future__ import annotations

import numpy as np

_FIXED_MAX = 32767  # int16 positive range


def quantize_half(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantize complex site data ``(V, ...)`` to (int16 pairs, float32 scales).

    Returns
    -------
    fixed:
        int16 array of shape ``(V, ..., 2)`` holding (re, im) fractions.
    scale:
        float32 array of shape ``(V,)`` holding the per-site max norm.
    """
    data = np.asarray(data)
    v = data.shape[0]
    reals = np.stack([data.real, data.imag], axis=-1).reshape(v, -1)
    scale = np.abs(reals).max(axis=1).astype(np.float32)
    safe = np.where(scale > 0, scale, 1.0).astype(np.float32)
    frac = reals / safe[:, None]
    fixed = np.rint(frac * _FIXED_MAX).astype(np.int16)
    return fixed.reshape(data.shape + (2,)), scale


def dequantize_half(
    fixed: np.ndarray, scale: np.ndarray, dtype=np.complex128
) -> np.ndarray:
    """Reconstruct complex data (at ``dtype``) from :func:`quantize_half` output."""
    v = fixed.shape[0]
    real = np.finfo(dtype).dtype  # float32 for complex64
    flat = fixed.reshape(v, -1, 2).astype(real)
    flat *= (scale.astype(real) / real.type(_FIXED_MAX))[:, None, None]
    out = np.empty(flat.shape[:-1], dtype=dtype)
    out.real, out.imag = flat[..., 0], flat[..., 1]
    return out.reshape(fixed.shape[:-1])


def half_roundtrip(data: np.ndarray) -> np.ndarray:
    """Round ``data`` through half-precision storage (quantize +
    dequantize); complex64 data comes back complex64, anything else
    complex128."""
    fixed, scale = quantize_half(data)
    wide = np.asarray(data).dtype != np.complex64
    return dequantize_half(fixed, scale, np.complex128 if wide else np.complex64)
