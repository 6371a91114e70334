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


def _site_axes(ndim: int, components) -> tuple[int, ...]:
    """The axes holding one site's components, non-negative: by default
    every axis after the first (site-major ``(V, ...)`` data)."""
    if components is None:
        return tuple(range(1, ndim))
    return tuple(axis % ndim for axis in components)


def quantize_half(
    data: np.ndarray, components: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize complex site data to (int16 pairs, float32 scales).

    ``components`` are the axes that hold one site's components; every
    other axis indexes sites.  By default that is site-major ``(V, ...)``
    data; a site-fastest stack names its colour and spin axes.  The
    per-site maximum is order-independent, so the same sites give
    bitwise the same result in either layout.

    Returns
    -------
    fixed:
        int16 array of shape ``data.shape + (2,)`` holding (re, im) fractions.
    scale:
        float32 array of the per-site max norm: ``data.shape`` without the
        component axes (``(V,)`` for site-major data).
    """
    data = np.asarray(data)
    axes = _site_axes(data.ndim, components) + (data.ndim,)
    reals = np.stack([data.real, data.imag], axis=-1)
    scale = np.abs(reals).max(axis=axes).astype(np.float32)
    per_site = np.expand_dims(scale, axes)
    safe = np.where(per_site > 0, per_site, 1.0).astype(np.float32)
    frac = reals / safe
    fixed = np.rint(frac * _FIXED_MAX).astype(np.int16)
    return fixed, scale


def dequantize_half(
    fixed: np.ndarray,
    scale: np.ndarray,
    dtype=np.complex128,
    components: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Reconstruct complex data (at ``dtype``) from :func:`quantize_half`
    output, with the same ``components``."""
    axes = _site_axes(fixed.ndim - 1, components) + (fixed.ndim - 1,)
    real = np.finfo(dtype).dtype  # float32 for complex64
    flat = fixed.astype(real)
    flat *= np.expand_dims(scale.astype(real) / real.type(_FIXED_MAX), axes)
    out = np.empty(flat.shape[:-1], dtype=dtype)
    out.real, out.imag = flat[..., 0], flat[..., 1]
    return out


def half_roundtrip(
    data: np.ndarray, components: tuple[int, ...] | None = None
) -> np.ndarray:
    """Round ``data`` through half-precision storage (quantize +
    dequantize), one scale per site (see :func:`quantize_half` for
    ``components``); complex64 data comes back complex64, anything else
    complex128."""
    fixed, scale = quantize_half(data, components)
    wide = np.asarray(data).dtype != np.complex64
    return dequantize_half(
        fixed, scale, np.complex128 if wide else np.complex64, components
    )
