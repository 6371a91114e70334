"""Run-time precision policy: precision is the dtype of the data.

QUDA elevates field precision to a run-time property (Section 4): each
field carries its precision and mixed-precision solvers convert at the
boundaries between outer and inner iterations.  Here the carrier is the
NumPy dtype.  ``double`` is complex128 and ``single`` is complex64,
*held and computed* at that width: operators and transfers compute at
the dtype of the field they are handed (reading reduced-precision
copies of their tables, :func:`reduced`), and the components that own a
precision cast at their own boundary (:func:`enter_precision` /
:func:`leave_precision`).  ``half`` has no native dtype: it computes in
complex64 and additionally rounds fields through QUDA's 16-bit
block-normalized fixed-point storage (see :mod:`repro.precision.half`).
"""

from __future__ import annotations

import enum

import numpy as np

from .half import half_roundtrip

COMPLEX64 = np.dtype(np.complex64)
COMPLEX128 = np.dtype(np.complex128)


class Precision(enum.Enum):
    """Precision a field is held and computed at."""

    DOUBLE = "double"
    SINGLE = "single"
    HALF = "half"

    @property
    def bytes_per_real(self) -> float:
        """Storage cost per real number, used by the performance models.

        Half precision costs slightly over 2 bytes per real because of
        the per-site float32 norm (amortized over 24 reals for a spinor).
        """
        return {"double": 8.0, "single": 4.0, "half": 2.0}[self.value]


def dtype_of(precision: Precision) -> np.dtype:
    """Computation dtype used while a field is held at ``precision``."""
    return COMPLEX128 if precision is Precision.DOUBLE else COMPLEX64


def compute_dtype(field: np.ndarray) -> np.dtype:
    """The dtype an operator computes at for ``field``: complex64 for a
    complex64 field, complex128 for anything else."""
    return COMPLEX64 if field.dtype == COMPLEX64 else COMPLEX128


def reduced(owner, name: str, dtype: np.dtype) -> np.ndarray:
    """The table ``owner.<name>`` at ``dtype``.

    The complex128 original itself when that is what is asked for;
    otherwise a copy cast once, on first use, and kept on ``owner`` —
    so a precision nothing computes at is never paid for.
    """
    table = getattr(owner, name)
    if table.dtype == dtype:
        return table
    copies = owner.__dict__.setdefault("_reduced", {})
    key = (name, dtype)
    if key not in copies:
        copies[key] = table.astype(dtype)
    return copies[key]


def adopt_reduced(owner, name: str, dtype: np.dtype, table: np.ndarray) -> None:
    """Hold ``table`` as the ``dtype`` copy :func:`reduced` would cast of
    ``owner.<name>``: how a restored setup holds a copy it read from disk."""
    owner.__dict__.setdefault("_reduced", {})[(name, np.dtype(dtype))] = table


def enter_precision(
    stack: np.ndarray, precision: Precision
) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``(K, ...)`` ``stack`` at the compute dtype of ``precision``,
    and the factors :func:`leave_precision` multiplies back.

    A stack already at that dtype is returned as is: no copy, no factor,
    bitwise the arithmetic of the caller.  A down-cast first scales each
    system to unit norm, so float32 range never depends on the scale of
    the caller's data; what consumes the stack is linear, so rescaling
    its result is exact.
    """
    dtype = dtype_of(precision)
    if stack.dtype == dtype:
        return stack, None
    if dtype == COMPLEX128:
        return stack.astype(dtype), None
    norms = np.linalg.norm(stack.reshape(stack.shape[0], -1), axis=1)
    norms[norms == 0.0] = 1.0
    scale = norms.reshape((-1,) + (1,) * (stack.ndim - 1))
    return (stack / scale).astype(dtype), scale


def leave_precision(result: np.ndarray, caller: np.ndarray, scale) -> np.ndarray:
    """``result`` back at the dtype and scale of the ``caller``'s stack
    that :func:`enter_precision` took in."""
    out = result.astype(compute_dtype(caller), copy=False)
    if scale is not None:
        out *= scale  # a down-cast came in, so ``out`` is a fresh copy
    return out


def rel_epsilon(precision: Precision) -> float:
    """Unit roundoff of the storage format (half: 2^-15 block fixed point)."""
    return {
        Precision.DOUBLE: float(np.finfo(np.float64).eps),
        Precision.SINGLE: float(np.finfo(np.float32).eps),
        Precision.HALF: 2.0**-15,
    }[precision]


def apply_precision(data: np.ndarray, precision: Precision) -> np.ndarray:
    """Round ``data`` through the storage format of ``precision`` and
    return it at the dtype it came in (a storage round trip, not a cast).

    ``data`` has shape ``(V, ...)`` with one site per leading-axis entry;
    half-precision normalization is per site, as in QUDA.
    """
    if precision is Precision.DOUBLE:
        return np.ascontiguousarray(data, dtype=np.complex128)
    if precision is Precision.SINGLE:
        return data.astype(np.complex64).astype(compute_dtype(data))
    return half_roundtrip(data)
