"""Precision as the dtype of the data: double / single native, half
(QUDA block fixed point) as storage rounding on top of complex64."""

from .half import dequantize_half, half_roundtrip, quantize_half
from .policy import (
    COMPLEX64,
    COMPLEX128,
    Precision,
    adopt_reduced,
    apply_precision,
    compute_dtype,
    dtype_of,
    enter_precision,
    leave_precision,
    reduced,
    rel_epsilon,
)

__all__ = [
    "COMPLEX64",
    "COMPLEX128",
    "Precision",
    "adopt_reduced",
    "apply_precision",
    "compute_dtype",
    "dtype_of",
    "enter_precision",
    "leave_precision",
    "reduced",
    "rel_epsilon",
    "quantize_half",
    "dequantize_half",
    "half_roundtrip",
]
