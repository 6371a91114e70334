"""Solve service: request queue, dynamic multi-RHS batching, setup cache."""

from . import slog
from .bench import render_table, run_serve_bench
from .cache import SetupCache, operator_fingerprint, setup_cache_key
from .counters import Counters
from .service import (
    ServeConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    SolveService,
    SolveTimeoutError,
)

__all__ = [
    "Counters",
    "ServeConfig",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "SetupCache",
    "SolveService",
    "SolveTimeoutError",
    "operator_fingerprint",
    "render_table",
    "run_serve_bench",
    "setup_cache_key",
    "slog",
]
