"""Performance observability on top of :mod:`repro.telemetry`.

PR 1 made the solver measurable in *seconds*; this package makes the
seconds mean something, closing the loop the paper's quantitative
claims live in:

* :mod:`~repro.perf.roofline` — the two-ceiling machine model (peak
  GFLOPS, STREAM GB/s) Figure 2's "80 % of STREAM" is stated against;
* :mod:`~repro.perf.attribution` — pairs the ``flops``/``bytes`` costs
  the hot paths book onto their spans with measured self-times, adding
  achieved GFLOPS, GB/s, arithmetic intensity and roofline fraction to
  every span and per-(level, phase) bucket (Figure 4's breakdown with
  Figure 2's column attached);
* :mod:`~repro.perf.ledger` — ``repro bench run``: curated measurement
  suites persisted to a content-addressed ledger plus the committed
  baseline ``BENCH_<suite>.json`` at the repo root;
* :mod:`~repro.perf.diff` — ``repro perf diff``: median-of-k + MAD
  noise-aware comparison of two ledger entries or two trace documents,
  exiting nonzero on regression (the CI gate every future PR inherits).
"""

from __future__ import annotations

from .attribution import (
    aggregate_level_costs,
    attribute_trace,
    roofline_table,
)
from .diff import PerfDiff, compare_documents, series_from_document
from .ledger import (
    BENCH_SCHEMA,
    append_entry,
    bench_document,
    entry_digest,
    git_metadata,
    median_mad,
    run_suite,
)
from .roofline import Roofline, resolve_roofline

__all__ = [
    "BENCH_SCHEMA",
    "PerfDiff",
    "Roofline",
    "aggregate_level_costs",
    "append_entry",
    "attribute_trace",
    "bench_document",
    "compare_documents",
    "entry_digest",
    "git_metadata",
    "median_mad",
    "resolve_roofline",
    "roofline_table",
    "run_suite",
    "series_from_document",
]
