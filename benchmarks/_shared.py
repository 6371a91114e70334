"""Shared, lazily-memoized measurement state for the benchmark suite.

The Table 3 / Figure 3 / Figure 4 benchmarks all consume the same
measured solver data; running the real solves once per process keeps
``pytest benchmarks/`` inside a sensible wallclock.  Set
``REPRO_BENCH_RHS`` to raise the number of right-hand sides per solver
(default 1; the paper uses 12).

Persistence: every benchmark module records its headline measurements
through :func:`record_row`; when ``REPRO_BENCH_OUT`` names a directory,
``benchmarks/conftest.py`` flushes one ``repro.bench/v1`` envelope per
module there at session end (plus the raw pytest-benchmark timings it
collects automatically), so *all* benchmarks persist uniformly — the
ledger (``repro bench run``, :mod:`repro.perf.ledger`) and ``repro
perf diff`` consume the same envelope.
"""

from __future__ import annotations

import os
import pathlib
from functools import lru_cache

from repro.machine import MachineModel
from repro.perf.ledger import BENCH_SCHEMA, bench_document  # noqa: F401 (re-export)
from repro.reporting.experiments import measure_dataset, price_dataset
from repro.telemetry import write_document
from repro.workloads import PAPER_DATASETS, SCALED_FOR_PAPER

N_RHS = int(os.environ.get("REPRO_BENCH_RHS", "1"))

# Destination directory for collected measurement envelopes (optional).
BENCH_OUT = os.environ.get("REPRO_BENCH_OUT")

# rows accumulated by record_row(), keyed by envelope (module) name
_COLLECTED: dict[str, list[dict]] = {}


def write_bench_document(
    name: str, rows: list[dict], meta: dict | None = None
) -> dict:
    """Build a bench document and, if ``REPRO_BENCH_OUT`` is set,
    persist it there as ``<name>.json``.  Returns the document."""
    doc = bench_document(name, rows, meta)
    if BENCH_OUT:
        write_document(pathlib.Path(BENCH_OUT) / f"{name}.json", doc)
    return doc


def record_row(envelope: str, **fields) -> dict:
    """Queue one flat measurement row for the ``<envelope>.json`` document.

    Benchmark tests call this with their headline numbers (iteration
    counts, model seconds, throughput); the session-finish hook in
    ``benchmarks/conftest.py`` wraps each envelope's rows via
    :func:`repro.perf.bench_document` and writes them to
    ``REPRO_BENCH_OUT``.  A no-op sink when the variable is unset, so
    interactive runs pay nothing.
    """
    row = dict(fields)
    _COLLECTED.setdefault(envelope, []).append(row)
    return row


def flush_bench_documents(extra: dict[str, list[dict]] | None = None) -> list:
    """Write every queued envelope to ``REPRO_BENCH_OUT``; returns paths."""
    merged: dict[str, list[dict]] = {}
    for source in (_COLLECTED, extra or {}):
        for name, rows in source.items():
            merged.setdefault(name, []).extend(rows)
    if not BENCH_OUT:
        return []
    paths = []
    for name, rows in sorted(merged.items()):
        if rows:
            write_bench_document(name, rows, meta={"n_rhs": N_RHS})
            paths.append(pathlib.Path(BENCH_OUT) / f"{name}.json")
    return paths


@lru_cache(maxsize=None)
def measured(label: str):
    """Measured solver comparison for one scaled dataset (cached)."""
    return measure_dataset(SCALED_FOR_PAPER[label], n_rhs=N_RHS, verbose=False)


@lru_cache(maxsize=None)
def machine_model():
    return MachineModel()


@lru_cache(maxsize=None)
def priced_rows(label: str, mode: str = "measured"):
    paper = PAPER_DATASETS[label]
    m = measured(label) if mode == "measured" else None
    return price_dataset(paper, m, machine_model())
