"""Per-span and per-level performance attribution of measured traces.

The solver hot paths book ``flops``/``bytes`` costs onto their spans
(:meth:`repro.telemetry.Span.attribute`); this module turns a measured
``repro.telemetry/v1`` document into a performance-annotated one:

* :func:`attribute_trace` adds ``gflops``, ``gbs``,
  ``arithmetic_intensity`` and ``roofline_fraction`` to every span that
  carries a cost, pairing the cost with the span's *self* time (costs
  are booked exclusively, exactly like self-times, so no work is
  counted twice);
* :func:`aggregate_level_costs` adds the derived rates to every row of
  the per-(level, phase) :func:`~repro.telemetry.span_table` — the
  measured analogue of the paper's Figure 4 wallclock breakdown with
  Figure 2's fraction-of-roofline column attached;
* :func:`roofline_table` renders that as the table ``repro trace``
  prints.

The roofline defaults to the paper's K20X; pass ``device=`` to rate the
trace against another entry of :data:`repro.gpu.device.DEVICES`.  The
absolute fractions of a NumPy-measured trace are of course far below
the GPU roof — the point is that the *relative* per-level attribution
and the trend across PRs are checkable quantities, and the same
machinery prices modeled traces where the fractions are meaningful.
"""

from __future__ import annotations

from typing import Iterable

from ..telemetry.export import iter_span_dicts, self_seconds, span_table
from .roofline import Roofline, resolve_roofline

# span attrs consumed / produced by the attribution pass
COST_ATTRS = ("flops", "bytes")
DERIVED_ATTRS = ("gflops", "gbs", "arithmetic_intensity", "roofline_fraction")


def derive_rates(
    flops: float, nbytes: float, seconds: float, roofline: Roofline
) -> dict[str, float]:
    """Achieved rates + roofline fraction for one (cost, time) pairing."""
    if seconds <= 0.0:
        return {name: 0.0 for name in DERIVED_ATTRS}
    gflops = flops / seconds / 1e9
    gbs = nbytes / seconds / 1e9
    intensity = flops / nbytes if nbytes > 0.0 else 0.0
    return {
        "gflops": gflops,
        "gbs": gbs,
        "arithmetic_intensity": intensity,
        "roofline_fraction": roofline.fraction(gflops, intensity),
    }


def attribute_trace(doc: dict, device=None) -> dict:
    """Annotate a trace document in place with per-span derived rates.

    Every span whose ``attrs`` carry ``flops`` or ``bytes`` gains the
    four :data:`DERIVED_ATTRS`; the document ``meta`` records the
    roofline used.  Returns ``doc`` for chaining.
    """
    roofline = resolve_roofline(device)
    for span in iter_span_dicts(doc.get("spans", [])):
        attrs = span.setdefault("attrs", {})
        flops = float(attrs.get("flops", 0.0))
        nbytes = float(attrs.get("bytes", 0.0))
        if flops <= 0.0 and nbytes <= 0.0:
            continue
        attrs.update(derive_rates(flops, nbytes, self_seconds(span), roofline))
    doc.setdefault("meta", {})["perf"] = {"roofline": roofline.to_dict()}
    return doc


def aggregate_level_costs(
    spans: Iterable[dict], device=None
) -> dict[tuple[int, str], dict[str, float]]:
    """The :func:`~repro.telemetry.span_table` with derived rates per row.

    Each (level, span-name) row's summed ``flops``/``bytes`` are paired
    with its summed self-time into GFLOPS, GB/s, intensity and roofline
    fraction.
    """
    roofline = resolve_roofline(device)
    return {
        key: {
            **row,
            **derive_rates(row["flops"], row["bytes"], row["self_s"], roofline),
        }
        for key, row in span_table(spans).items()
    }


def roofline_table(
    costs: dict[tuple[int, str], dict[str, float]],
    roofline: Roofline | None = None,
    title: str | None = None,
) -> str:
    """Render :func:`aggregate_level_costs` output as an aligned table."""
    roofline = roofline if roofline is not None else resolve_roofline(None)
    if title is None:
        title = (
            f"roofline attribution vs {roofline.name} "
            f"({roofline.peak_gflops:.0f} GFLOPS / {roofline.stream_gbs:.0f} GB/s)"
        )
    header = [
        "level", "phase", "seconds", "gflop", "gbyte",
        "GFLOPS", "GB/s", "AI", "roof%",
    ]
    rows: list[list[str]] = []
    for (level, name), b in sorted(
        costs.items(), key=lambda kv: (kv[0][0], -kv[1]["self_s"])
    ):
        if b["flops"] <= 0.0 and b["bytes"] <= 0.0:
            continue
        rows.append(
            [
                str(level),
                name,
                f"{b['self_s']:.4g}",
                f"{b['flops'] / 1e9:.4g}",
                f"{b['bytes'] / 1e9:.4g}",
                f"{b['gflops']:.4g}",
                f"{b['gbs']:.4g}",
                f"{b['arithmetic_intensity']:.3g}",
                f"{100.0 * b['roofline_fraction']:.3g}",
            ]
        )
    if not rows:
        return title + "\n(no attributed spans)"
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
