"""Exposition formats: Prometheus text and JSON snapshots.

Two renderings of one :class:`~repro.obs.registry.MetricsRegistry`:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4), byte-deterministic for a given registry state, so
  a scraper can read it verbatim and the golden tests can pin it
  exactly;
* :func:`render_json` — an indented JSON rendering of
  :meth:`~repro.obs.registry.MetricsRegistry.snapshot`, the form the
  benchmark harnesses embed in their ``BENCH_*.json`` artifacts.

:func:`write_metrics` picks the format from the file extension —
``.prom`` / ``.txt`` get Prometheus text, everything else JSON — which
is what ``repro ... --metrics-out FILE`` calls.
"""

from __future__ import annotations

import json
import math
from typing import List

__all__ = ["render_prometheus", "render_json", "write_metrics"]


def _format_value(value: float) -> str:
    """Prometheus-style number rendering: integral values lose the
    trailing ``.0``; non-finite values use the +Inf/-Inf/NaN spellings."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - nothing emits NaN today
        return "NaN"
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _label_block(names, values, extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.type}")
        names = family.label_names
        for values, cell in family.samples():
            if family.type == "histogram":
                cumulative = 0
                for bound, count in zip(cell.bounds, cell.bucket_counts):
                    cumulative += count
                    block = _label_block(
                        names, values, f'le="{_format_value(bound)}"'
                    )
                    lines.append(
                        f"{family.name}_bucket{block} {cumulative}"
                    )
                block = _label_block(names, values, 'le="+Inf"')
                lines.append(f"{family.name}_bucket{block} {cell.count}")
                block = _label_block(names, values)
                lines.append(
                    f"{family.name}_sum{block} {_format_value(cell.sum)}"
                )
                lines.append(f"{family.name}_count{block} {cell.count}")
            else:
                block = _label_block(names, values)
                lines.append(
                    f"{family.name}{block} {_format_value(cell.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(registry) -> str:
    """Render a registry snapshot as deterministic, indented JSON."""
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True)


def write_metrics(registry, path: str) -> str:
    """Write a registry to ``path``; the extension picks the format.

    ``.prom`` and ``.txt`` get the Prometheus text format, anything
    else the JSON snapshot.  Returns the format written (``"prometheus"``
    or ``"json"``) so callers can report it.
    """
    lower = path.lower()
    if lower.endswith((".prom", ".txt")):
        body, fmt = render_prometheus(registry), "prometheus"
    else:
        body, fmt = render_json(registry) + "\n", "json"
    with open(path, "w") as fh:
        fh.write(body)
    return fmt
