"""Validators for the machine-readable observability documents.

Two document families share this module:

* ``repro.trace/v1`` — a :class:`~repro.obs.trace.QueryTrace` export
  (``trace.to_dict()`` / ``--trace-json FILE``).
* ``repro.metrics/v1`` — a workload-telemetry export
  (:meth:`~repro.obs.metrics.MetricsRegistry.to_dict` /
  :meth:`~repro.obs.worklog.Telemetry.to_dict` / ``--metrics-out FILE``),
  optionally carrying the worklog (whose slow queries embed full
  ``repro.trace/v1`` sub-documents, validated recursively).

:func:`validate_document` dispatches on the ``schema`` tag, so
``python -m repro.obs FILE...`` auto-detects which family a file is.
Validation is hand-rolled (no jsonschema dependency): each checker
raises :class:`SchemaError` with a JSON-pointer-ish path on the first
violation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.trace import TRACE_SCHEMA


class SchemaError(ValueError):
    """A document does not match its declared schema."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _int(value: Any, path: str, *, optional: bool = False) -> None:
    if optional and value is None:
        return
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        path,
        f"expected an integer, got {type(value).__name__}",
    )


def _number(value: Any, path: str) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        path,
        f"expected a number, got {type(value).__name__}",
    )


def _str(value: Any, path: str, *, optional: bool = False) -> None:
    if optional and value is None:
        return
    _require(isinstance(value, str), path, f"expected a string, got {type(value).__name__}")


# --------------------------------------------------------------------------
# repro.trace/v1


_SPAN_FIELDS = {
    "name",
    "kind",
    "elapsed_ms",
    "rows_in",
    "rows_out",
    "steps",
    "matches",
    "peak_rows",
    "meta",
    "counts",
    "events",
    "children",
}


def validate_span(span: Any, path: str = "root") -> None:
    """Validate one span dict (recursively) of a trace document."""
    _require(isinstance(span, dict), path, "span must be an object")
    missing = _SPAN_FIELDS - span.keys()
    _require(not missing, path, f"span is missing fields {sorted(missing)}")
    _str(span["name"], f"{path}.name")
    _str(span["kind"], f"{path}.kind")
    _number(span["elapsed_ms"], f"{path}.elapsed_ms")
    for counter in ("rows_in", "rows_out", "steps", "matches"):
        _int(span[counter], f"{path}.{counter}")
    _int(span["peak_rows"], f"{path}.peak_rows", optional=True)
    _require(isinstance(span["meta"], dict), f"{path}.meta", "must be an object")
    _require(isinstance(span["counts"], dict), f"{path}.counts", "must be an object")
    for key, value in span["counts"].items():
        _int(value, f"{path}.counts.{key}")
    _require(isinstance(span["events"], list), f"{path}.events", "must be a list")
    for index, event in enumerate(span["events"]):
        event_path = f"{path}.events[{index}]"
        _require(isinstance(event, dict), event_path, "must be an object")
        _str(event.get("event"), f"{event_path}.event")
    _require(isinstance(span["children"], list), f"{path}.children", "must be a list")
    for index, child in enumerate(span["children"]):
        validate_span(child, f"{path}.children[{index}]")


def validate_trace_document(document: Any) -> None:
    """Validate a ``repro.trace/v1`` document (``trace.to_dict()``)."""
    _require(isinstance(document, dict), "$", "document must be an object")
    _require(
        document.get("schema") == TRACE_SCHEMA,
        "$.schema",
        f"expected {TRACE_SCHEMA!r}, got {document.get('schema')!r}",
    )
    _str(document.get("engine"), "$.engine", optional=True)
    _str(document.get("query"), "$.query", optional=True)
    totals = document.get("totals")
    _require(isinstance(totals, dict), "$.totals", "must be an object")
    _int(totals.get("steps"), "$.totals.steps")
    _int(totals.get("spans"), "$.totals.spans")
    validate_span(document.get("root"), "$.root")
    if "stats" in document:
        stats = document["stats"]
        _require(isinstance(stats, dict), "$.stats", "must be an object")
        for counter in ("steps", "matches", "rows"):
            _int(stats.get(counter), f"$.stats.{counter}")


# --------------------------------------------------------------------------
# repro.metrics/v1


_METRIC_TYPES = {"counter", "gauge", "histogram"}

_WORKLOG_FIELDS = {
    "fingerprint",
    "query",
    "engine",
    "wall_ms",
    "rows",
    "steps",
    "matches",
    "plan",
    "slow",
    "trace",
}


def _validate_labels(
    labels: Any, labelnames: List[str], path: str
) -> None:
    _require(isinstance(labels, dict), path, "labels must be an object")
    _require(
        set(labels) == set(labelnames),
        path,
        f"expected labels {sorted(labelnames)}, got {sorted(labels)}",
    )
    for name, value in labels.items():
        _str(value, f"{path}.{name}")


def validate_metric(metric: Any, path: str) -> None:
    """Validate one metric family of a metrics document."""
    _require(isinstance(metric, dict), path, "metric must be an object")
    _str(metric.get("name"), f"{path}.name")
    _str(metric.get("help"), f"{path}.help")
    _require(
        metric.get("type") in _METRIC_TYPES,
        f"{path}.type",
        f"expected one of {sorted(_METRIC_TYPES)}, got {metric.get('type')!r}",
    )
    labelnames = metric.get("labelnames")
    _require(
        isinstance(labelnames, list) and all(isinstance(n, str) for n in labelnames),
        f"{path}.labelnames",
        "must be a list of strings",
    )
    samples = metric.get("samples")
    _require(isinstance(samples, list), f"{path}.samples", "must be a list")
    if metric["type"] == "histogram":
        buckets = metric.get("buckets")
        _require(
            isinstance(buckets, list) and buckets,
            f"{path}.buckets",
            "histogram must declare a non-empty bucket-bound list",
        )
        for bindex, bound in enumerate(buckets):
            _number(bound, f"{path}.buckets[{bindex}]")
        _require(
            buckets == sorted(buckets) and len(set(buckets)) == len(buckets),
            f"{path}.buckets",
            "bucket bounds must strictly increase",
        )
    for sindex, sample in enumerate(samples):
        sample_path = f"{path}.samples[{sindex}]"
        _require(isinstance(sample, dict), sample_path, "sample must be an object")
        _validate_labels(sample.get("labels"), labelnames, f"{sample_path}.labels")
        if metric["type"] == "histogram":
            _int(sample.get("count"), f"{sample_path}.count")
            _number(sample.get("sum"), f"{sample_path}.sum")
            counts = sample.get("bucket_counts")
            _require(
                isinstance(counts, list) and len(counts) == len(metric["buckets"]) + 1,
                f"{sample_path}.bucket_counts",
                "must be a list with one slot per bound plus the +Inf slot",
            )
            for cindex, count in enumerate(counts):
                _int(count, f"{sample_path}.bucket_counts[{cindex}]")
            _require(
                sum(counts) == sample["count"],
                f"{sample_path}.bucket_counts",
                f"bucket counts sum to {sum(counts)}, count says {sample['count']}",
            )
        else:
            _number(sample.get("value"), f"{sample_path}.value")


def validate_worklog_entry(entry: Any, path: str) -> None:
    """Validate one query-log record of a metrics document."""
    _require(isinstance(entry, dict), path, "worklog entry must be an object")
    missing = _WORKLOG_FIELDS - entry.keys()
    _require(not missing, path, f"entry is missing fields {sorted(missing)}")
    for name in ("fingerprint", "query", "engine"):
        _str(entry[name], f"{path}.{name}")
    _number(entry["wall_ms"], f"{path}.wall_ms")
    for counter in ("rows", "steps", "matches"):
        _int(entry[counter], f"{path}.{counter}")
    _str(entry["plan"], f"{path}.plan", optional=True)
    _require(isinstance(entry["slow"], bool), f"{path}.slow", "must be a boolean")
    if entry["trace"] is not None:
        try:
            validate_trace_document(entry["trace"])
        except SchemaError as exc:
            raise SchemaError(f"{path}.trace: embedded trace invalid — {exc}")


def validate_metrics_document(document: Any) -> None:
    """Validate a ``repro.metrics/v1`` document (registry/telemetry export)."""
    _require(isinstance(document, dict), "$", "document must be an object")
    _require(
        document.get("schema") == METRICS_SCHEMA,
        "$.schema",
        f"expected {METRICS_SCHEMA!r}, got {document.get('schema')!r}",
    )
    metrics = document.get("metrics")
    _require(isinstance(metrics, list), "$.metrics", "must be a list")
    seen = set()
    for index, metric in enumerate(metrics):
        validate_metric(metric, f"$.metrics[{index}]")
        name = metric["name"]
        _require(
            name not in seen, f"$.metrics[{index}].name", f"duplicate metric {name!r}"
        )
        seen.add(name)
    worklog = document.get("worklog")
    if worklog is not None:
        _require(isinstance(worklog, list), "$.worklog", "must be a list")
        for index, entry in enumerate(worklog):
            validate_worklog_entry(entry, f"$.worklog[{index}]")


def validate_document(document: Any) -> str:
    """Dispatch on the ``schema`` tag; return the recognized tag."""
    tag = document.get("schema") if isinstance(document, dict) else None
    if tag == TRACE_SCHEMA:
        validate_trace_document(document)
    elif tag == METRICS_SCHEMA:
        validate_metrics_document(document)
    else:
        raise SchemaError(f"$.schema: unrecognized schema tag {tag!r}")
    return tag


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Validate JSON documents from the command line."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema",
        description="Validate repro trace/metrics JSON documents.",
    )
    parser.add_argument("files", nargs="+", help="JSON files to validate")
    args = parser.parse_args(argv)
    for name in args.files:
        with open(name, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        try:
            tag = validate_document(document)
        except SchemaError as exc:
            print(f"{name}: INVALID — {exc}")
            return 1
        print(f"{name}: ok ({tag})")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
