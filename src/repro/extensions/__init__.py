"""Section 7.1 extension: exporting bindings and paths to JSON
(:mod:`~repro.extensions.json_export`), the CLI's ``--format json``."""

from repro.extensions.json_export import result_to_json, result_to_jsonable

__all__ = ["result_to_json", "result_to_jsonable"]
