"""Trace export (CSV/JSON) and run comparison tables.

Exports are deterministic: a given trace always renders to identical
bytes.  Floats are written with 17 significant digits in CSV; the JSON
form round-trips every numeric field exactly.  Files are rewritten in
place, trimming any old tail: not fsynced and not atomic, so a crash or
a reader mid-write can see a partial file.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

from .drivers import DEGENERATE, FORMATS, IterationRecord, RunTrace

__all__ = ["export_trace", "trace_to_dict", "summarize"]

CSV_COLUMNS = (
    "k",
    "applied_input",
    "reference",
    "plant_value",
    "grad_norm",
    "rho",
    "radius",
    "accepted",
    "cauchy_override",
)


def _optional(value) -> str:
    """A float cell that may be empty (None) or the ``degenerate`` marker."""
    if value is None:
        return ""
    return DEGENERATE if value == DEGENERATE else "%.17g" % value


@lru_cache(maxsize=16)
def _row_format(applied: int, reference: int) -> str:
    """A CSV row as one %-format for vectors of the given lengths."""
    a, r = (";".join(["%.17g"] * n) for n in (applied, reference))
    return f"%d,{a},{r},%.17g,%.17g,%s,%s,%s,%s"


def _record_csv_row(r: IterationRecord) -> str:
    applied = r.applied_input.tolist()
    reference = r.reference.tolist()
    return _row_format(len(applied), len(reference)) % (
        r.k,
        *applied,
        *reference,
        r.plant_value_at_reference,
        r.plant_gradient_norm_at_reference,
        _optional(r.rho),
        _optional(r.radius),
        "true" if r.accepted else "false",
        "true" if r.cauchy_override else "false",
    )


def _record_to_dict(r: IterationRecord) -> dict:
    """A record's JSON fields in declaration order: arrays as float lists,
    numbers as floats, keeping None and the ``degenerate`` marker."""
    rho, radius = r.rho, r.radius
    return {
        "k": r.k,
        "applied_input": r.applied_input.tolist(),
        "reference": r.reference.tolist(),
        "plant_value_at_reference": float(r.plant_value_at_reference),
        "plant_gradient_norm_at_reference": float(r.plant_gradient_norm_at_reference),
        "rho": rho if rho is None or isinstance(rho, str) else float(rho),
        "radius": None if radius is None else float(radius),
        "accepted": r.accepted,
        "cauchy_override": r.cauchy_override,
        "modifiers": r.modifiers.tolist(),
    }


def trace_to_dict(trace: RunTrace) -> dict:
    return {
        "problem": trace.problem_id,
        "algorithm": trace.algorithm,
        "config": trace.config,
        "termination_status": trace.termination_status,
        "plant_value_evaluations": trace.plant_value_evaluations,
        "plant_gradient_evaluations": trace.plant_gradient_evaluations,
        "final_reference": [float(x) for x in trace.final_reference],
        "final_plant_value": float(trace.final_plant_value),
        "final_gradient_norm": float(trace.final_gradient_norm),
        "notes": list(trace.notes),
        "records": [_record_to_dict(r) for r in trace.records],
    }


def _write_in_place(path, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        done = 0
        while done < len(data):  # a short write is continued
            done += os.write(fd, data[done:])
        if os.fstat(fd).st_size > done:  # a FIFO or a device has size 0
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


# a trace holds no cycles, so the encoder keeps no markers to find one
_JSON = json.JSONEncoder(check_circular=False)


def export_trace(trace: RunTrace, format: str, path) -> Path:
    """Write the trace to ``path`` as CSV (one row per iteration) or JSON
    (full record fields), in place, trimming any old tail; not fsynced, not
    atomic.  Returns the written path."""
    if format not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {format!r}")
    path = Path(path)
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(_record_csv_row(r) for r in trace.records)
        payload = "\n".join(lines) + "\n"
    else:
        payload = _JSON.encode(trace_to_dict(trace)) + "\n"
    try:
        _write_in_place(path, payload.encode())
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc
    return path


_SUMMARY_COLUMNS = (
    "problem",
    "algorithm",
    "status",
    "iterations",
    "plant_evals",
    "final_grad_norm",
    "final_plant_value",
)


def _summary_row(trace: RunTrace) -> tuple[str, ...]:
    return (
        trace.problem_id,
        trace.algorithm,
        trace.termination_status,
        str(trace.iterations),
        str(trace.plant_evaluation_count),
        format(trace.final_gradient_norm, ".6g"),
        format(trace.final_plant_value, ".6g"),
    )


def summarize(traces, csv_path=None) -> str:
    """Aligned comparison table over a non-empty list of traces; with
    ``csv_path`` the same table is also written as CSV, in place as a trace
    is: any old tail trimmed, not fsynced, not atomic."""
    traces = list(traces)
    if not traces:
        raise ValueError("summarize requires at least one trace")
    rows = [_summary_row(t) for t in traces]
    widths = [
        max(len(_SUMMARY_COLUMNS[i]), max(len(row[i]) for row in rows))
        for i in range(len(_SUMMARY_COLUMNS))
    ]
    header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(_SUMMARY_COLUMNS))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    text = "\n".join([header, rule, *body])
    if csv_path is not None:
        lines = (",".join(row) for row in (_SUMMARY_COLUMNS, *rows))
        _write_in_place(csv_path, ("\n".join(lines) + "\n").encode())
    return text
