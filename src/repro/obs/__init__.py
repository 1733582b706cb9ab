"""Run-scoped observability: telemetry, trace export, and atomic output IO.

See :mod:`repro.obs.telemetry` for the core objects and the determinism
conventions, :mod:`repro.obs.trace` for the JSONL trace schema, and the
"Telemetry contract" section of ``docs/DESIGN.md`` for the full contract.
"""

from .io import atomic_write_json, atomic_write_text
from .telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    as_telemetry,
    is_deterministic_counter,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    host_info,
    read_trace,
    render_trace,
    validate_trace,
    write_trace,
)

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "TRACE_SCHEMA_VERSION",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceSchemaError",
    "as_telemetry",
    "atomic_write_json",
    "atomic_write_text",
    "host_info",
    "is_deterministic_counter",
    "read_trace",
    "render_trace",
    "validate_trace",
    "write_trace",
]
