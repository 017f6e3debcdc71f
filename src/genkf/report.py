"""Canonical machine-readable reports.

Documents are plain JSON objects rendered with sorted keys and fixed
indentation, so the same inputs and seed yield byte-identical output.
Nothing environment-dependent (timestamps, hostnames, worker counts)
ever enters a report.
"""

from __future__ import annotations

import json
import sys

import numpy as np

SCHEMA_VERSION = 1


def _clean(obj):
    """Recursively coerce numpy scalars and arrays to JSON-friendly values."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # field dumps are long lists of Python floats: pass those through
        return [v if type(v) is float else _clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    return obj


def complex_field(arr) -> dict:
    """Field dump: real and imaginary parts in row-major grid order."""
    arr = np.asarray(arr)
    return {
        "shape": list(arr.shape),
        "re": arr.real.ravel().tolist(),
        "im": arr.imag.ravel().tolist(),
    }


def document(command: str, seed: int, config_summary: dict, body: dict) -> dict:
    """The report's sections as given; render makes them JSON values."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": int(seed),
        "config": config_summary,
    }
    doc.update(body)
    return doc


def render(doc: dict) -> str:
    return json.dumps(_clean(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit(doc: dict, output_path=None) -> str:
    """Render the document; write it to output_path or stdout."""
    text = render(doc)
    if output_path is None or output_path == "-":
        sys.stdout.write(text)
    else:
        with open(output_path, "w") as fh:
            fh.write(text)
    return text
