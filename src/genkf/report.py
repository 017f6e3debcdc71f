"""Canonical machine-readable reports.

Documents are plain JSON objects rendered with sorted keys and fixed
indentation, so the same inputs and seed yield byte-identical output:
the text of json.dumps(sort_keys=True, indent=2, allow_nan=False).
Nothing environment-dependent (timestamps, hostnames, worker counts)
ever enters a report.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

SCHEMA_VERSION = 1


def _clean(obj):
    """Recursively coerce numpy scalars and arrays to JSON-friendly values."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # field dumps are long lists of Python floats: pass those through whole
        if set(map(type, obj)) == {float}:
            return list(obj)
        return [_clean(v) for v in obj]
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


def _float_text(x: float) -> str:
    """json's text for a float; non-finite ones raise as allow_nan=False does."""
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _encode(obj, indent: str) -> str:
    """The sorted-keys, indent=2 JSON text of a _clean value whose line
    starts at `indent`.

    json's indenting encoder is pure Python and type-dispatches every item;
    a list of floats, as in a field dump, is here one join instead.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join(json.dumps(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items()))
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        try:
            # float.__repr__ is json's text for a finite float, and no
            # finite float's text holds an "n" ("nan", "inf")
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:
                body = sep.join(map(_float_text, obj))
        except TypeError:  # not a float list
            body = sep.join(_encode(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + indent + "]"
    if type(obj) is float:
        return _float_text(obj)
    return json.dumps(obj)


def render(doc: dict) -> str:
    return _encode(_clean(doc), "") + "\n"


def emit(doc: dict, output_path=None) -> str:
    """Render the document; write it to output_path or stdout."""
    text = render(doc)
    if output_path is None or output_path == "-":
        sys.stdout.write(text)
    else:
        with open(output_path, "w") as fh:
            fh.write(text)
    return text
