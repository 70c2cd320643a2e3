"""Parsing and deterministic serialization helpers for the CLI."""

from __future__ import annotations

import json

ARTIFACT_VERSION = 1

# what complex() reads once whitespace is gone and i is written j
_LITERAL_CHARS = frozenset("0123456789.eE+-j")


def parse_complex(text: str) -> complex:
    """Python's complex literals, i for j: '0.6+0.8i', '-1.5', '2i', '1+i'."""
    s = "".join(text.split()).replace("i", "j")
    if set(s) <= _LITERAL_CHARS:
        try:
            return complex(s)
        except ValueError:
            pass
    raise ValueError(f"cannot parse complex literal {text!r}")


def fmt_real(x: float) -> str:
    """12 significant digits, stable across runs."""
    return f"{float(x):.12g}"


def fmt_exact(x: float) -> str:
    """:func:`fmt_real` if it reads back as x, else the shortest digits that do."""
    text = fmt_real(x)
    return text if float(text) == float(x) else repr(float(x))


def fmt_complex(z: complex) -> str:
    """z as 'a+bi', or 'a-bi' when Im z < 0; parse_complex reads it back exactly."""
    sign = "-" if z.imag < 0 else "+"
    return f"{fmt_exact(z.real)}{sign}{fmt_exact(abs(z.imag))}i"


def csv_text(config: dict, columns: list[str], rows: list[list]) -> str:
    """CSV with a comment header echoing the resolved configuration."""
    lines = [f"# artifact-version: {ARTIFACT_VERSION}"]
    lines += [f"# {key}: {value}" for key, value in config.items()]
    lines.append(",".join(columns))
    lines += [",".join(fmt_real(c) if isinstance(c, float) else str(c)
                       for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(config: dict, payload: dict) -> str:
    """One line of compact JSON, the resolved configuration under 'config'."""
    doc = {"artifact_version": ARTIFACT_VERSION, "config": config}
    doc.update(payload)
    return json.dumps(doc) + "\n"


def json_frame(config: dict, payload: dict, key: str) -> tuple[str, str]:
    """:func:`json_text` of ``payload`` and a last, empty list ``key``, split
    inside that list: the text up to its ``[`` and from its ``]``.

    Items joined by ``", "`` between the two make the text json_text would
    write with the items in the list.
    """
    head, _, tail = json_text(config, {**payload, key: []}).rpartition("[]")
    return head + "[", "]" + tail


# one many-body row of a spectrum artifact: %r is the float repr json.dumps
# writes for a finite number, %.12g is fmt_real
JSON_MANY_ROW = '{"occupation": "%s", "energy": [%r, %r]}'
CSV_MANY_ROW = "many,%s,%.12g,%.12g"


def template_rows(template: str, sep: str, labels: list[str],
                  real: list[float], imag: list[float]) -> str:
    """``template % (label, real, imag)`` per state, joined by ``sep``.

    The joined templates take all values in one ``%``, which is faster
    than one ``%`` per row and builds no per-row tuple.
    """
    values = [None] * (3 * len(labels))
    values[0::3], values[1::3], values[2::3] = labels, real, imag
    return sep.join([template] * len(labels)) % tuple(values)
