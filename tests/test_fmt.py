"""Complex-literal parsing and deterministic artifact serialization."""

import json

import pytest

from xyep._fmt import (CSV_MANY_ROW, JSON_MANY_ROW, csv_text, fmt_complex,
                       fmt_real, json_frame, json_text, parse_complex,
                       template_rows)

ACCEPT = [
    ("0.6+0.8i", 0.6 + 0.8j),
    ("0.6+0.8j", 0.6 + 0.8j),
    ("-1.5", -1.5 + 0j),
    ("+2.25", 2.25 + 0j),
    ("2i", 2j),
    ("-0.5i", -0.5j),
    ("i", 1j),
    ("-i", -1j),
    ("j", 1j),
    ("+j", 1j),
    ("0.3-0.4j", 0.3 - 0.4j),
    ("-1e-3+2.5e2i", -1e-3 + 2.5e2j),
    (" 0.1 + 0.2i ", 0.1 + 0.2j),
    (".5+.5i", 0.5 + 0.5j),
    ("1+i", 1 + 1j),
    ("-2.5-j", -2.5 - 1j),
]

REJECT = ["", "abc", "0.6 0.8", "0.60.8i", "1+2", "i+1", "1+ij", "1i2",
          "--3", "0x10", "nanid"]


@pytest.mark.parametrize("text,expect", ACCEPT)
def test_parse_complex_accepts(text, expect):
    assert parse_complex(text) == expect


@pytest.mark.parametrize("text", REJECT)
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def test_fmt_real_significant_digits():
    assert fmt_real(0.1 + 0.2) == "0.3"
    assert fmt_real(1 / 3) == "0.333333333333"
    assert fmt_real(-1234567.0) == "-1234567"
    assert fmt_real(5e-7) == "5e-07"
    assert fmt_real(0.0) == "0"


@pytest.mark.parametrize("z", [0.3 - 0.55j, 0.2 - 0.1j, -1.5 - 2e-7j, 0.4 + 0j,
                               complex(0.4, -0.0), -0.6 + 0.8j, 1e-3 + 2.5e2j])
def test_fmt_complex_reads_back(z):
    assert parse_complex(fmt_complex(z)) == z


def test_csv_text_layout():
    text = csv_text({"L": 4, "gamma": "0.6+0.8i"}, ["a", "b"],
                    [[1, 0.5], ["x", 1 / 3]])
    lines = text.splitlines()
    assert lines[0] == "# artifact-version: 1"
    assert lines[1] == "# L: 4"
    assert lines[2] == "# gamma: 0.6+0.8i"
    assert lines[3] == "a,b"
    assert lines[4] == "1,0.5"
    assert lines[5] == "x,0.333333333333"
    assert text.endswith("\n")


def test_json_text_round_trip():
    text = json_text({"L": 6}, {"rows": [1, 2, 3]})
    doc = json.loads(text)
    assert doc["artifact_version"] == 1
    assert doc["config"] == {"L": 6}
    assert doc["rows"] == [1, 2, 3]
    assert text.endswith("\n")
    # key order is stable, so the byte stream is reproducible
    assert text == json_text({"L": 6}, {"rows": [1, 2, 3]})


def test_json_text_is_one_line():
    text = json_text({"L": 6, "gamma": "0.3-0.55i"},
                     {"rows": [{"a": [1.5, -2.0]}, {"b": "x\ny"}]})
    assert text.endswith("\n") and text.count("\n") == 1


def test_json_frame_splits_the_last_list():
    # a "[]" earlier in the document does not split it
    config, items = {"L": 6, "note": "[]"}, [{"a": [1.5, -2.0]}, {"b": "x"}]
    head, tail = json_frame(config, {"rows": [1]}, "items")
    assert head + ", ".join(json.dumps(item) for item in items) + tail == \
        json_text(config, {"rows": [1], "items": items})


def test_template_rows_write_what_json_and_fmt_real_write():
    labels = ["0011", "0101", "1001", "1100"]
    real = [0.1 + 0.2, -1e-300, 1e16, 123456789012.5]
    imag = [2.0 ** 60, -0.0, 5e-324, -1 / 3]
    rows = list(zip(labels, real, imag))
    assert template_rows(JSON_MANY_ROW, ", ", labels, real, imag) == ", ".join(
        json.dumps({"occupation": o, "energy": [re, im]}) for o, re, im in rows)
    assert template_rows(CSV_MANY_ROW, "\n", labels, real, imag) == "\n".join(
        f"many,{o},{fmt_real(re)},{fmt_real(im)}" for o, re, im in rows)
