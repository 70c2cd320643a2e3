"""Command-line interface: outputs, determinism, and exit codes."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from xyep.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_stdout_and_determinism(capsys):
    argv = ["spectrum", "--L", "4", "--gamma", "0.3+0.2i"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# artifact-version: 1"
    assert "# command: spectrum" in lines
    header_idx = lines.index("kind,label,re,im")
    data = lines[header_idx + 1:]
    # one row per positive branch: L/2 per mode
    assert sum(1 for r in data if r.startswith("quasi,")) == 4
    assert sum(1 for r in data if r.startswith("many,")) == 16
    code2, out2, _ = run_cli(argv, capsys)
    assert code2 == 0 and out2 == out


def test_spectrum_json_to_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    code, out, _ = run_cli(["spectrum", "--L", "4", "--gamma", "0.5-0.25i",
                            "--format", "json", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["config"]["L"] == 4
    assert len(doc["quasi"]) == 4
    assert len(doc["many_body"]) == 16
    occupations = {e["occupation"] for e in doc["many_body"]}
    assert len(occupations) == 16


def test_spectrum_json_is_one_line(tmp_path, capsys):
    path = tmp_path / "spec.json"
    code, _, _ = run_cli(["spectrum", "--L", "6", "--gamma", "0.3-0.55i",
                          "--format", "json", "--out", str(path)], capsys)
    text = path.read_text()
    assert code == 0 and text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text)["config"]["gamma"] == "0.3-0.55i"


def test_header_anisotropies_read_back_through_the_cli(tmp_path, capsys):
    _, out, _ = run_cli(["spectrum", "--L", "4", "--gamma", "0.3-0.55i"], capsys)
    header = [l for l in out.splitlines() if l.startswith("# gamma: ")]
    assert header == ["# gamma: 0.3-0.55i"]
    code, again, _ = run_cli(["spectrum", "--L", "4",
                              f"--gamma={header[0][len('# gamma: '):]}"], capsys)
    assert code == 0 and again == out
    path = tmp_path / "loop.json"
    run_cli(["loop", "--L", "4", "--center", "0.2-0.1i", "--radius", "0.05",
             "--steps", "32", "--out", str(path)], capsys)
    assert json.loads(path.read_text())["config"]["center"] == "0.2-0.1i"


def test_header_values_read_back_exactly(tmp_path, capsys):
    # 15 to 17 significant digits, which a 12-digit header used to cut;
    # values whose 12-digit form reads back keep it
    from xyep._fmt import parse_complex

    def header(text):
        return dict(line[2:].split(": ", 1) for line in text.splitlines()
                    if line.startswith("# "))

    gamma = "0.123456789012345-0.30000000000000004i"
    code, out, _ = run_cli(["spectrum", "--L", "2", f"--gamma={gamma}"], capsys)
    assert code == 0
    assert parse_complex(header(out)["gamma"]) == parse_complex(gamma)

    center, radius = "0.21234567890123457-0.1i", "0.0512345678901234"
    path = tmp_path / "loop.json"
    code, _, _ = run_cli(["loop", "--L", "4", f"--center={center}",
                          "--radius", radius, "--steps", "32",
                          "--out", str(path)], capsys)
    assert code == 0
    config = json.loads(path.read_text())["config"]
    assert parse_complex(config["center"]) == parse_complex(center)
    assert float(config["radius"]) == float(radius)

    edges = {"re_min": "0.5012345678901234", "re_max": "0.70000000000000007",
             "im_min": "0.69999999999999996", "im_max": "0.9123456789012345"}
    code, out, _ = run_cli(["overlap-map", "--L", "4", "--n-re", "3",
                            "--n-im", "3"]
                           + [f"--{k.replace('_', '-')}={v}"
                              for k, v in edges.items()], capsys)
    assert code == 0
    got = header(out)
    assert {k: float(got[k]) for k in edges} == \
        {k: float(v) for k, v in edges.items()}
    assert got["im_min"] == "0.7"


def test_spectrum_labels_are_the_occupation_bits(tmp_path, capsys):
    from xyep.basis import many_body_energies
    from xyep.chain import ChainSpec

    occ = many_body_energies(ChainSpec(6, 0.3 - 0.7j)).occupations
    want = ["".join(str(int(b)) for b in row) for row in occ]
    path = tmp_path / "spec.json"
    run_cli(["spectrum", "--L", "6", "--gamma", "0.3-0.7i", "--format", "json",
             "--out", str(path)], capsys)
    doc = json.loads(path.read_text())
    assert [e["occupation"] for e in doc["many_body"]] == want
    _, out, _ = run_cli(["spectrum", "--L", "6", "--gamma", "0.3-0.7i"], capsys)
    rows = [r.split(",") for r in out.splitlines() if r.startswith("many,")]
    assert [r[1] for r in rows] == want


def test_spectrum_beyond_many_body_limit_exit_code_2(capsys):
    code, out, err = run_cli(["spectrum", "--L", "40", "--gamma", "0.3+0.2i"],
                             capsys)
    assert code == 2 and out == ""
    assert "capped at L = 20" in err


def reference_spectrum_text(L, gamma, fmt):
    """A spectrum artifact the way the CLI wrote it before rows were
    streamed: one dict or list per level, then json_text or csv_text."""
    from xyep import __version__
    from xyep._fmt import csv_text, fmt_complex, json_text
    from xyep.basis import many_body_energies
    from xyep.chain import ChainSpec

    mb = many_body_energies(ChainSpec(L, gamma))
    quasi = [(mode, branch, z.real, z.imag)
             for mode, eps in (("I", mb.epsilons_I), ("II", mb.epsilons_II))
             for branch, z in enumerate(eps.tolist(), 1)]
    labels = ["".join(str(int(b)) for b in row) for row in mb.occupations]
    many = list(zip(labels, mb.energies.real.tolist(), mb.energies.imag.tolist()))
    config = {"command": "spectrum", "version": __version__, "L": L,
              "gamma": fmt_complex(gamma)}
    if fmt == "json":
        return json_text(config, {
            "quasi": [{"mode": m, "branch": b, "epsilon": [re, im]}
                      for m, b, re, im in quasi],
            "many_body": [{"occupation": o, "energy": [re, im]}
                          for o, re, im in many]})
    rows = [["quasi", f"{m}:{b}", re, im] for m, b, re, im in quasi]
    rows += [["many", o, re, im] for o, re, im in many]
    return csv_text(config, ["kind", "label", "re", "im"], rows)


@pytest.mark.parametrize("gamma", [
    "0.3",                                          # real
    "0.3-0.55i",                                    # Im < 0
    "0.93025417280194811+0.37530009211185017i",     # as the bench writes it
])
def test_streamed_spectrum_matches_the_reference_bytes(gamma, tmp_path, capsys):
    # L = 16 is four chunks of 2^14 states, so the separators between
    # chunks are checked as well as the rows
    from xyep._fmt import parse_complex

    g = parse_complex(gamma)
    for L in (2, 4, 8, 16):
        for fmt in ("csv", "json"):
            path = tmp_path / f"{L}.{fmt}"
            code, out, err = run_cli(["spectrum", "--L", str(L),
                                      f"--gamma={gamma}", "--format", fmt,
                                      "--out", str(path)], capsys)
            assert (code, out, err) == (0, "", "")
            assert path.read_bytes() == \
                reference_spectrum_text(L, g, fmt).encode(), (L, fmt)


def test_refused_spectrum_writes_no_file(tmp_path, capsys):
    path = tmp_path / "f"
    code, out, err = run_cli(["spectrum", "--L", "22", "--gamma", "0.3",
                              "--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert "capped at L = 20" in err
    assert not path.exists()


def test_spectrum_quasi_rows_follow_quasi_energies(capsys):
    from xyep._fmt import fmt_real
    from xyep.chain import ChainSpec, quasi_energies

    pts = quasi_energies(ChainSpec(8, 0.3 - 0.55j))
    _, out, _ = run_cli(["spectrum", "--L", "8", "--gamma", "0.3-0.55i"], capsys)
    rows = [r.split(",")[1:] for r in out.splitlines() if r.startswith("quasi,")]
    assert rows == [[f"{p.mode}:{p.branch}", fmt_real(p.epsilon.real),
                     fmt_real(p.epsilon.imag)] for p in pts]


def test_spectrum_solves_both_modes_in_one_call(monkeypatch, capsys):
    import xyep.chain as chain_module

    calls = []
    real = chain_module.boundary_roots

    def counting(n, lam):
        calls.append(lam)
        return real(n, lam)

    monkeypatch.setattr(chain_module, "boundary_roots", counting)
    code, _, _ = run_cli(["spectrum", "--L", "14", "--gamma", "0.3-0.55i",
                          "--format", "json"], capsys)
    assert code == 0 and len(calls) == 1
    calls.clear()
    # the many-body size guard fires before any root solve
    code, _, _ = run_cli(["spectrum", "--L", "40", "--gamma", "0.3-0.55i"],
                         capsys)
    assert code == 2 and calls == []


def test_anisotropies_may_start_with_a_minus_sign(tmp_path, capsys):
    # "--gamma -0.5-0.2i" reads as "--gamma=-0.5-0.2i", not as an option
    code, out, _ = run_cli(["spectrum", "--L", "2", "--gamma", "-0.5-0.2i"],
                           capsys)
    assert code == 0 and "# gamma: -0.5-0.2i" in out.splitlines()
    assert run_cli(["spectrum", "--L", "2", "--gamma=-0.5-0.2i"],
                   capsys) == (0, out, "")
    paths = [tmp_path / "spaced.json", tmp_path / "joined.json"]
    for path, center in zip(paths, (["--center", "-0.6-0.8i"],
                                    ["--center=-0.6-0.8i"])):
        code, _, _ = run_cli(["loop", "--L", "4", *center, "--radius", "0.05",
                              "--steps", "32", "--out", str(path)], capsys)
        assert code == 0
    assert paths[0].read_text() == paths[1].read_text()
    assert json.loads(paths[0].read_text())["config"]["center"] == "-0.6-0.8i"


def test_bad_gamma_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--L", "4", "--gamma", "0.60.8i"])
    assert exc.value.code == 2


def test_domain_error_exit_code_2(capsys):
    code, _, err = run_cli(["spectrum", "--L", "3", "--gamma", "0.2"], capsys)
    assert code == 2
    assert "error:" in err


def test_singular_map_exit_code_3(capsys):
    code, _, err = run_cli(["spectrum", "--L", "4", "--gamma", "-1"], capsys)
    assert code == 3
    assert "error:" in err


def test_loop_through_ep_exit_code_4(capsys):
    code, _, err = run_cli(["loop", "--L", "4", "--center", "0.65+0.8i",
                            "--radius", "0.05", "--steps", "64"], capsys)
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--L", "4", "--gamma", "1e200"],
    ["loop", "--L", "4", "--center", "0", "--radius", "1e300"],
    ["overlap-map", "--L", "4", "--re-min", "1e154", "--re-max", "2e154",
     "--im-min", "0", "--im-max", "1", "--n-re", "3", "--n-im", "3"],
])
def test_overflowing_gamma_exit_code_2(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: quasi-energies are not finite")


def test_unwritable_out_exit_code_2(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(["ep-table", "--L-max", "4",
                                  "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err


def test_ep_table_contains_l4_values(capsys):
    from xyep._fmt import fmt_real
    from xyep.ep import locate_eps

    code, out, _ = run_cli(["ep-table", "--L-max", "4"], capsys)
    assert code == 0
    assert "4,II,0.6,0.8," in out
    assert "4,I,-0.6,-0.8," in out
    header = "L,mode,re_gamma,im_gamma,re_epsilon,im_epsilon,boundary_residual"
    assert header in out.splitlines()
    # one row per EP record, in locate_eps order
    rows = [r.split(",") for r in out.splitlines() if r[:1].isdigit()]
    records = locate_eps(4, "both")
    assert len(rows) == len(records) == 4
    for row, rec in zip(rows, records):
        assert row == [str(rec.L), rec.mode] + [
            fmt_real(v) for v in (rec.gamma.real, rec.gamma.imag,
                                  rec.epsilon.real, rec.epsilon.imag,
                                  rec.boundary_residual)]


def test_ep_table_l60_to_file(tmp_path, capsys):
    path = tmp_path / "ep60.csv"
    code, _, err = run_cli(["ep-table", "--L-min", "60", "--L-max", "60",
                            "--out", str(path)], capsys)
    assert code == 0 and err == ""
    rows = [r for r in path.read_text().splitlines() if r.startswith("60,")]
    assert len(rows) == 2 * (60 - 2)


def test_ep_table_size_cap_exit_code_2_before_any_search(monkeypatch, capsys):
    import xyep.ep as ep_module

    calls = []
    real = ep_module.double_roots

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(ep_module, "double_roots", counting)
    monkeypatch.setattr(ep_module, "_EP_SEARCH_LIMIT", 8)
    code, out, err = run_cli(["ep-table", "--L-min", "4", "--L-max", "10"],
                             capsys)
    assert (code, out, calls) == (2, "", [])
    assert err == "error: EP search capped at L = 8, got 10\n"
    code, out, _ = run_cli(["ep-table", "--L-min", "4", "--L-max", "8"], capsys)
    assert code == 0 and calls == [4, 3, 2]   # largest L first
    rows = [r.split(",")[0] for r in out.splitlines() if r[:1].isdigit()]
    assert rows == ["4"] * 4 + ["6"] * 8 + ["8"] * 12


def test_ep_table_range_validation(capsys):
    code, _, err = run_cli(["ep-table", "--L-max", "3"], capsys)
    assert code == 2 and "error:" in err


def test_loop_at_l_40_needs_no_bisection(tmp_path, capsys):
    # around the middle upper-half-plane mode-I EP of locate_eps(40, "I")
    path = tmp_path / "loop.json"
    code, _, _ = run_cli(["loop", "--L", "40",
                          "--center=-0.1312831917903998+0.9913449064545221i",
                          "--radius", "0.042551193432641264",
                          "--out", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["refinements"] == 0
    assert [k for k, q in enumerate(doc["permutation"]) if q != k] == [9, 19]


def test_loop_json_fields(tmp_path, capsys):
    path = tmp_path / "loop.json"
    code, _, _ = run_cli(["loop", "--L", "4", "--center", "0.6+0.8i",
                          "--radius", "0.05", "--steps", "64",
                          "--out", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["permutation"] == [0, 1, 3, 2]
    assert doc["closed"] is True
    assert doc["config"]["steps"] == 64
    assert doc["sign_flips"] == [False] * 4
    assert set(doc) == {"artifact_version", "config", "L", "center", "radius",
                        "steps", "refinements", "permutation", "sign_flips",
                        "closed"}
    assert doc["center"] == [0.6, 0.8]


def test_overlap_map_writes_the_rigidity_magnitude(capsys):
    from xyep.topology import overlap_grid
    base = ["overlap-map", "--L", "4", "--re-min", "0.55", "--re-max", "0.65",
            "--im-min", "0.75", "--im-max", "0.85", "--n-re", "3",
            "--n-im", "3"]
    code, out, err = run_cli(base, capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert not any(l.startswith("# threads") for l in lines)
    header = lines.index("re_gamma,im_gamma,abs_overlap")
    rows = [[float(c) for c in l.split(",")] for l in lines[header + 1:]]
    grid = overlap_grid(4, 0.55, 0.65, 0.75, 0.85, 3, 3)
    assert [r[2] for r in rows] == pytest.approx(grid.overlap_a.ravel().tolist(),
                                                 rel=1e-9, abs=1e-15)
    assert [(r[0], r[1]) for r in rows] == [
        (pytest.approx(re), pytest.approx(im))
        for re in grid.re_vals for im in grid.im_vals]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--threads", "2"])
    assert exc.value.code == 2


def test_oracle_compare_reports_pass(capsys):
    code, out, _ = run_cli(["oracle-compare", "--L", "4", "--samples", "6",
                            "--seed", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("worst relative deviation:")
    assert all(l.startswith("PASS") for l in lines[:-1])


def test_oracle_compare_refuses_no_samples(capsys):
    for n in ("0", "-1"):
        code, out, err = run_cli(["oracle-compare", "--L", "4",
                                  "--samples", n], capsys)
        assert code == 2 and out == ""
        assert err == f"error: need at least one sample, got {n}\n"


def test_oracle_compare_size_guard_refuses_before_any_work(monkeypatch, capsys):
    import xyep.cli as cli

    def refuse(spec):
        raise AssertionError("many-body enumeration ran past the size guard")

    monkeypatch.setattr(cli, "many_body_energies", refuse)
    for L in ("14", "20"):
        code, out, err = run_cli(["oracle-compare", "--L", L], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class PoleDraws:
    """A generator stand-in whose every draw is gamma = 1, a pole."""

    def __init__(self, seed=None):
        pass

    def uniform(self, low, high, size):
        return np.array([1.0, 0.0])


def test_oracle_checks_that_compare_nothing_fail(monkeypatch, capsys):
    import xyep.cli as cli
    monkeypatch.setattr(cli.np.random, "default_rng", PoleDraws)
    code, out, err = run_cli(["oracle-compare", "--L", "4"], capsys)
    assert code == 1
    assert out == "FAIL every sampled gamma fell within 5e-2 of a pole\n"
    assert err == "FAIL: no sample was compared\n"
    code, out, _ = run_cli(["verify", "--suite", "oracle"], capsys)
    assert code == 1
    assert out.splitlines() == [f"FAIL oracle L={L} worst rel dev = nan"
                                for L in (2, 4, 6)]


@pytest.mark.parametrize("argv", [
    ["loop", "--L", "4", "--center", "0.2+0.1i", "--radius", "0.05",
     "--steps", "100000000000"],
    ["overlap-map", "--L", "6", "--re-min", "0", "--re-max", "1",
     "--im-min", "0", "--im-max", "1", "--n-re", "1000000", "--n-im", "1000000"],
])
def test_oversized_loop_and_grid_exit_code_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "capped at" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["loop", "--L", "4", "--center", "0.2", "--radius", "nan"],
    ["loop", "--L", "4", "--center", "0.2", "--radius", "inf"],
    ["loop", "--L", "4", "--center", "0.6+0.8i", "--radius", "0"],
    ["loop", "--L", "4", "--center", "0.6+0.8i", "--radius=-0.05"],
    ["overlap-map", "--L", "4", "--re-min", "nan", "--re-max", "1",
     "--im-min", "0", "--im-max", "1", "--n-re", "3", "--n-im", "3"],
    ["overlap-map", "--L", "4", "--re-min", "0", "--re-max", "inf",
     "--im-min", "0", "--im-max", "1", "--n-re", "3", "--n-im", "3"],
])
def test_non_finite_anisotropy_exit_code_2(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_fast_suites(capsys):
    for suite in ("jordan", "loop", "ep-table"):
        code, out, _ = run_cli(["verify", "--suite", suite], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "xyep.cli", "spectrum", "--L", "2",
         "--gamma", "0.4+0.1i"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "quasi,I:1," in proc.stdout
    proc2 = subprocess.run([sys.executable, "-m", "xyep.cli", "--version"],
                           capture_output=True, text=True, timeout=120)
    assert proc2.returncode == 0
    assert proc2.stdout.startswith("xyep ")


def test_a_reader_that_leaves_early_ends_the_command_quietly():
    # about 2.6 MB of rows, far beyond a pipe buffer, so a write meets EPIPE
    proc = subprocess.Popen(
        [sys.executable, "-m", "xyep.cli", "spectrum", "--L", "16",
         "--gamma", "0.3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"#")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
