"""Command-line interface.

Subcommands expose the main workflows: exact spectra, the exceptional
point table, overlap maps, monodromy loops, oracle comparison, and a
self-check suite.  All artifacts are deterministic for a fixed
configuration and seed, and every file carries its resolved
configuration in a comment header (CSV) or config block (JSON).
Exit codes, tabulated in the README: 1 from a failed PASS/FAIL report
(:func:`_report`), 3 and 4 from ``_EXIT_CODES``, 2 for any other refusal,
141 (128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from ._fmt import (CSV_MANY_ROW, JSON_MANY_ROW, csv_text, fmt_complex,
                   fmt_exact, json_frame, json_text, parse_complex,
                   template_rows)
from .basis import (many_body_energies, many_body_epsilons,
                    sign_pattern_chunks)
from .chain import MODES, ChainSpec
from .ep import jordan_decomposition, locate_eps, reference_ep_gammas
from .errors import (AmbiguousContinuation, DegenerateInput, LambdaSingular,
                     XYEPError)
from .oracle import build_spin_hamiltonian, ed_eigen, match_spectra
from .topology import overlap_grid, track_loop


# refusals with an exit code of their own; every other XYEPError exits 2
_EXIT_CODES = {LambdaSingular: 3, AmbiguousContinuation: 4}


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# many-body states per chunk of `spectrum` rows: each chunk is formatted and
# written before the next, so the text in memory stays about 1 MB at any L
SPECTRUM_CHUNK = 2 ** 14


def _emit(chunks, out: str | None):
    """Write ``chunks``, an iterable of str, to ``out``, or to stdout
    without it; one text is passed as ``[text]``."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise DegenerateInput(
                f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(chunks)


def _config(args, **fields) -> dict:
    """An artifact's configuration header: command and version, then fields."""
    return {"command": args.command, "version": __version__, **fields}


def _report(checks, out: str | None, failure: str, summary=()) -> int:
    """Write one PASS/FAIL line per ``(passed, text)`` check, then ``summary``.

    Every check runs before anything is written.  Returns the exit code:
    0, or 1 with ``FAIL: <failure>`` on stderr if some check failed.
    """
    lines, ok = [], True
    for passed, text in checks:
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {text}")
    _emit(["\n".join([*lines, *summary]) + "\n"], out)
    if ok:
        return 0
    print(f"FAIL: {failure}", file=sys.stderr)
    return 1


def _spectrum_chunks(eps, head: str, template: str, sep: str, tail: str):
    """``head``, the 2^L many-body rows of ``eps`` joined by ``sep``, then
    ``tail``, the rows formatted ``SPECTRUM_CHUNK`` states at a time; no
    2^L table is made."""
    yield head
    chunks = sign_pattern_chunks(eps, SPECTRUM_CHUNK)
    for i, (energies, occupations) in enumerate(chunks):
        # one "0"/"1" string per state, read straight off the occupation
        # bytes; floats are read in bulk, not as one numpy scalar per row
        labels = (occupations + ord("0")).astype(np.uint8).view(
            f"S{len(eps)}").ravel().astype(str).tolist()
        if i:
            yield sep
        yield template_rows(template, sep, labels, energies.real.tolist(),
                            energies.imag.tolist())
    yield tail


def cmd_spectrum(args) -> int:
    eps_I, eps_II = many_body_epsilons(ChainSpec(args.L, args.gamma))
    # eps_I/II are in branch order, so the labels follow quasi_energies
    quasi = [(mode, branch, *z) for mode, eps in (("I", eps_I), ("II", eps_II))
             for branch, z in enumerate(zip(eps.real.tolist(), eps.imag.tolist()), 1)]
    config = _config(args, L=args.L, gamma=fmt_complex(args.gamma))
    if args.format == "json":
        quasi_rows = [{"mode": mode, "branch": branch, "epsilon": [re, im]}
                      for mode, branch, re, im in quasi]
        head, tail = json_frame(config, {"quasi": quasi_rows}, "many_body")
        template, sep = JSON_MANY_ROW, ", "
    else:
        head = csv_text(config, ["kind", "label", "re", "im"],
                        [["quasi", f"{mode}:{branch}", re, im]
                         for mode, branch, re, im in quasi])
        template, sep, tail = CSV_MANY_ROW, "\n", "\n"
    _emit(_spectrum_chunks(np.concatenate([eps_I, eps_II]), head, template,
                           sep, tail), args.out)
    return 0


def cmd_ep_table(args) -> int:
    if args.L_min % 2 or args.L_max % 2 or args.L_min < 4 \
            or args.L_max < args.L_min:
        raise DegenerateInput("need even 4 <= L-min <= L-max")
    config = _config(args, L_min=args.L_min, L_max=args.L_max)
    # largest L first, so the EP search's size cap refuses before any work
    tables = [locate_eps(L, "both")
              for L in range(args.L_max, args.L_min - 1, -2)]
    cols = ["L", "mode", "re_gamma", "im_gamma",
            "re_epsilon", "im_epsilon", "boundary_residual"]
    rows = [[r.L, r.mode, r.gamma.real, r.gamma.imag,
             r.epsilon.real, r.epsilon.imag, r.boundary_residual]
            for records in reversed(tables) for r in records]
    _emit([csv_text(config, cols, rows)], args.out)
    return 0


def cmd_overlap_map(args) -> int:
    grid = overlap_grid(args.L, args.re_min, args.re_max, args.im_min,
                        args.im_max, args.n_re, args.n_im)
    config = _config(
        args, L=args.L,
        re_min=fmt_exact(args.re_min), re_max=fmt_exact(args.re_max),
        im_min=fmt_exact(args.im_min), im_max=fmt_exact(args.im_max),
        n_re=args.n_re, n_im=args.n_im,
        tracked_a="".join(map(str, grid.occupation_a)),
        tracked_b="".join(map(str, grid.occupation_b)))
    rows = [[float(re), float(im), float(grid.overlap_a[i, j])]
            for i, re in enumerate(grid.re_vals)
            for j, im in enumerate(grid.im_vals)]
    cols = ["re_gamma", "im_gamma", "abs_overlap"]
    _emit([csv_text(config, cols, rows)], args.out)
    return 0


def cmd_loop(args) -> int:
    result = track_loop(args.L, args.center, args.radius, steps=args.steps)
    config = _config(args, L=args.L, center=fmt_complex(args.center),
                     radius=fmt_exact(args.radius), steps=args.steps)
    # the fields in JSON types, without the structural closure_defect
    doc = asdict(result)
    del doc["closure_defect"]
    doc["center"] = [result.center.real, result.center.imag]
    _emit([json_text(config, doc)], args.out)
    return 0


def _oracle_samples(L: int, n: int, rng, half_width: float):
    """Analytic many-body spectra against dense ED at n random anisotropies.

    Returns (gamma, deviation relative to the ED scale) per draw from
    |Re|, |Im| <= half_width, skipping draws within 5e-2 of a pole, and
    the worst deviation, nan (failing any tolerance) if none was compared.
    """
    if n < 1:
        raise DegenerateInput(f"need at least one sample, got {n}")
    samples = []
    for _ in range(n):
        g = complex(*(rng.uniform(-half_width, half_width, size=2)))
        if min(abs(g - 1), abs(g + 1)) < 5e-2:
            continue
        # the dense Hamiltonian first: its size guard refuses before any work
        H = build_spin_hamiltonian(L, g)
        analytic = many_body_energies(ChainSpec(L, g)).energies
        ed = ed_eigen(H, want_vectors=False).values
        scale = float(np.max(np.abs(ed)))
        samples.append((g, match_spectra(analytic, ed).max_abs_diff / scale))
    worst = np.max([dev for _, dev in samples]) if samples else np.nan
    return samples, float(worst)


def cmd_oracle_compare(args) -> int:
    samples, worst = _oracle_samples(args.L, args.samples,
                                     np.random.default_rng(args.seed), 1.5)
    checks = ([(dev <= 1e-8, f"gamma={g:.6g} rel_dev={dev:.3e}")
               for g, dev in samples]
              or [(False, "every sampled gamma fell within 5e-2 of a pole")])
    summary = [f"worst relative deviation: {worst:.3e}"] if samples else []
    failure = ("oracle comparison exceeded tolerance" if samples
               else "no sample was compared")
    return _report(checks, args.out, failure, summary)


def _verify_ep_table():
    # component-wise deviation: the reference values carry four decimals,
    # so only max(|d re|, |d im|) < 5e-5 is meaningful (the modulus of the
    # rounding error itself can reach ~7e-5)
    for L in (4, 6, 8, 10, 12, 14):
        found = locate_eps(L, "both")
        worst = 0.0
        for mode in MODES:
            got = [r.gamma for r in found if r.mode == mode]
            for ref in reference_ep_gammas(L, mode):
                d = min(max(abs(g.real - ref.real), abs(g.imag - ref.imag))
                        for g in got)
                worst = max(worst, d)
        yield (worst < 5e-5,
               f"ep-table L={L} max component |dgamma| = {worst:.2e}")


def _verify_oracle():
    rng = np.random.default_rng(7)
    for L in (2, 4, 6):
        _, worst = _oracle_samples(L, 8, rng, 1.2)
        yield worst <= 1e-8, f"oracle L={L} worst rel dev = {worst:.2e}"


def _verify_jordan():
    for L in (4, 6):
        worst = 0.0
        for rec in locate_eps(L, "both"):
            jd = jordan_decomposition(ChainSpec(L, rec.gamma), rec)
            worst = max(worst, jd.jordan_residual, jd.inv_residual)
        yield worst <= 1e-8, f"jordan L={L} worst residual = {worst:.2e}"


def _verify_loop():
    eps4 = [r for r in locate_eps(4, "II") if r.gamma.imag > 0]
    res = track_loop(4, eps4[0].gamma, 0.05, steps=128)
    moved = sum(p != k for k, p in enumerate(res.permutation))
    yield (res.closed and moved == 2,
           f"loop around EP: permutation {res.permutation}")
    res = track_loop(4, 0.2 + 0.1j, 0.05, steps=128)
    yield (res.closed and res.permutation == list(range(4))
           and not any(res.sign_flips),
           f"EP-free loop: permutation {res.permutation}")


_SUITES = {
    "ep-table": _verify_ep_table,
    "oracle": _verify_oracle,
    "jordan": _verify_jordan,
    "loop": _verify_loop,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    return _report((check for name in names for check in _SUITES[name]()),
                   args.out, "one or more verification checks failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyep",
        description="Exact spectra and exceptional points of the open "
                    "non-Hermitian anisotropic chain.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="quasi-energies and many-body levels")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--gamma", type=_complex_arg, required=True,
                   help="complex anisotropy, e.g. 0.6+0.8i")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ep-table", help="exceptional points for a range of L")
    p.add_argument("--L-min", type=int, default=4)
    p.add_argument("--L-max", type=int, required=True)
    p.set_defaults(func=cmd_ep_table)

    p = sub.add_parser("overlap-map",
                       help="pair rigidity |v.v| / (v*.v) over a gamma rectangle")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, required=True)
    p.add_argument("--im-max", type=float, required=True)
    p.add_argument("--n-re", type=int, default=21)
    p.add_argument("--n-im", type=int, default=21)
    p.set_defaults(func=cmd_overlap_map)

    p = sub.add_parser("loop", help="quasi-energy monodromy around a circle")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--center", type=_complex_arg, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--steps", type=int, default=256)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("oracle-compare",
                       help="analytic spectra against dense diagonalization")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("verify", help="run a built-in check suite")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.set_defaults(func=cmd_verify)

    # last in every subcommand, so each usage line ends with it
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


# options whose complex value may start with "-", which argparse would read
# as an option of its own unless the two are joined by "="
_SIGNED_VALUE_OPTIONS = ("--gamma", "--center")


def _join_signed_values(argv: list[str]) -> list[str]:
    """Fold ``--gamma -0.5-0.2i`` into ``--gamma=-0.5-0.2i`` (same for
    ``--center``); a following ``--option`` is left alone."""
    joined = []
    for token in argv:
        if (joined and joined[-1] in _SIGNED_VALUE_OPTIONS
                and token.startswith("-") and not token.startswith("--")):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except XYEPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)
    except BrokenPipeError:
        # the reader left early (``| head``); stdout now points at the null
        # device, so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
