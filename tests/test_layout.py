"""Module layout: private names stay private, public names and options
have callers, and the runtime needs only numpy."""

import ast
import importlib
import inspect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xyep"


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("xyep"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                found.append(f"{path.name}:{node.lineno} "
                             f"from {'.' * node.level}{node.module or ''} "
                             f"import {name}")
    return found


def test_no_module_imports_private_helpers():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [hit for path in files for hit in private_imports(path)]
    assert found == []


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every absolute import in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def foreign_imports(path: Path) -> list[str]:
    """Absolute imports of anything but numpy and the standard library."""
    found = []
    for line, module in imported_modules(path):
        top = module.split(".")[0]
        if top != "numpy" and top not in sys.stdlib_module_names:
            found.append(f"{path.name}:{line} imports {module}")
    return found


def test_package_imports_only_numpy_and_stdlib():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in foreign_imports(path)]
    assert found == []


def test_no_module_imports_numpy_polynomial():
    # every polynomial root is a comrade eigensolve in polyalg; nothing
    # is fitted or rooted through numpy's polynomial classes
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {name}"
                      for name in names if name.startswith("numpy.polynomial")]
    assert found == []


def test_import_loads_no_scipy():
    code = ("import sys, xyep, xyep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def importers(target: str) -> list[str]:
    """Modules of the package that import ``target``, e.g. 'xyep.oracle'."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                # a relative import inside the package is one level deep
                module = ".".join(filter(None, ["xyep" if node.level else "",
                                                node.module]))
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if target in names:
                found.add(path.name)
    return sorted(found)


def test_spin_space_oracle_is_imported_only_by_cli_and_package():
    assert set(importers("xyep.oracle")) <= {"cli.py", "__init__.py"}


def names_used(path: Path) -> set[str]:
    """Names a module imports from anywhere, and attributes it reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_only_chain_turns_boundary_roots_into_quasi_energies():
    # roots become labelled, branch-ordered quasi-energies in one place,
    # chain.mode_spectra; every batch of anisotropies goes through it
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if path.name != "polyalg.py"
             and "boundary_roots" in names_used(path)]
    assert users == ["chain.py"]


def test_only_chain_evaluates_chebyshev_polynomials():
    # one Chebyshev evaluator: outside polyalg.py, mode data comes from
    # chain.mode_arrays and never from a recurrence of its own
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if path.name != "polyalg.py"
             and "chebyshev_u" in names_used(path)]
    assert users == ["chain.py"]


def test_only_cli_lays_out_artifacts():
    # the CLI owns every artifact format: only it parses and serializes
    # through _fmt, and only it turns a result dataclass into a document
    assert importers("xyep._fmt") == ["cli.py"]
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if "asdict" in names_used(path)]
    assert users == ["cli.py"]


def test_only_errors_applies_the_integer_rule():
    # one owner of the integer-argument rule, errors.as_int; every other
    # module calls it instead of operator.index
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if any(module == "operator" for _, module in imported_modules(path))]
    assert users == ["errors.py"]


def test_only_errors_applies_the_number_rule():
    # likewise errors.as_number owns the check against numbers.Number
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if any(module == "numbers" for _, module in imported_modules(path))]
    assert users == ["errors.py"]


def test_only_chain_reads_a_specs_kept_spectrum():
    # every other module reaches a spec's roots through quasi_energies
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if {"_points", "_near_ep_pairs"} & names_used(path)]
    assert users == ["chain.py"]


def test_the_library_never_builds_the_dense_quasi_hamiltonian():
    # bases are certified from their checkerboard halves; the dense M is
    # the tests' reference and a public name, re-exported by the package
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if "build_quasi_hamiltonian" in names_used(path)]
    assert users == ["__init__.py"]


ROOT = SRC.parents[1]


# the keys every committed bench record shares, so records compare
BENCH_KEYS = {"change", "claimed", "command", "end_to_end", "host", "order",
              "parent_commit", "seeds", "statistic", "trace"}


def test_every_bench_record_parses_and_carries_the_shared_keys():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(BENCH_KEYS - set(record)) == [], path.name


def error_kinds() -> list[str]:
    """The XYEPError subclasses defined in errors.py."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "XYEPError"
                    for b in node.bases)]


def raised_names() -> set[str]:
    """Names raised as ``raise Name(...)`` anywhere in the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                found.add(node.exc.func.id)
    return found


def readme_exit_codes() -> dict[str, int]:
    """Error kind -> exit code, from the rows of the README's exit-code table."""
    rows = re.findall(r"^\| `(\d)` \| `(\w+)` \|",
                      (ROOT / "README.md").read_text(encoding="utf-8"),
                      flags=re.MULTILINE)
    return {name: int(code) for code, name in rows}


def test_every_error_kind_is_raised_and_documented():
    kinds = error_kinds()
    assert len(kinds) == 7
    assert sorted(set(kinds) - raised_names()) == []
    assert sorted(readme_exit_codes()) == sorted(kinds)


def test_documented_exit_codes_are_the_cli_codes(monkeypatch, capsys):
    import xyep.cli as cli
    import xyep.errors as errors

    for name, code in readme_exit_codes().items():
        def refuse(args, exc=getattr(errors, name)):
            raise exc("refused")

        monkeypatch.setattr(cli, "cmd_ep_table", refuse)
        assert cli.main(["ep-table", "--L-max", "4"]) == code, name
        assert capsys.readouterr().err == "error: refused\n"



def definition_lines(tree: ast.Module, name: str) -> set[int]:
    """Lines of ``__all__`` and of the top-level statements defining ``name``."""
    lines = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = {node.name}
        else:
            defined = {t.id for t in getattr(node, "targets", [])
                       if isinstance(t, ast.Name)}
        if defined & {name, "__all__"}:
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            lines.update(range(start, node.end_lineno + 1))
    return lines


def caller_corpus() -> dict[Path, str]:
    """Text of everything a public name or option counts as used in.

    That is the package's modules (not the ``__init__`` re-export), the
    acceptance gate, the README and the non-test files under bench/.
    """
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    paths += [ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"]
    paths += [path for path in sorted((ROOT / "bench").glob("*"))
              if path.is_file() and not path.name.startswith("test_")]
    return {path: path.read_text(encoding="utf-8") for path in paths}


def orphaned_public_names() -> list[str]:
    """Names in a module's ``__all__`` that nothing outside the unit tests uses.

    A use is the name as a whole word anywhere in :func:`caller_corpus`
    but the name's own definition and ``__all__`` entry.
    """
    texts = caller_corpus()
    found = []
    for path in [path for path in texts if path.parent == SRC]:
        module = importlib.import_module(f"xyep.{path.stem}")
        tree = ast.parse(texts[path])
        for name in getattr(module, "__all__", []):
            skip = definition_lines(tree, name)
            own = "\n".join(line for i, line in
                            enumerate(texts[path].splitlines(), 1)
                            if i not in skip)
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in
                       [own] + [texts[p] for p in texts if p != path]):
                found.append(f"{path.stem}.{name}")
    return found


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    # a public name that only its own unit tests use is dead weight:
    # delete it, or keep what it checks as a local helper in the tests
    assert orphaned_public_names() == []


def fenced_blocks(text: str, language: str) -> list[str]:
    """Bodies of the Markdown code blocks fenced as ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", text,
                      flags=re.MULTILINE | re.DOTALL)


def python_code(path: Path, text: str) -> str:
    """A Python file as it stands; of a Markdown file, its python blocks."""
    if path.suffix == ".py":
        return text
    return "\n".join(fenced_blocks(text, "python"))


def readme_commands() -> list[list[str]]:
    """Arguments of every ``xyep`` line in the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = fenced_blocks(text[text.index("## Command line"):], "sh")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("xyep ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # both caller rules count the README, so what it shows must run
    import xyep.cli as cli

    monkeypatch.chdir(tmp_path)
    readme = ROOT / "README.md"
    exec(python_code(readme, readme.read_text(encoding="utf-8")), {})
    commands = readme_commands()
    assert len(commands) == 6
    for k, argv in enumerate(commands):
        if "--out" not in argv:
            argv = argv + ["--out", f"command{k}.out"]
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == ""
    assert len(list(tmp_path.iterdir())) == 6


def bound_options() -> dict[str, tuple[int, set[str]]]:
    """Called name -> (most positional arguments, keywords) of its corpus calls."""
    found = {}
    for path, text in caller_corpus().items():
        for node in ast.walk(ast.parse(python_code(path, text))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            positional, keywords = found.get(name, (0, set()))
            found[name] = (max(positional, len(node.args)),
                           keywords | {k.arg for k in node.keywords})
    return found


def uncalled_options() -> list[str]:
    """Defaulted parameters of public functions that no corpus call binds."""
    bound = bound_options()
    found = []
    for path in [path for path in caller_corpus() if path.parent == SRC]:
        module = importlib.import_module(f"xyep.{path.stem}")
        for name in getattr(module, "__all__", []):
            func = getattr(module, name)
            if not inspect.isfunction(func):
                continue
            positional, keywords = bound.get(name, (0, set()))
            params = inspect.signature(func).parameters.values()
            for index, param in enumerate(params):
                by_position = (param.kind != param.KEYWORD_ONLY
                               and positional > index)
                if (param.default is not param.empty and not by_position
                        and param.name not in keywords):
                    found.append(f"{path.stem}.{name}({param.name})")
    return found


def test_every_public_option_has_a_caller_outside_the_unit_tests():
    # an option only unit tests set is a code path no user takes:
    # delete it, or reach what it checks by monkeypatching in the tests
    assert uncalled_options() == []
