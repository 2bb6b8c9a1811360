"""Checks on the package source, and on the hooks the benchmark traces."""

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cohere import Atom, ConditionalEvent, cli, coherence, inference, n_conditional
from cohere.inference import loop_family

from helpers import all_ones

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cohere"
LINDA = ROOT / "kb" / "linda.kb"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax from a later version.
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_mask_fold_is_the_only_evaluator_in_package():
    # Events are evaluated only by their mask fold, which also rejects
    # undeclared atoms; the per-world semantics live in the tests' helpers.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("evaluate", "atoms")
        ]
    assert not found, found


def test_package_reads_no_environment():
    # Every limit is a constant in the source, so an answer never depends on
    # the environment the engine runs in.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name in ("environ", "getenv")
            ]
    assert not found, found


def test_no_mask_difference_builds_a_negative_temporary():
    # ``x & ~y`` builds ~y, a negative integer as wide as the mask, first;
    # ``(x | y) ^ y``, or ``x ^ y`` where y lies within x, gives the same bits
    # at a third to a quarter of the cost on a 2**14-bit mask.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitAnd):
                right = node.value if isinstance(node, ast.AugAssign) else node.right
                if isinstance(right, ast.UnaryOp) and isinstance(right.op, ast.Invert):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


EXACT_CHECKS_UNDER_O = """
import sys
from fractions import Fraction as Fr
from cohere import Assessment, ConditionalEvent, Context, build_sigma, parse_event
from cohere.coherence import sigma_feasible
from cohere.simplex import INFEASIBLE, LPResult, _check_farkas, check_solution

def raises(check):
    try:
        check()
    except AssertionError:
        return True
    return False

ctx = Context(("A",))
a = parse_event("A", ctx.atoms)
ce = ConditionalEvent(a, parse_event("T", ctx.atoms), ctx)
# The same event assessed at 1/4 and 3/4: refuted, with positive gains.
system = build_sigma(Assessment((ce, ce), (Fr(1, 4), Fr(3, 4))))
sound = sigma_feasible(system).certificate is not None
farkas = system.phase1.farkas
system.__dict__["phase1"] = LPResult(status=INFEASIBLE, farkas=tuple(-y for y in farkas))
print(sys.flags.optimize, sound, [
    # x = (1, 1) misses x1 + x2 = 1
    raises(lambda: check_solution([[1, 1]], [1], (1, 1), 1)),
    # numerators (0, 0) meet x1 + x2 = 1 times a zero denominator
    raises(lambda: check_solution([[1, 1]], [1], (0, 0), 0)),
    # y = (1, 1) on x1 + x2 = 1, x1 + x2 = 2 gives y.A > 0
    raises(lambda: _check_farkas([[1, 1], [1, 1]], [1, 2], [1, 1], [1, 1], range(2))),
    # negated stakes lose on every constituent
    raises(lambda: sigma_feasible(system)),
])
"""


def test_exact_checks_raise_under_python_O():
    # `python -O` strips assert statements; the exact checks must still
    # raise on corrupted inputs there.
    done = subprocess.run(
        [sys.executable, "-O", "-c", EXACT_CHECKS_UNDER_O],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True", "[True,", "True,", "True,", "True]"]


SPREAD_CHECK_UNDER_O = """
import sys
from cohere.simplex import solve_eq_lp

# x1 + x2 + x3 = 1 from basis {x1} spreads to (1, 1, 1) over 3; doubling the
# entry of x2, in the tableau's packed first row, halves its step and leaves
# the mediant off the row.
start = solve_eq_lp([[1, 1, 1]], [1])
sound = start.tableau.basis == [0] and start.spread() == ((1, 1, 1), 3)
fields, tab = start.tableau.fields, start.tableau.tab
row = fields.unpack(tab[0])
row[1] *= 2
tab[0] = fields.pack(row)
try:
    start.spread()
except AssertionError as error:
    print(sys.flags.optimize, sound, error)
"""


def test_spread_check_raises_under_python_O():
    # A corrupted phase-1 tableau gives a point off the system, and the
    # exact check rejects it with `python -O` too.
    done = subprocess.run(
        [sys.executable, "-O", "-c", SPREAD_CHECK_UNDER_O],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True", "solution", "violates", "rows", ".", "x", "=", "rhs"]


def test_no_unused_imports_in_package():
    # __init__.py re-exports on purpose, so its imports are never read there.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for alias in node.names
                    if (name := alias.asname or alias.name.split(".")[0]) not in read
                ]
    assert not found, found


def test_package_imports_no_dataclasses():
    # The value types are written out by hand on cohere._record.Record:
    # data classes generate and compile their methods at import.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "dataclasses"
            ]
    assert not found, found


def test_importing_the_engine_loads_no_dataclasses():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, cohere, cohere.cli; print('dataclasses' in sys.modules)"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


IMPORT_FOOTPRINT = """
import contextlib, io, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("cohere."))

import cohere
print(loaded())
import cohere.cli
print([m for m in ("simplex", "kbfile", "tnorms", "oracle") if f"cohere.{m}" in sys.modules])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cohere.cli.main(["check", "kb/gn_chain.kb", "--json"])
print(code, out.getvalue().strip())
print([m for m in ("simplex", "kbfile", "tnorms") if f"cohere.{m}" in sys.modules])
with contextlib.redirect_stdout(io.StringIO()):
    code = cohere.cli.main(["tnorm", "product", "1/2", "1/2"])
print(code, "cohere.tnorms" in sys.modules)
"""


def test_importing_the_engine_loads_what_a_command_uses():
    # Each submodule is loaded when a name from it is first used: with no
    # bytecode cache, every module a process loads is compiled first.  The
    # check prints the same bytes as when every module was loaded at once.
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]",
        "[]",
        '0 {"certificate": null, "coherent": true, "trace": [{"I0": [], "indices": [0, 1]}], '
        '"witness": ["2/3", "0", "1/4", "0", "1/12"]}',
        "['simplex', 'kbfile']",
        "0 True",
    ]


def test_package_names_resolve_to_their_modules():
    # Every public name resolves, as cohere.X, to the object its module
    # defines, and every submodule as cohere.<module>.
    import cohere

    for module, names in cohere._EXPORTS.items():
        home = importlib.import_module(f"cohere.{module}")
        for name in names:
            assert getattr(cohere, name) is getattr(home, name), name
    assert set(cohere.__all__) | cohere._SUBMODULES <= set(dir(cohere))
    for module in cohere._SUBMODULES:
        assert getattr(cohere, module) is importlib.import_module(f"cohere.{module}")
    with pytest.raises(AttributeError, match="no_such_name"):
        cohere.no_such_name


def test_no_unreferenced_private_helpers():
    # A retired public path must not leave its private helper behind: every
    # `_name` function or class is read somewhere in the package outside
    # its own body (a recursive call does not count).
    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    trees = [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    ]
    total = {}
    for _, tree in trees:
        for name in reads(tree):
            total[name] = total.get(name, 0) + 1
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and total.get(node.name, 0) == sum(name == node.name for name in reads(node))
    ]
    assert not found, found


def _reads(node):
    """The names that ``node`` reads: every ``Name``, ``Attribute`` and
    ``from`` import, and every string that is an identifier, such as the
    benchmark tracer's table of engine functions to wrap."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            yield sub.value


def test_every_top_level_definition_is_used_outside_the_tests():
    # Code that only the tests reach belongs in the tests: every top-level
    # function and class of the package is read in the package or the
    # benchmark, outside its own definition, unless it is public API.
    import cohere

    def parse(paths):
        return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in paths]

    package = parse(sorted(PACKAGE.glob("*.py")))
    bench = parse(sorted((ROOT / "bench").rglob("*.py")))
    total = Counter(name for _, tree in package + bench for name in _reads(tree))
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in package
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in cohere.__all__
        and total[node.name] == sum(name == node.name for name in _reads(node))
    ]
    assert not found, found


def test_cli_prints_only_in_main():
    # A handler returns (payload, text, verdict) and main alone prints, so
    # every command renders and exits by the same rule.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    (main,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    in_main = {id(node) for node in ast.walk(main)}
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "print"]
    outside = [node.lineno for node in prints if id(node) not in in_main]
    assert prints and not outside, outside


def test_every_subcommand_has_a_handler():
    # Each subcommand of the parser has a handler, and each list positional,
    # zero or more or one or more, gets main's leftover rule.
    (sub,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(sub.choices) == set(cli._HANDLERS)
    trailing = {
        name: action.dest
        for name, parser in sub.choices.items()
        for action in parser._actions
        if not action.option_strings and action.nargs in ("*", "+")
    }
    assert trailing == cli._TRAILING


def test_byte_conversions_name_their_byte_order():
    # int.from_bytes and int.to_bytes default the byte order only from
    # Python 3.11, and the package supports 3.10.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("from_bytes", "to_bytes")
            and len(node.args) < 2
            and not any(k.arg == "byteorder" for k in node.keywords)
        ]
    assert not found, found


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sees_every_layer(capsys):
    tracer_module = _load_tracer()
    loop = loop_family(3)
    a1, a3 = Atom("A1"), Atom("A3")
    with tracer_module.Tracer() as tracer:
        # Look engine functions up inside the block: the tracer rebinds
        # module attributes.
        code = cli.main(["entails", str(LINDA), "~N | L", "--method", "both", "--json"])
        assert json.loads(capsys.readouterr().out)["p_entailed"] is True
        # Only truth-table decodes worlds, one per printed row.
        table = cli.main(["truth-table", str(LINDA), "--json"])
        assert json.loads(capsys.readouterr().out)["rows"]
        checked = cli.main(["check", str(LINDA), "--json"])
        # No command computes an extension interval.
        interval = coherence.extension_interval(
            all_ones(loop), ConditionalEvent(a1, a3, loop.context)
        )
        # n_conditional checks each event through is_impossible, as
        # entail-loops' friends targets do.
        friends = inference.p_entails(loop, n_conditional([a1, a3], loop.context))
    assert (code, table, checked) == (0, 0, 0)
    assert json.loads(capsys.readouterr().out)["coherent"] is True
    assert (interval.lo, interval.hi, friends) == (1, 1, True)
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, _, name in tracer_module.TARGETS}
    assert expected - recorded == set()


def test_benchmark_selftest_passes():
    # The benchmark calls the engine by attribute, so an API change can break
    # it without failing any other test.  It writes only under bench/.out/.
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
