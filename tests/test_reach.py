"""Every top-level function and class method in the package is used by
code in `src/` or `bench/`, and every method of an engine subclass in the
tests overrides an engine step.

A formula that only the tests call belongs with the tests, as lyapunov's
reference terms sit in `tests/lyapunov_oracle.py` and the trace CSV
writer in `tests/trace_csv.py`.  A function or method counts as used when
some module under `src/` or `bench/` reads its name, as a bare name or as
an attribute; Python calls the dunder methods itself.  `EXCEPTIONS` lists
those kept without such a use, each with its reason.

A test subclass of `engine._Simulation` checks or replaces engine steps
by overriding them.  An override of a step the engine no longer has is
never called, so its checks stop running while the tests still pass.
"""

import ast
import os

from coopstream.engine import _Simulation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "coopstream")
EXCEPTIONS = {
    "traces.constant_capacity": "builds the flat CapacityTrace that hand-built test scenarios and"
    " their capacity CSVs start from; one line beside the class it builds",
    "cli._Parser.error": "argparse calls it on a usage error",
    "traces.MobilityTrace.next_breakpoint": "`bench/layers.py` names it as a string to wrap and time it,"
    " and `tests/test_bench_patches.py` checks that it exists; the engine no longer calls it",
}
ENGINE_TESTS = ("test_engine.py", "engine_differential.py")


def python_files(top: str) -> list[str]:
    found = []
    for root, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d not in ("_work", "__pycache__"))
        found += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
    return found


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _methods(cls: ast.ClassDef) -> list:
    return [node for node in cls.body if isinstance(node, FUNCTIONS)]


def _defined(module: str, source: str) -> list[tuple[str, str]]:
    """(qualified name, name) of each top-level function and each method of
    a top-level class in `source`, dunder methods aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS):
            found.append((f"{module}.{node.name}", node.name))
        elif isinstance(node, ast.ClassDef):
            found += [
                (f"{module}.{node.name}.{f.name}", f.name)
                for f in _methods(node)
                if not (f.name.startswith("__") and f.name.endswith("__"))
            ]
    return found


def unused_functions(modules: dict[str, str], sources: list[str]) -> list[str]:
    """`module.function` or `module.Class.method` for each top-level function
    and method in `modules` (name -> source) whose name no source in
    `sources` reads."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        qualified
        for module, source in modules.items()
        for qualified, name in _defined(module, source)
        if name not in read
    )


def stale_overrides(source: str, base: str, steps: set[str]) -> list[str]:
    """`Class.method` for each method of a class in `source` that derives
    from `base`, directly or through another such class, whose name is not
    in `steps`."""
    derived = {base}
    stale = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
        if bases & derived:
            derived.add(node.name)
            stale += [f"{node.name}.{f.name}" for f in _methods(node) if f.name not in steps]
    return stale


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def test_every_package_function_is_used():
    modules = {os.path.basename(p)[:-3]: _read(p) for p in python_files(PACKAGE)}
    sources = [_read(p) for top in ("src", "bench") for p in python_files(os.path.join(ROOT, top))]
    assert unused_functions(modules, sources) == sorted(EXCEPTIONS)


def test_the_check_sees_unused_functions():
    module = "def a():\n    pass\n\ndef b():\n    pass\n\ndef c():\n    return b()\n\nclass K:\n    def d(self):\n        pass\n"
    user = "import m\nm.a()\n"
    assert unused_functions({"m": module}, [module, user]) == ["m.K.d", "m.c"]
    method = "class K:\n    def __init__(self):\n        pass\n\n    def d(self):\n        pass\n"
    assert unused_functions({"m": method}, [method, "k.d()\n"]) == []


def test_every_engine_subclass_method_overrides_an_engine_step():
    steps = set(dir(_Simulation))
    for name in ENGINE_TESTS:
        assert stale_overrides(_read(os.path.join(ROOT, "tests", name)), "_Simulation", steps) == []


def test_the_check_sees_stale_overrides():
    # A check on a step the engine dropped, in a subclass and in its own
    # subclass; a helper class beside them is not an engine subclass.
    source = (
        "class A(engine._Simulation):\n    def _decide(self):\n        pass\n\n"
        "    def _coordination(self):\n        pass\n\n"
        "class B(A):\n    def _gone(self):\n        pass\n\n"
        "class Helper:\n    def _scan(self):\n        pass\n"
    )
    steps = {"_decide"}
    assert stale_overrides(source, "_Simulation", steps) == ["A._coordination", "B._gone"]
