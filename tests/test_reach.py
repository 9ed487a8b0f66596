"""Every top-level function in the package is used by code in `src/` or `bench/`.

A formula that only the tests call belongs with the tests, as lyapunov's
reference terms sit in `tests/lyapunov_oracle.py`.  A function counts as
used when some module under `src/` or `bench/` reads its name, as a bare
name or as an attribute.  `EXCEPTIONS` lists the functions kept without
such a use, each with its reason.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "coopstream")
EXCEPTIONS = {
    "traces.constant_capacity": "builds the flat CapacityTrace that hand-built test scenarios and"
    " their capacity CSVs start from; one line beside the class it builds",
}


def python_files(top: str) -> list[str]:
    found = []
    for root, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d not in ("_work", "__pycache__"))
        found += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
    return found


def unused_functions(modules: dict[str, str], sources: list[str]) -> list[str]:
    """`module.function` for each top-level function in `modules` (name ->
    source) whose name no source in `sources` reads."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}.{node.name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in read
    )


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
    assert unused_functions({"m": module}, [module, user]) == ["m.c"]
