import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import onlinecolor

PACKAGE = Path(onlinecolor.__file__).parent


def _imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports anywhere, function bodies
    included."""
    got = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "onlinecolor"):
            if node.module in (None, "onlinecolor"):  # from . import a, b
                got.update(alias.name for alias in node.names)
            else:  # from .a import x
                got.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            got.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("onlinecolor."))
    return got


def test_package_imports_have_no_cycle():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {m: _imports(PACKAGE / f"{m}.py") & modules for m in modules}
    assert graph["harness"] >= {"colorer", "matcher"}  # the walk finds imports
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
