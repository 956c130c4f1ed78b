"""List the lines of src/onlinecolor/ that the Tier-1 suite never runs.

Runs Tier-1 in this process under a ``sys.monitoring`` LINE hook that turns
each line's event off after its first hit, so the run costs little more
than Tier-1 itself.  Then prints every executable line of the package that
never ran, as ``path:line: source``, and their count.  A line is executable
when some instruction of the compiled module starts on it.  Lines run only
in a child process (a test that starts ``python``) count as unreached.
An unreached line listed in ``ALLOWED`` (by file and stripped source text,
with its reason) is printed apart and not counted.

    python3 tools/coverage.py [extra pytest arguments]

Needs Python >= 3.12 (for ``sys.monitoring``) and pytest; apart from pytest
it imports only the standard library.  Exits with pytest's status when
pytest fails, else 1 if some line outside ``ALLOWED`` is unreached, else 0.
"""

from __future__ import annotations

import dis
import functools
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "onlinecolor"
# (file name, stripped source line) -> why no in-process test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "runs only when the module runs as a script, in a child process",
}


def executable_lines(path: Path) -> set[int]:
    """The lines on which some instruction of the compiled module starts."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # None or 0 marks an instruction of no source line
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("coverage.py needs Python >= 3.12 for sys.monitoring", file=sys.stderr)
        return 2
    import pytest

    hits: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}

    @functools.cache
    def package_file(filename: str):
        path = Path(os.path.realpath(filename))
        return path if path in hits else None

    def on_line(code, line):
        path = package_file(code.co_filename)
        if path is not None:
            hits[path].add(line)
        return sys.monitoring.DISABLE

    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    mon.use_tool_id(tool, "onlinecolor-coverage")
    mon.register_callback(tool, mon.events.LINE, on_line)
    # the package is imported after this point, so its module-level lines count
    mon.set_events(tool, mon.events.LINE)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)

    total = 0
    unreached: list[str] = []
    allowed: list[str] = []
    for path in sorted(hits):
        lines = executable_lines(path)
        text = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for line in sorted(lines - hits[path]):
            source = text[line - 1].strip()
            where = f"{path.relative_to(ROOT)}:{line}: {source}"
            reason = ALLOWED.get((path.name, source))
            if reason is None:
                unreached.append(where)
            else:
                allowed.append(f"{where}  ({reason})")
    for where in unreached:
        print(where)
    print(f"{len(unreached)} of {total} executable lines in {PACKAGE.relative_to(ROOT)}/ unreached, "
          f"and {len(allowed)} allowed:")
    for where in allowed:
        print(f"  {where}")
    return int(status) or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
