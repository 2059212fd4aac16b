"""Dead-code census: the definitions in ``src/`` that tier-1 never enters.

Runs the tier-1 suite in this process with a ``sys.settrace`` hook that
records the code object of every call (it returns None, so no line is
traced), in every thread, then lists each ``def`` that ``ast`` finds in
``src/`` whose code never ran. Standard library only, apart from the
suite's own pytest.

    PYTHONPATH=src python tools/census.py           # print the unreached list
    PYTHONPATH=src python tools/census.py --write   # rewrite tools/census.txt
    PYTHONPATH=src python tools/census.py --check   # fail if one is unreached that
                                                    # tools/census.txt does not list,
                                                    # or one it lists is gone or entered

``tools/census.txt`` keeps a one-line reason after each entry (``--write``
carries them over). Code that only runs in a subprocess the tests start,
such as ``repro serve``, is not seen. Tracing roughly doubles tier-1's
time, so CI runs the census as a step of its own.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LIST = ROOT / "tools" / "census.txt"
HEADER = (
    "# Definitions in src/ that tier-1 never enters: tools/census.py (--check in CI).\n"
    "# <file>:<line> <name>  -- why it stays; a stub is abstract or a no-op default.\n"
)


def definitions():
    """(file, first line, qualified name, is a stub) for every def in src/."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        yield from _defs(tree, path.relative_to(ROOT).as_posix(), "")


def _defs(node, file: str, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            yield file, first, name, _is_stub(child)
            yield from _defs(child, file, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, file, prefix + child.name + ".")
        else:
            yield from _defs(child, file, prefix)


def _is_stub(func) -> bool:
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if any("abstractmethod" in ast.unparse(d) for d in func.decorator_list):
        return True
    return not body or all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        or (isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt))
        for stmt in body
    )


def entered_by_tier1() -> tuple[int, set[tuple[str, int]]]:
    """Run tier-1 traced: (pytest's exit code, {(file, first line)} entered)."""
    import pytest

    src = str(SRC)
    entered: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(src):
            entered.add((code.co_filename, code.co_firstlineno))

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-x", "-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {
        (Path(file).relative_to(ROOT).as_posix(), line) for file, line in entered
    }


def read_list() -> dict[tuple[str, str], str]:
    """The committed list: (file, name) -> the line as written."""
    entries = {}
    if LIST.exists():
        for line in LIST.read_text().splitlines():
            if line and not line.startswith("#"):
                where, name = line.split()[:2]
                entries[where.rsplit(":", 1)[0], name] = line
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite tools/census.txt")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if the list misses an unreached definition, or holds "
                           "one that is gone or reached")
    args = parser.parse_args()

    status, entered = entered_by_tier1()
    if status != 0:
        print(f"census: tier-1 failed (pytest exit {status}); no list", file=sys.stderr)
        return status
    defined = list(definitions())
    unreached = [d for d in defined if (d[0], d[1]) not in entered]
    listed = read_list()
    lines = []
    for file, line, name, stub in unreached:
        kept = listed.get((file, name), "")
        reason = kept.split("  -- ", 1)[1] if "  -- " in kept else ("stub" if stub else "")
        lines.append(f"{file}:{line} {name}" + (f"  -- {reason}" if reason else ""))
    stubs = sum(1 for d in unreached if d[3])
    print("\n".join(lines))
    print(f"census: {len(unreached)} definitions unreached ({stubs} stubs); "
          f"{len(listed)} listed in {LIST.relative_to(ROOT)}")
    if args.write:
        LIST.write_text(HEADER + "\n".join(lines) + "\n")
    if args.check:
        names = {(file, name) for file, _, name, _ in defined}
        missed = {(file, name) for file, _, name, _ in unreached}
        failures = {
            "unreached definitions not in the list": [
                line for (file, _, name, _), line in zip(unreached, lines)
                if (file, name) not in listed
            ],
            "listed definitions that no longer exist": [
                line for key, line in listed.items() if key not in names
            ],
            "listed definitions tier-1 now enters": [
                line for key, line in listed.items() if key in names and key not in missed
            ],
        }
        for title, found in failures.items():
            if found:
                print(f"census: {title}:\n" + "\n".join(found), file=sys.stderr)
        if any(failures.values()):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
