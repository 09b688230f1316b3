"""Lines of ``src/ipsearch`` that tier-1 never runs.

Runs the tier-1 tests in this process under a standard-library line tracer
(``sys.settrace``, and ``threading.settrace`` for the threads the tests
start), prints every executable line of the package that never ran, and
exits 1 if any of them is not in ``UNRUN`` below, or if an ``UNRUN`` entry
names a line that ran or is gone. Arguments go to pytest:

    PYTHONPATH=src python tests/line_cover.py -q

The package must not be imported before the tracer starts, so that its
module-level lines count. Lines that only a child process runs count as
never run.
"""
from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parent.parent / "src" / "ipsearch"

# (file, the line's text without its indentation) -> why no test runs it.
# A text names every never-run line that has it: "..." is both of Backend's
# abstract-method bodies.
UNRUN = {
    ("backend.py", "..."): "the body of an abstract method: every backend overrides it",
    ("core.py", "from .backend import Session"): "an import for type checkers only",
    ("cli.py", "raise SystemExit(main())"): "the __main__ guard: the tests call main() in-process",
    ("core.py", "return NotImplemented"): "CandidateScore compared with another class, which no code does",
}


def executable(code: CodeType, lines: set[int]) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines.update(line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            executable(const, lines)
    return lines


def main(argv: list[str]) -> int:
    if any(name == "ipsearch" or name.startswith("ipsearch.") for name in sys.modules):
        print("ipsearch was imported before the tracer started", file=sys.stderr)
        return 2
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):  # a new frame: trace its lines if it is the package's
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"tier-1 exited {status}; the lines below may be incomplete", file=sys.stderr)

    excused: set[tuple[str, str]] = set()
    unlisted = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        texts = source.splitlines()
        lines = executable(compile(source, str(path), "exec"), set())
        for line in sorted(lines - ran[str(path)]):
            key = path.name, texts[line - 1].strip()
            if key in UNRUN:
                excused.add(key)
                print(f"{path.name}:{line}: {key[1]}  ({UNRUN[key]})")
            else:
                unlisted += 1
                print(f"{path.name}:{line}: {key[1]}  NEVER RUN")
    stale = UNRUN.keys() - excused
    for name, text in sorted(stale):
        print(f"{name}: {text!r} is listed as never run but ran or is gone")
    print(f"{unlisted} never-run line(s) without a reason, {len(stale)} stale entr(ies)")
    return 1 if unlisted or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
