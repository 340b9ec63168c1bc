"""Statements of ``src/parahom`` that no tier-1 test executes.

Usage:  python tests/unreached.py [pytest args ...]

Runs the tier-1 suite in this process (``tests/`` unless other pytest
arguments are given) under a line tracer installed with ``sys.settrace``
and ``threading.settrace``; only frames whose code lives in ``src/parahom``
are traced.  Then prints, module by module, every statement that no test
executed, as ``path:line: source``, and a count per module.  A statement
counts as executed when a line of its own (the header of a compound
statement, all lines of a simple one) ran.  Docstrings are not statements.

The tracer slows the suite down, so wall-clock gates may fail under it; the
pytest exit status is printed and the listing is made either way.  The file
is not collected by pytest (its name does not match ``test_*.py``).
"""

import ast
import os
import sys
import threading

_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")
_PACKAGE = os.path.join(_SRC, "parahom")


def _code_lines(code):
    """Line numbers of every instruction of ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def _statement_spans(tree):
    """(first, last, node) of every statement: the header lines of a
    compound statement, all lines of a simple one; docstrings left out."""
    spans = []
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body[0].docstring = True
        if not isinstance(node, ast.stmt) or getattr(node, "docstring", False):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        inner = [s.lineno for field in ("body", "orelse", "finalbody",
                                        "handlers", "cases")
                 for s in getattr(node, field, []) or []]
        last = min(inner) - 1 if inner else node.end_lineno
        spans.append((first, max(first, last), node))
    return spans


def unreached(hits):
    """{path: [(line, source)]} of the statements of src/parahom with no
    line in ``hits``, a set of (path, line)."""
    out = {}
    for name in sorted(os.listdir(_PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(_PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        executable = _code_lines(compile(source, path, "exec"))
        missed = []
        for first, last, _ in sorted(_statement_spans(ast.parse(source)),
                                     key=lambda span: span[0]):
            own = {ln for ln in range(first, last + 1) if ln in executable}
            if own and not any((path, ln) in hits for ln in own):
                missed.append((first, text[first - 1].strip()))
        out[path] = missed
    return out


def main(argv):
    import pytest

    sys.path.insert(0, _SRC)
    hits = set()
    prefix = _PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [_TESTS])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, missed in unreached(hits).items():
        rel = os.path.relpath(path, os.path.dirname(_SRC))
        for line, text in missed:
            print(f"{rel}:{line}: {text}")
        print(f"# {rel}: {len(missed)} unreached statements")
        total += len(missed)
    print(f"# total: {total} unreached statements; pytest exit status "
          f"{int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
