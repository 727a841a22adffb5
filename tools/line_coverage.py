"""Statements of src/canomap that the Tier-1 suite never runs.

    python3 tools/line_coverage.py

Runs the Tier-1 suite (pytest on tests/) in this interpreter under a
sys.settrace line recorder that traces only frames whose code lives in this
checkout's src/canomap, then prints one line
`path:line: source` per executable statement that never ran, and a summary.
A statement is executable when the compiler gives its first line an
instruction (docstrings and bare `else:` lines are not).  The tests in
tests/test_perfbench_binding.py are left out: they run canomap in a child
interpreter, which the recorder cannot see; for the same reason a statement
under a module's `if __name__ == "__main__":` guard, which only a child
interpreter running `python -m` reaches (tests/test_cli.py has such a test),
is listed with a note saying so.  No bytecode and no pytest cache are
written.  Hypothesis runs derandomized and without deadlines, so the
report does not change from run to run.  Exits with pytest's status.
Standard library only, besides pytest and hypothesis.
"""
import ast
import os
import sys
import threading

sys.dont_write_bytecode = True   # what -B does, before anything is imported

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
SRC = os.path.join(ROOT, "src", "canomap")
sys.path.insert(0, os.path.join(ROOT, "src"))

_hit = {}   # file name -> set of line numbers that ran


def _local(frame, event, arg):
    if event == "line":
        _hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(SRC + os.sep):
        return None
    _hit.setdefault(name, set()).add(frame.f_lineno)
    return _local


def executable_lines(path):
    """{first line of each statement that compiles to an instruction: source}."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    coded, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)
            and node.lineno in coded}


def main_guarded(path):
    """First lines of the statements under `if __name__ == "__main__":`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {stmt.lineno for node in tree.body if isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'"
            for stmt in ast.walk(node) if isinstance(stmt, ast.stmt) and stmt is not node}


class _Derandomized:
    """A pytest plugin that loads a Hypothesis profile without deadlines
    and with a fixed example sequence, once Hypothesis's plugin is in."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("line-coverage", deadline=None, derandomize=True)
        settings.load_profile("line-coverage")


def main():
    import pytest
    tests = os.path.join(ROOT, "tests")
    argv = ["-q", "-p", "no:cacheprovider", tests,
            "--ignore", os.path.join(tests, "test_perfbench_binding.py")]
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(argv, plugins=[_Derandomized()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = total = guards = 0
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        stmts = executable_lines(path)
        ran, guarded = _hit.get(path, set()), main_guarded(path)
        total += len(stmts)
        for line in sorted(set(stmts) - ran):
            missed += 1
            guards += line in guarded
            note = "  (under the __main__ guard: reached only by subprocess tests)" \
                if line in guarded else ""
            print(f"{os.path.relpath(path, ROOT)}:{line}: {stmts[line]}{note}")
    print(f"line_coverage: {missed} of {total} statements in src/canomap never ran"
          f" ({guards} of them under a __main__ guard)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
