"""Which statements of the library the tier-1 suite, or the system, never runs.

    python tests/reach.py [pytest arguments]
    python tests/reach.py --system

runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` on
``tests/``, or the given arguments) in this process under a ``sys.settrace``
tracer that records the lines run in ``src/corrlab`` frames.  It then prints
each statement no test reached as ``file:line``, and their count.  It exits
with pytest's status if the suite failed, else 1 if a statement is
unreached, else 0.  Stdlib only: no coverage package.  A test that starts a
subprocess is not traced inside the child.

``--system`` traces the system instead of the tests, from corrlab's import
on: the acceptance gate (``corrlab selftest``, which runs every suite of
``corrlab.acceptance.SUITES``) at seeds 42 and 7, its output discarded,
then one pass of each benchmark workload of
``perfbench/workloads.py`` at seed 42, set-up included.  It prints the
statements none of that ran and their count, and exits 0 once the run is
done: the trust-boundary guards no valid input reaches are among them.

A statement is found with ``ast``: every statement except a docstring and
``global``/``nonlocal`` (which compile to no code).  It is reached when a line
of its head runs: a simple statement's lines, a compound statement's lines
before its body, from its first decorator on.
"""

import ast
import os
import pathlib
import sys
import threading
from contextlib import contextmanager

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "corrlab"

_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source):
    """The heads of the statements in ``source``: sorted (first, last) line
    spans, one per statement, docstrings and global/nonlocal excluded."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add(first)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        spans.append((first, last))
    return sorted(spans)


def unreached(source, lines):
    """First lines of the statements in ``source`` none of whose head lines
    is in ``lines``."""
    return [a for a, b in statements(source) if not any(x in lines for x in range(a, b + 1))]


@contextmanager
def trace(root):
    """Record the lines run in frames of files under ``root`` while the block
    runs; yields a dict from real file path to its set of line numbers.  The
    tracer in place before (if any) is restored afterwards."""
    root = os.path.realpath(root) + os.sep
    hits = {}
    tracers = {}

    def local_for(lines):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return tracers[name]
        except KeyError:
            path = os.path.realpath(name)
            tracers[name] = local_for(hits.setdefault(path, set())) if path.startswith(root) else None
            return tracers[name]

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        yield hits
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def run_system():
    """The gate at both seeds, then one pass of each benchmark workload at
    seed 42 with its set-up, each step's result judged as the benchmark
    does; corrlab is first imported here."""
    import contextlib
    import importlib.util
    import io
    import tempfile

    from corrlab.cli import main as corrlab_main

    for seed in (42, 7):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            corrlab_main(["selftest", "--seed", str(seed)])
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory() as workdir:
            state = workload.setup(42, 1, workdir)
            for _, work, judge in workload.steps(state, 0):
                judge(work(), 0.0)


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    system = argv == ["--system"]
    with trace(LIBRARY) as hits:
        if system:
            run_system()
        else:
            import pytest

            status = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    import corrlab

    if pathlib.Path(corrlab.__file__).resolve().parent != LIBRARY:
        sys.exit(f"corrlab was imported from {corrlab.__file__}, not {LIBRARY}")
    total = 0
    for path in sorted(LIBRARY.glob("*.py")):
        for line in unreached(path.read_text(), hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}")
            total += 1
    print(f"{total} unreached statements in {LIBRARY.relative_to(ROOT)}")
    return 0 if system else int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
