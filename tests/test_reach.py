"""The statement finder and tracer behind ``tests/reach.py``, on a fixture
module: a broken tool must not be able to report that nothing is unreached."""

import importlib.util
import sys

import reach

FIXTURE = '''"""A module docstring, which is no statement."""
import functools


@functools.cache
def used(x):
    """A docstring, which is no statement."""
    global SEEN
    if x:
        return (
            x + 1
        )
    return 0


def unused():
    return functools
'''


def test_the_finder_skips_docstrings_and_global_and_spans_heads():
    spans = reach.statements(FIXTURE)
    assert [a for a, b in spans] == [2, 5, 9, 10, 13, 16, 17]
    # a decorated def starts at its decorator; a compound head stops before its body
    assert (5, 6) in spans and (9, 9) in spans and (10, 12) in spans


def test_the_tracer_flags_exactly_the_lines_no_call_reached(tmp_path):
    path = tmp_path / "reach_fixture.py"
    path.write_text(FIXTURE)
    before = sys.gettrace()
    with reach.trace(tmp_path) as hits:
        spec = importlib.util.spec_from_file_location("reach_fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.used(0) == 0
    assert sys.gettrace() is before
    lines = hits[str(path.resolve())]
    assert reach.unreached(FIXTURE, lines) == [10, 17]
