from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from importlib import resources

import pytest

from ostrans import parse_spec, translate_algebra


def _fixture_text(name: str) -> str:
    return (resources.files("ostrans") / "fixtures" / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def imp_text() -> str:
    return _fixture_text("imp.osa")


@pytest.fixture(scope="session")
def imp(imp_text):
    return parse_spec(imp_text)


@pytest.fixture(scope="session")
def imp_real():
    return parse_spec(_fixture_text("imp_real.osa"))


@pytest.fixture(scope="session")
def imp_translated(imp):
    return translate_algebra(imp)


@pytest.fixture(scope="session")
def imp_real_translated(imp_real):
    return translate_algebra(imp_real)


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls to a function under every name an ``ostrans`` module binds.

    ``count_calls(fn)`` returns a list that collects the arguments of each
    call until the test ends.
    """
    def install(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "ostrans" or name.startswith("ostrans."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return install


@pytest.fixture
def collections_in():
    """Record the cyclic collections that start while a call runs.

    ``collections_in(run)`` empties the generations, calls ``run()`` with
    the collector on, allocates a few containers after it (a collection
    the call left due fires on the first of them) and returns ``run()``'s
    result with the generation of each collection that started.
    """
    def record_during(run):
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(record)
        try:
            result = run()
            [[] for _ in range(10)]
        finally:
            gc.callbacks.remove(record)
        return result, started

    return record_during


@pytest.fixture
def shallow_stack():
    """``with shallow_stack():`` lowers the recursion limit to the frame
    depth plus a small margin, so a call that recurses over a deep input
    raises ``RecursionError``; the old limit comes back on the way out."""
    @contextmanager
    def lowered(margin: int = 60):
        old, depth, frame = sys.getrecursionlimit(), 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        sys.setrecursionlimit(depth + margin)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return lowered
