from __future__ import annotations

import sys
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
