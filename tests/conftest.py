import pytest

from latnorm import corpus


@pytest.fixture(scope="session")
def entries():
    return {entry_id: corpus.load(entry_id) for entry_id in corpus.ENTRY_IDS}


@pytest.fixture(scope="session")
def l11(entries):
    return entries["L11"]


@pytest.fixture(scope="session")
def l13(entries):
    return entries["L13"]


@pytest.fixture(scope="session")
def l22(entries):
    return entries["L22"]


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` wraps each function named in
    ``module`` and returns the list the wrappers append their names to."""
    def wrap(module, *names) -> list:
        calls = []
        for name in names:
            def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        return calls

    return wrap
