import pytest

from infgcn import layers


@pytest.fixture(autouse=True)
def empty_decode_memo(monkeypatch):
    """Each test starts with no radial decode table kept, so no count of
    table builds depends on which tests ran before it."""
    monkeypatch.setattr(layers, "_DECODE", None)
