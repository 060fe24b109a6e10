import pytest

from loopzeta import _blocks


@pytest.fixture
def block(request, monkeypatch):
    """The memory block in floats: as shipped, or, where a test passes a size
    (`indirect=["block"]`), that size, which every blocked loop reads when it
    is called, so that a small one runs its ragged multi-block path on small
    inputs."""
    size = getattr(request, "param", None)
    if size is not None:
        monkeypatch.setattr(_blocks, "BLOCK", size)
    return _blocks.BLOCK
