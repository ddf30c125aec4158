# anchors the tests directory on sys.path so `import oracles` works

import pytest

from dcboost import tv_cauchy


@pytest.fixture
def two_bands(monkeypatch):
    """tv_prox on two row bands in two threads at any raster size (a
    one-row raster has no second band), whatever the pixel count and the
    CPUs."""
    monkeypatch.setattr(tv_cauchy, "_two_bands", lambda m, n: m >= 2)
