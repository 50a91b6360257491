import pytest

from sktsym.catalog import Catalog


@pytest.fixture(scope="session")
def catalog():
    return Catalog.load()


@pytest.fixture(scope="session")
def full_validation(catalog):
    """One full catalog validation shared by every test that needs it; the
    wall-clock bound is asserted where the result is consumed."""
    import time
    t0 = time.monotonic()
    report = catalog.validate_all()
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def golden_report():
    from sktsym import invariance as inv
    return inv.golden_compare()


@pytest.fixture
def partial_misses(monkeypatch):
    """The (expression, variable) of every partial derivative the kernel's
    memo (expr.partial) misses from here on; the memo starts empty."""
    from sktsym import expr as ex
    misses = []
    rule = ex._chain_rule
    ex.partial.cache_clear()
    monkeypatch.setattr(ex, "_chain_rule",
                        lambda s, var: misses.append((s, var)) or rule(s, var))
    return misses
