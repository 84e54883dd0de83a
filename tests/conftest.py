import pathlib
import sys
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from wrsp.engine import get_context  # noqa: E402

_SESSION_T0 = time.time()


def random_element(ctx, rng):
    """An element of the level of ctx with every coordinate drawn from rng."""
    return ctx.element(rng.randrange(ctx.tmod), rng.getrandbits(ctx.n), rng.getrandbits(ctx.d))


@pytest.fixture(scope="session")
def ctx1():
    return get_context(1)


@pytest.fixture(scope="session")
def ctx2():
    return get_context(2)


@pytest.fixture(scope="session")
def ctx3():
    return get_context(3)


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.time() - _SESSION_T0
    print(f"\nsuite wall clock: {elapsed:.1f}s")
