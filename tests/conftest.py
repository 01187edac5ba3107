import gc

import pytest

from satguide.parser import parse_tptp


@pytest.fixture(autouse=True)
def collector_state():
    """Fail a test that leaves the cyclic garbage collector paused or
    changes what is frozen, and put the state back for the next test."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    yield
    now_enabled, now_frozen = gc.isenabled(), gc.get_freeze_count()
    if enabled and not now_enabled:
        gc.enable()
    if now_frozen != frozen and not frozen:
        gc.unfreeze()
    if (now_enabled, now_frozen) != (enabled, frozen):
        pytest.fail(f"collector left enabled={now_enabled}, freeze count {now_frozen}; "
                    f"it was enabled={enabled}, freeze count {frozen}")


@pytest.fixture
def socrates():
    return parse_tptp(
        """
        cnf(a1, axiom, (~human(X) | mortal(X))).
        cnf(a2, axiom, (human(socrates))).
        cnf(g, negated_conjecture, (~mortal(socrates))).
        """,
        name="socrates",
    )


def parse(text: str, name: str = "t"):
    return parse_tptp(text, name=name)
