import gc
from pathlib import Path

import pytest

from satguide.neural.checkpoint import load_checkpoint_file
from satguide.parser import parse_tptp
from satguide.tokens import Vocabulary


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


@pytest.fixture(scope="session")
def fixture_cnn():
    """(model, vocab): the benchmark's fixture CNN, trained on the desk
    corpus, and its vocabulary."""
    fixture = Path(__file__).resolve().parents[1] / "bench" / "fixture"
    vocab = Vocabulary.load(str(fixture / "vocab.txt"))
    return load_checkpoint_file(str(fixture / "cnn.sgnn"), vocab.hash), vocab
