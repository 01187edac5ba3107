"""The bundled corpus, pinned byte for byte.

`CORPUS_PIN` hashes the name, family, sorted tags and printed TPTP of
every problem of `desk_corpus(0)` to `desk_corpus(4)`, as the corpus was
built before it shared distractor families between problems. A change
that is meant to alter only how fast the corpus is built must leave it as
it is.
"""

import hashlib

from satguide.corpus import desk_corpus
from satguide.fol import problem_str

CORPUS_PIN = "b0dec3d10d1cb94cece988069ee198cd73820a38d0e6160c749a66d94a956980"


def printed(seed: int) -> list[str]:
    return ["\0".join([item.name, item.family, ",".join(sorted(item.tags)),
                       problem_str(item.problem)])
            for item in desk_corpus(seed)]


def test_corpus_pinned():
    h = hashlib.sha256()
    for seed in range(5):
        for text in printed(seed):
            h.update(text.encode())
    assert h.hexdigest() == CORPUS_PIN


def test_no_state_carries_across_calls():
    assert printed(1) == printed(1)
