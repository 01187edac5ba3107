"""Pinned searches: one problem of each corpus family.

Each row pins the status, the processed and generated counts and a hash
of the selection sequence of an unguided Auto search, as the search core
produced them before its standardize-apart, duplicate-key and
subsumption-index rewrite. A change that is meant to alter only speed
must leave every row as it is. These are count gates; nothing here
measures time.
"""

import hashlib

import pytest

from satguide.corpus import desk_corpus
from satguide.saturation import SearchConfig, prove

LIMITS = SearchConfig(max_processed=1200, max_generated=30_000,
                      max_clause_literals=12, max_wall_ms=None,
                      record_selections=True)

# (problem, status, processed, generated, selection hash)
PINS = [
    ("chain017", "Unsatisfiable", 50, 166, "0d389f8482a08c7e"),
    ("member000", "Unsatisfiable", 39, 65, "b3da0d1ea9975d0b"),
    ("php_4_3", "Unsatisfiable", 158, 2671, "f8a95f0b6d919364"),
    ("group0_id_flipped", "Unsatisfiable", 5, 6, "1f8dbc5f80244c6d"),
    ("sat000", "Satisfiable", 6, 0, "3373ac15227ef3de"),
    ("flood023", "Unsatisfiable", 446, 4260, "1f25f6a930b4c5f4"),
    ("premsel000", "Unsatisfiable", 1109, 20833, "3976f3bf256d91db"),
    ("mini001", "Unsatisfiable", 10, 23, "7a6d1da35f27ca9e"),
]


@pytest.fixture(scope="module")
def problems():
    return {item.name: item for item in desk_corpus(0)}


def test_pins_cover_every_family(problems):
    assert {problems[name].family for name, *_ in PINS} == \
        {item.family for item in problems.values()}


@pytest.mark.parametrize("name,status,processed,generated,selections", PINS,
                         ids=[row[0] for row in PINS])
def test_search_is_pinned(problems, name, status, processed, generated, selections):
    r = prove(problems[name].problem, LIMITS)
    digest = hashlib.sha256(",".join(map(str, r.selections)).encode()).hexdigest()[:16]
    assert (r.status, r.processed_count, r.generated_count, digest) == \
        (status, processed, generated, selections)
