"""Pinned searches: one problem of each corpus family.

Each row pins the status, the processed and generated counts and a hash
of the selection sequence of an unguided Auto search, as the search core
produced them before its standardize-apart, duplicate-key and
subsumption-index rewrite. `SCHEDULE_PINS` does the same for three
problems under Auto200 and under a custom spec, so that the weight
parameters Auto does not use (symbol weights 1 and 3, a 0.1 multiplier
with the `nongoals` tier, other entry weights) are pinned too. A change
that is meant to alter only speed must leave every row as it is. These
are count gates; nothing here measures time.
"""

import hashlib
from dataclasses import replace

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

CUSTOM = "2*symcount(2,1,sos),1*conjrel(3,1,0.1,nongoals),1*fifo"

# (schedule, problem, status, processed, generated, selection hash)
SCHEDULE_PINS = [
    ("auto200", "chain017", "Unsatisfiable", 46, 137, "a1b1a57125159134"),
    ("auto200", "php_4_3", "Unsatisfiable", 163, 2988, "d1d06ef339edc2ab"),
    ("auto200", "flood023", "Unsatisfiable", 422, 3292, "133ae19505afb603"),
    (CUSTOM, "chain017", "Unsatisfiable", 49, 206, "78d05cb75826bf4b"),
    (CUSTOM, "php_4_3", "Unsatisfiable", 163, 2755, "5d27b5064b7e1b46"),
    (CUSTOM, "flood023", "Unsatisfiable", 414, 5885, "7b5e910c83520721"),
]


# Under a tight `max_clause_literals` the search drops generated clauses
# for their size and so can no longer certify satisfiability. These rows
# pin that path, whose checks come before the tautology and duplicate
# tests: (cap, problem, status, resource, processed, generated, selection
# hash, a clause was capped), measured before admission checked bare
# literal tuples.
CAP_PINS = [
    (3, "php_4_3", "Unsatisfiable", None, 140, 2144, "f33e8abb4ded7d14", True),
    (3, "flood023", "Unsatisfiable", None, 446, 4260, "1f25f6a930b4c5f4", True),
    (3, "premsel000", "Unsatisfiable", None, 1109, 20833, "3976f3bf256d91db", True),
    (2, "php_4_3", "ResourceOut", "clause_size", 22, 36, "60531c55e871e294", True),
    (2, "flood023", "Unsatisfiable", None, 425, 4057, "17de7919df2d8c63", True),
]


@pytest.fixture(scope="module")
def problems():
    return {item.name: item for item in desk_corpus(0)}


def test_pins_cover_every_family(problems):
    assert {problems[name].family for name, *_ in PINS} == \
        {item.family for item in problems.values()}


def _pinned(problem, limits):
    r = prove(problem, limits)
    digest = hashlib.sha256(",".join(map(str, r.selections)).encode()).hexdigest()[:16]
    return r.status, r.processed_count, r.generated_count, digest


@pytest.mark.parametrize("name,status,processed,generated,selections", PINS,
                         ids=[row[0] for row in PINS])
def test_search_is_pinned(problems, name, status, processed, generated, selections):
    assert _pinned(problems[name].problem, LIMITS) == \
        (status, processed, generated, selections)


@pytest.mark.parametrize("schedule,name,status,processed,generated,selections",
                         SCHEDULE_PINS,
                         ids=[f"{'custom' if row[0] == CUSTOM else row[0]}-{row[1]}"
                              for row in SCHEDULE_PINS])
def test_schedule_search_is_pinned(problems, schedule, name, status, processed,
                                   generated, selections):
    limits = replace(LIMITS, schedule=schedule)
    assert _pinned(problems[name].problem, limits) == \
        (status, processed, generated, selections)


@pytest.mark.parametrize("cap,name,status,resource,processed,generated,selections,lossy",
                         CAP_PINS, ids=[f"cap{row[0]}-{row[1]}" for row in CAP_PINS])
def test_capped_search_is_pinned(problems, cap, name, status, resource, processed,
                                 generated, selections, lossy):
    r = prove(problems[name].problem, replace(LIMITS, max_clause_literals=cap))
    digest = hashlib.sha256(",".join(map(str, r.selections)).encode()).hexdigest()[:16]
    assert (r.status, r.resource, r.processed_count, r.generated_count, digest,
            r.state.lossy) == (status, resource, processed, generated, selections, lossy)
