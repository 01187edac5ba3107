"""satguide: a saturation theorem prover with learned clause selection.

The pipeline: parse TPTP problems, run the given-clause loop under hybrid
round-robin heuristics, extract labeled proof traces, train a neural
clause scorer (CNN / WaveNet / tree recursive), and plug the scorer back
into selection (pure, hybrid, or two-phase switched guidance), with a
premise-selection cascade and an experiment harness on top.
"""

from . import clausify, corpus, datagen, guidance, harness, heuristics, premsel
from .fol import (
    Clause,
    Literal,
    Problem,
    Symbol,
    Term,
    clause_str,
    normalize_variables,
    problem_str,
)
from .guidance import GuidanceConfig, guided_prove
from .parser import ParseError, parse_tptp
from .saturation import (
    ProveResult,
    SearchConfig,
    prove,
    verify_proof_detailed,
)
from .tokens import Vocabulary, tokenize

__version__ = "0.1.0"
