"""Independent test oracles.

`bfs_saturate` decides small problems by exhaustive level-by-level
saturation: every level generates all resolvents of known clauses against
the newest level plus all factors, with only exact-variant
deduplication. No selection heuristic, no subsumption, no deletion;
suitable for the function-free mini corpus where the clause space stays
finite up to renaming.

`string_key` is the printed duplicate key the search used before its
tuple key (`fol.canonical_key`); it stays here as the reference the tuple
key is checked against. `canonical_key` and `symbol_classes` are the
tuple key and the `SymbolRecord` classes as two separate walks over a
`Clause` built them, before one walk over the bare literals gave both;
`normalize_variables` is the one-namespace renaming walk as it was before
it shared the walk of `fol.normalize_variables_twice`. They are the
references for the one key walk and the one renaming walk. `subsumes` is the plain backtracking subsumption
test that `rules.subsumes` prunes, over the one-way matching of
`match_literals` as it was before substitutions were keyed by variable
name; it is the reference for both.

`unify_terms`, `apply_sub`, `symbol_counts` and
`conjecture_relative_weight` are the unifier, substitution and symbol
walks as they were before the search core cached hashes and walked each
clause's symbols once: generator walks, a `walk` call per step, an
occurs check on every binding and a rebuilt term for every application.
They are the references for `unify`, `fol.symbol_counts` and the
`heuristics` weights; `resolve` is `rules.resolve` built on them.
`clause_variables` collects a clause's variable symbols, and
`is_tautology` tests a literal tuple pair by pair, the reference for the
tautology flag that `rules` computes while merging duplicate literals.
`build_vocabulary` counts tokens by lexing every example's texts, the
reference for `datagen.build_vocabulary`.

`lex` is the TPTP lexer as it was before `parser.lex` became one regular
expression scan: one Python step per character, a `Token` with its line
and column for every token. It is the reference for the tokens, the
token positions and the lexical errors of `parser`.

`printed_premise_ids` tokenizes a premise the way `premsel` did before
the scorer embedded premises straight from their clauses: every clause
printed with its variables renumbered, lexed back, the texts joined by
SEP. It is the reference for the premise ids of `ClauseScorer.embed`.

`switched_prove_rebuilt` is switched guidance with the hand-off it had
before the hybrid schedule kept its classical rankings: at the switch it
builds a fresh classical schedule and inserts, and so re-keys, every
live clause. It is the reference for `guidance.guided_prove`'s switched
mode.

`padded_embed_sequences`, `padded_conv_taps` and `padded_max_time` are the
sequence towers as they ran before batches were packed: every row padded
to the longest, a mask multiply after every layer, and a Python loop of
`np.argmax` calls for the pooling. They are the references for
`models.embed_sequences`, `tensor.conv_taps` and `tensor.segment_max`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from satguide.fol import (
    CONJ_CLASS,
    OTHER_CLASS,
    VAR_CLASS,
    VARIABLE,
    Clause,
    Literal,
    Problem,
    Symbol,
    Term,
    Var,
    clause_str,
    clause_tokens,
    normalized_str,
)
from satguide.neural import tensor as T
from satguide.parser import ParseError
from satguide import rules
from satguide.guidance import GuidanceConfig, build_schedule
from satguide.heuristics import parse_schedule
from satguide.saturation import LIMIT, SAT, UNSAT, ProveResult, Saturation, SearchConfig
from satguide.tokens import Vocabulary, text_tokens, tokenize_texts


def string_key(c: Clause) -> str:
    """A printable key equal for clauses that are syntactic variants.

    Literals are sorted under a variable-blind projection (every token
    that starts with an uppercase letter reads as a variable), then
    variables are renamed by first occurrence in that order.
    """
    blind = sorted(range(len(c.literals)), key=lambda i: _blind_str(c.literals[i]))
    reordered = replace(c, literals=tuple(c.literals[i] for i in blind))
    return clause_str(normalize_variables(reordered))


def _blind_str(lit: Literal) -> str:
    toks = clause_tokens(Clause(0, (lit,)))
    return " ".join("_" if t and t[0].isupper() else t for t in toks)


def canonical_key(c: Clause) -> tuple:
    """The duplicate key of `fol.canonical_key`: the literals' variable-blind
    projections in stable sorted order, then the variables numbered by
    first occurrence in that order."""
    blinds, occurrences = [], []
    for lit in c.literals:
        toks: list = [lit.positive, lit.pred.name]
        names: list[str] = []
        for a in lit.args:
            _blind_walk(a, toks, names)
        blinds.append(tuple(toks))
        occurrences.append(names)
    order = sorted(range(len(blinds)), key=blinds.__getitem__)
    numbers: dict[str, int] = {}
    return (tuple(tok for i in order for tok in blinds[i]),
            tuple(numbers.setdefault(name, len(numbers)) for i in order for name in occurrences[i]))


def _blind_walk(t: Term, toks: list, names: list[str]) -> None:
    if t.sym.kind == VARIABLE:
        toks.append("")
        names.append(t.sym.name)
        return
    toks.append(t.sym.name)
    for a in t.args:
        _blind_walk(a, toks, names)


def symbol_classes(c: Clause, conj) -> bytes:
    """The `SymbolRecord.classes` of `c` against `conj`: one class per
    symbol occurrence, in walk order."""
    out = bytearray()
    for lit in c.literals:
        out.append(CONJ_CLASS if lit.pred in conj else OTHER_CLASS)
        for a in lit.args:
            _classify(a, conj, out)
    return bytes(out)


def _classify(t: Term, conj, out: bytearray) -> None:
    if t.is_var:
        out.append(VAR_CLASS)
        return
    out.append(CONJ_CLASS if t.sym in conj else OTHER_CLASS)
    for a in t.args:
        _classify(a, conj, out)


def normalize_variables(c: Clause, prefix: str = "V") -> Clause:
    """`c` with its variables renamed to `prefix`1, `prefix`2, ... in order
    of first occurrence; `c` itself when nothing changes, and every literal
    and subterm that does not change is shared with `c`."""
    mapping: dict[str, Term] = {}
    lits = []
    for l in c.literals:
        args = tuple([_rename(a, mapping, prefix) for a in l.args])
        lits.append(l if all(a is b for a, b in zip(args, l.args))
                    else Literal(l.pred, args, l.positive))
    if all(a is b for a, b in zip(lits, c.literals)):
        return c
    return replace(c, literals=tuple(lits))


def _rename(t: Term, mapping: dict[str, Term], prefix: str) -> Term:
    if t.args:
        args = tuple([_rename(a, mapping, prefix) for a in t.args])
        return t if all(a is b for a, b in zip(args, t.args)) else Term(t.sym, args)
    if not t.is_var:
        return t
    v = mapping.get(t.sym.name)
    if v is None:
        v = mapping[t.sym.name] = Var(f"{prefix}{len(mapping) + 1}")
    return t if v.sym.name == t.sym.name else v


def match_terms(pattern: Term, target: Term, sub=None):
    """Extend a copy of `sub` so that pattern[sub] == target; target is fixed."""
    if sub is None:
        sub = {}
    stack = [(pattern, target)]
    sub = dict(sub)
    while stack:
        p, t = stack.pop()
        if p.is_var:
            bound = sub.get(p.sym)
            if bound is None:
                sub[p.sym] = t
            elif bound != t:
                return None
            continue
        if t.is_var or p.sym != t.sym:
            return None
        stack.extend(zip(p.args, t.args))
    return sub


def match_literals(pattern: Literal, target: Literal, sub=None):
    if pattern.pred != target.pred or pattern.positive != target.positive:
        return None
    if sub is None:
        sub = {}
    for p, t in zip(pattern.args, target.args):
        sub = match_terms(p, t, sub)
        if sub is None:
            return None
    return sub


def subsumes(general: Clause, specific: Clause) -> bool:
    """Multiset-injective subsumption: try every target literal for each
    pattern literal, in clause order, and backtrack."""
    patterns = general.literals
    targets = specific.literals
    if len(patterns) > len(targets):
        return False

    def assign(i: int, used: int, sub) -> bool:
        if i == len(patterns):
            return True
        for j, t in enumerate(targets):
            if used & (1 << j):
                continue
            ext = match_literals(patterns[i], t, sub)
            if ext is not None and assign(i + 1, used | (1 << j), ext):
                return True
        return False

    return assign(0, 0, {})


def walk(t: Term, sub) -> Term:
    while t.is_var and t.sym in sub:
        t = sub[t.sym]
    return t


def occurs(v: Symbol, t: Term, sub) -> bool:
    t = walk(t, sub)
    if t.is_var:
        return t.sym == v
    return any(occurs(v, a, sub) for a in t.args)


def unify_terms(t1: Term, t2: Term, sub=None):
    """Most general unifier extending `sub`, or None."""
    if sub is None:
        sub = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a, b = walk(a, sub), walk(b, sub)
        if a.is_var:
            if b.is_var and a.sym == b.sym:
                continue
            if occurs(a.sym, b, sub):
                return None
            sub[a.sym] = b
            continue
        if b.is_var:
            if occurs(b.sym, a, sub):
                return None
            sub[b.sym] = a
            continue
        if a.sym != b.sym:
            return None
        stack.extend(zip(a.args, b.args))
    return sub


def unify_atoms(l1: Literal, l2: Literal):
    """Unify two literals' atoms argument by argument, ignoring polarity."""
    if l1.pred != l2.pred:
        return None
    sub = {}
    for a, b in zip(l1.args, l2.args):
        sub = unify_terms(a, b, sub)
        if sub is None:
            return None
    return sub


def apply_sub(t: Term, sub) -> Term:
    t = walk(t, sub)
    if t.is_var:
        return t
    return Term(t.sym, tuple(apply_sub(a, sub) for a in t.args))


def apply_sub_literal(lit: Literal, sub) -> Literal:
    return Literal(lit.pred, tuple(apply_sub(a, sub) for a in lit.args), lit.positive)


def resolve(c1: Clause, c2: Clause) -> list[tuple[Literal, ...]]:
    """All binary resolvents of variable-disjoint c1 and c2, through the
    reference unifier and substitution, duplicate literals dropped."""
    lits1, lits2 = c1.literals, c2.literals
    out = []
    for i, li in enumerate(lits1):
        for j, lj in enumerate(lits2):
            if li.positive == lj.positive:
                continue
            sub = unify_atoms(li, lj)
            if sub is None:
                continue
            merged: list[Literal] = []
            for lit in lits1[:i] + lits1[i + 1:] + lits2[:j] + lits2[j + 1:]:
                lit = apply_sub_literal(lit, sub)
                if lit not in merged:
                    merged.append(lit)
            out.append(tuple(merged))
    return out


def is_tautology(lits: tuple[Literal, ...]) -> bool:
    """Do `lits` hold a literal and its negation? Every pair compared,
    nothing hashed."""
    return any(a.positive != b.positive and a.pred == b.pred and a.args == b.args
               for a in lits for b in lits)


def build_vocabulary(train_examples) -> Vocabulary:
    """`datagen.build_vocabulary` as it was before it lexed each distinct
    text once: every example's clause and conjecture texts lexed again."""
    counts: dict[str, int] = {}
    for e in train_examples:
        for text in [e.clause_text, *e.conj_texts]:
            for tok in text_tokens(text):
                counts[tok] = counts.get(tok, 0) + 1
    vocab = Vocabulary()
    for tok in sorted(counts, key=lambda t: (-counts[t], t)):
        vocab.add(tok)
    return vocab


def printed_premise_ids(clauses: list[Clause], vocab: Vocabulary, max_len: int) -> list[int]:
    """Token ids of a premise's clauses, printed, lexed back and joined by SEP."""
    return tokenize_texts([normalized_str(c) for c in clauses], vocab, max_len)


def _term_symbols(t: Term):
    yield t.sym
    for a in t.args:
        yield from _term_symbols(a)


def clause_symbols(c: Clause):
    for lit in c.literals:
        yield lit.pred
        for a in lit.args:
            yield from _term_symbols(a)


def symbol_counts(c: Clause) -> tuple[int, int]:
    """(function/predicate occurrences, variable occurrences)."""
    fp = v = 0
    for s in clause_symbols(c):
        if s.kind == VARIABLE:
            v += 1
        else:
            fp += 1
    return fp, v


def conjecture_relative_weight(c: Clause, conj_symbols, base_fw=2.0, base_vw=1.0,
                               conj_multiplier=0.5) -> float:
    """Symbol-count weight with conjecture symbols discounted, added up in
    walk order."""
    total = 0.0
    for s in clause_symbols(c):
        if s.kind == VARIABLE:
            total += base_vw
        elif s in conj_symbols:
            total += base_fw * conj_multiplier
        else:
            total += base_fw
    return total


def clause_variables(c: Clause) -> set[Symbol]:
    """The variable symbols occurring in `c`."""
    return {s for s in clause_symbols(c) if s.kind == VARIABLE}


@dataclass(frozen=True)
class Token:
    kind: str  # name | var | defined | punct | end
    text: str
    line: int
    col: int


_PUNCT2 = ("<=>", "<~>", "=>", "!=")
_PUNCT1 = "()[],.:|&~!?="


def lex(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated comment", line, col)
            skipped = text[i : end + 2]
            line += skipped.count("\n")
            col = 1 if "\n" in skipped else col + len(skipped)
            i = end + 2
            continue
        start_line, start_col = line, col
        matched2 = next((p for p in _PUNCT2 if text.startswith(p, i)), None)
        if matched2:
            toks.append(Token("punct", matched2, start_line, start_col))
            i += len(matched2)
            col += len(matched2)
            continue
        if ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("defined", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted name", line, col)
            toks.append(Token("name", text[i + 1 : j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha() or ch == "_" or ch.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if word[0].isupper() else "name"
            toks.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT1:
            toks.append(Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("end", "", line, col))
    return toks


def bfs_saturate(problem: Problem, max_level: int = 30,
                 max_clauses: int = 100_000) -> str:
    clauses: list[Clause] = []
    known: set[str] = set()

    def add_clause(c: Clause) -> bool:
        key = string_key(c)
        if key in known:
            return False
        known.add(key)
        clauses.append(c)
        return True

    for c in problem.clauses():
        add_clause(Clause(len(clauses), c.literals, role=c.role, origin=c.origin))
    if any(c.is_empty for c in clauses):
        return UNSAT

    nid = len(clauses)
    frontier = list(clauses)
    for _ in range(max_level):
        fresh: list[Clause] = []

        def emit(lits) -> bool:
            nonlocal nid
            c = Clause(nid, tuple(lits), role="derived", parents=(0,), rule="res")
            nid += 1
            if add_clause(c):
                fresh.append(c)
                return c.is_empty
            return False

        snapshot = list(clauses)
        for b in frontier:
            for a in snapshot:
                for lits, _ in rules.resolve(*rules.standardized_apart(a, b)):
                    if emit(lits):
                        return UNSAT
            for lits, _ in rules.factor(b):
                if emit(lits):
                    return UNSAT
        if not fresh:
            return SAT
        if len(clauses) > max_clauses:
            raise RuntimeError("oracle blew its clause budget")
        frontier = fresh
    raise RuntimeError("oracle did not converge within the level budget")


def switched_prove_rebuilt(problem: Problem, gconfig: GuidanceConfig,
                           limits: SearchConfig) -> ProveResult:
    """Switched guidance under a processed limit and no wall limit, with
    the rebuilding hand-off: phase 1 runs the hybrid schedule for
    `phase1_budget` processed clauses (by default 2/3 of the total); then
    a fresh `parse_schedule(limits.schedule)` receives every live clause
    in id order and the same state runs on under `limits`."""
    assert limits.max_wall_ms is None and gconfig.phase1_ms is None
    total, phase1 = limits.max_processed, gconfig.phase1_budget
    if phase1 is None and total is not None:
        phase1 = (2 * total) // 3
    hybrid = build_schedule(gconfig, problem, limits.schedule)
    scorer = hybrid.entries[0].fn
    state = Saturation(problem, replace(limits, max_processed=phase1), hybrid)
    outcome = state.run()
    info = {"phase1_processed": len(state.processed),
            "evals_at_switch": scorer.clause_evals, "finished_in_phase": 1}
    if outcome == LIMIT:
        state.schedule = parse_schedule(limits.schedule)
        for cid in sorted(hybrid.alive):
            state.schedule.insert(hybrid.alive[cid])
        state.config = limits
        info["finished_in_phase"] = 2
        outcome = state.run()
    result = state.result(outcome)
    result.info.update(info, network_evals=scorer.clause_evals,
                       batch_calls=scorer.batch_calls, guidance=gconfig.describe())
    return result


def shift_time(a: T.Tensor, offset: int) -> T.Tensor:
    """out[..., i, :] = a[..., i-offset, :], zero outside the range."""
    out_data = np.zeros_like(a.data)
    t = a.data.shape[-2]
    if offset >= 0:
        if offset < t:
            out_data[..., offset:, :] = a.data[..., : t - offset, :]
    else:
        if -offset < t:
            out_data[..., : t + offset, :] = a.data[..., -offset:, :]

    def backward(g):
        ga = np.zeros_like(a.data)
        if offset >= 0:
            if offset < t:
                ga[..., : t - offset, :] = g[..., offset:, :]
        else:
            if -offset < t:
                ga[..., -offset:, :] = g[..., : t + offset, :]
        a._accumulate(ga)

    return T.Tensor(out_data, a.requires_grad, (a,), backward)


def kernel_slice(w: T.Tensor, j: int) -> T.Tensor:
    """Tap j of a [s, C_in, C_out] convolution kernel."""

    def backward(g):
        full = np.zeros_like(w.data)
        full[j] = g
        w._accumulate(full)

    return T.Tensor(w.data[j], w.requires_grad, (w,), backward)


def shift_segments(a: T.Tensor, lengths, offset: int) -> T.Tensor:
    """`shift_time` inside each sequence of a packed batch: a is [N, C], the
    rows of sequences of the given lengths laid end to end, and out[i] =
    a[i - offset] when that row is in i's own sequence, zero otherwise."""
    src, dst = [], []
    start = 0
    for n in lengths:
        for pos in range(n):
            if 0 <= pos - offset < n:
                dst.append(start + pos)
                src.append(start + pos - offset)
        start += n
    out_data = np.zeros_like(a.data)
    out_data[dst] = a.data[src]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[src] = g[dst]
        a._accumulate(ga)

    return T.Tensor(out_data, a.requires_grad, (a,), backward)


def conv1d_per_tap(x: T.Tensor, w: T.Tensor, dilation: int = 1, lengths=None) -> T.Tensor:
    """sum_j shift(x, dilation*(j - ceil(s/2))) @ w_j, added in tap order.

    x is [T, C] or [B, T, C]; or, given `lengths`, the packed rows [N, C] of
    sequences of those lengths, each shifted inside its own sequence
    (`shift_segments`). A packed batch of sequences no longer than one
    token is its own padded layout, [N, 1, C], and is multiplied as such.
    """
    if lengths is not None and max(lengths) == 1:
        n, c = x.data.shape
        out = conv1d_per_tap(T.reshape(x, (n, 1, c)), w, dilation)
        return T.reshape(out, (n, w.data.shape[2]))
    s = w.data.shape[0]
    center = (s + 1) // 2
    out = None
    for j in range(1, s + 1):
        offset = dilation * (j - center)
        shifted = shift_time(x, offset) if lengths is None else shift_segments(x, lengths, offset)
        term = T.matmul(shifted, kernel_slice(w, j - 1))
        out = term if out is None else T.add(out, term)
    return out


def padded_conv_taps(x: T.Tensor, w: T.Tensor, dilation: int = 1) -> T.Tensor:
    """`tensor.conv_taps` as it was over padded batches: x is [T, C] or
    [B, T, C], rows past the end of x read as zero, and the shifted copies
    of x are stacked on a tap axis and multiplied by the taps in one
    matmul, whose products are added in tap order."""
    s, c_in, c_out = w.data.shape
    t = x.data.shape[-2]
    center = (s + 1) // 2
    rows = []
    for j in range(1, s + 1):
        offset = dilation * (j - center)  # out[i] reads in[i - offset]
        if offset >= 0:
            rows.append((slice(offset, t), slice(0, max(t - offset, 0))))
        else:
            rows.append((slice(0, max(t + offset, 0)), slice(-offset, t)))
    shifted = np.zeros((s,) + x.data.shape)
    for j, (dst, src) in enumerate(rows):
        shifted[j][..., dst, :] = x.data[..., src, :]
    terms = np.matmul(shifted, w.data.reshape((s,) + (1,) * (x.data.ndim - 2) + (c_in, c_out)))
    out_data = terms[0].copy()
    for term in terms[1:]:
        out_data += term

    def backward(g):
        if x.requires_grad:
            gt = np.zeros(g.shape[:-1] + (s, c_out))
            for j, (dst, src) in enumerate(rows):
                gt[..., src, j, :] = g[..., dst, :]
            w_flat = w.data.transpose(1, 0, 2).reshape(c_in, s * c_out)
            x._accumulate(gt.reshape(g.shape[:-1] + (s * c_out,)) @ w_flat.T)
        if w.requires_grad:
            w._accumulate(np.matmul(shifted.reshape(s, -1, c_in).transpose(0, 2, 1),
                                    g.reshape(-1, c_out)))

    return T.Tensor(out_data, x.requires_grad or w.requires_grad, (x, w), backward)


def padded_max_time(a: T.Tensor, lengths) -> T.Tensor:
    """`tensor.max_time` as it was: [B, T, C] -> [B, C], row b pooling
    a[b, :lengths[b]] with one `np.argmax` per row; zero-length rows pool
    to zero."""
    b, _, c = a.data.shape
    lens = np.asarray(lengths, dtype=int)
    out_data = np.zeros((b, c))
    arg = np.zeros((b, c), dtype=int)
    for i in range(b):
        if lens[i] > 0:
            seg = a.data[i, : lens[i]]
            arg[i] = np.argmax(seg, axis=0)
            out_data[i] = seg[arg[i], np.arange(c)]

    def backward(g):
        full = np.zeros_like(a.data)
        for i in range(b):
            if lens[i] > 0:
                full[i, arg[i], np.arange(c)] = g[i]
        a._accumulate(full)

    return T.Tensor(out_data, a.requires_grad, (a,), backward)


def padded_embed_sequences(batch_ids, model, tower: str, train_mode: bool = False,
                           rng=None) -> T.Tensor:
    """`models.embed_sequences` as it was: the batch padded to its longest
    row as [B, T, dim], a mask multiply after every layer to re-zero the
    padding, and `padded_max_time` pooling."""
    cfg, p = model.config, model.params
    stripped = [[i for i in ids if i != 0] for ids in batch_ids]
    lengths = [len(ids) for ids in stripped]
    t_max = max(lengths) if lengths else 0
    if t_max == 0:
        return T.constant(np.zeros((len(batch_ids), cfg.dim)))
    mat = np.zeros((len(stripped), t_max), dtype=np.intp)
    raw_mask = np.zeros((len(stripped), t_max, 1))
    for i, ids in enumerate(stripped):
        mat[i, : len(ids)] = ids
        raw_mask[i, : len(ids)] = 1.0
    mask = T.constant(raw_mask)

    def conv(x, name, dilation):
        return T.add(padded_conv_taps(x, p[name + ".w"], dilation), p[name + ".b"])

    def dropout(shape, rate):
        return T.constant((rng.random(shape) >= rate).astype(np.float64))

    x = T.mul(T.embedding(p["embedding"], mat), mask)
    if train_mode and cfg.token_dropout > 0.0:
        x = T.mul(x, dropout((len(stripped), t_max, 1), cfg.token_dropout))
    if cfg.arch == "cnn":
        for i in range(cfg.cnn_layers):
            x = T.relu(T.mul(conv(x, f"{tower}.conv{i}", 1), mask))
    else:
        for b in range(cfg.wavenet_blocks):
            y0 = x
            if train_mode and cfg.feature_dropout > 0.0:
                y0 = T.mul(x, dropout(x.data.shape, cfg.feature_dropout))
            y = y0
            for l in range(cfg.wavenet_layers):
                filt = conv(y, f"{tower}.b{b}.l{l}.filter", 2**l)
                gate = conv(y, f"{tower}.b{b}.l{l}.gate", 2**l)
                y = T.add(y, T.mul(T.mul(T.tanh(filt), T.sigmoid(gate)), mask))
            x = T.add(x, T.sub(y, y0))
    return padded_max_time(x, lengths)
