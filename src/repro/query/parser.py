"""A one-pass parser for the CPQ concrete syntax.

Grammar (conjunction binds looser than join, both left-associative)::

    expr   := term  (('∩' | '&') term)*
    term   := factor (('∘' | '.') factor)*
    factor := 'id' | label | '(' expr ')'
    label  := NAME ('^-' | '⁻¹' | '⁻')?

Examples::

    parse("(f . f) & f^-")        # the paper's triad query (f∘f) ∩ f⁻¹
    parse("((a . b . c) & (d . e)) & id")   # Fig. 2 / Fig. 4 query

The text is read left to right with one regex match per token and no
lookahead re-match: an explicit stack of open parentheses replaces the
recursive descent, and each label name is resolved against ``registry``
(when one is given) as it is read.  Without a registry, atoms carry label
*names* (:func:`repro.query.ast.resolve` converts them later).  An
unknown name is reported only once the whole text has parsed, so a
syntax error anywhere in the text wins over it.
"""

from __future__ import annotations

import re

from repro.errors import QuerySyntaxError, UnknownLabelError
from repro.graph.labels import LabelRegistry
from repro.query.ast import CPQ, ID, Conjunction, EdgeLabel, Join

_TOKEN = re.compile(
    r"\s*(?:"
    r"(\()|"  # 1: lparen
    r"(\))|"  # 2: rparen
    r"([∘.])|"  # 3: join
    r"([∩&])|"  # 4: conj
    r"([A-Za-z_][A-Za-z0-9_]*)(\^-|⁻¹|⁻)?"  # 5: name, 6: inverse suffix
    r")"
)
_LPAREN, _RPAREN, _JOIN, _CONJ = 1, 2, 3, 4
_KIND_NAMES = {1: "lparen", 2: "rparen", 3: "join", 4: "conj", 5: "name", 6: "name"}


def parse(text: str, registry: LabelRegistry | None = None) -> CPQ:
    """Parse CPQ text; resolves label names if a registry is given."""
    match = _TOKEN.match
    pos = 0
    # Per level: the conjunction and the join chain read so far; the
    # enclosing levels wait on ``stack`` while a parenthesis is open.
    stack: list[tuple[CPQ | None, CPQ | None]] = []
    conj: CPQ | None = None
    term: CPQ | None = None
    unknown: str | None = None
    while True:
        # An operand: a label, 'id' or an opening parenthesis.
        token = match(text, pos)
        if token is None:
            raise _stray(text, pos) or QuerySyntaxError("unexpected end of query", pos)
        kind = token.lastindex
        pos = token.end()
        if kind == _LPAREN:
            stack.append((conj, term))
            conj = term = None
            continue
        if kind is None or kind < 5:
            raise QuerySyntaxError(f"unexpected token {token.group(kind or 0)!r}", pos)
        name = token.group(5)
        inverted = kind == 6
        atom: CPQ
        if name == "id":
            if inverted:
                raise QuerySyntaxError("id has no inverse", pos)
            atom = ID
        elif registry is None:
            atom = EdgeLabel(name, inverted)
        else:
            try:
                atom = EdgeLabel(registry.id_of(name), inverted)
            except UnknownLabelError:
                if unknown is None:
                    unknown = name
                atom = EdgeLabel(name, inverted)
        term = atom if term is None else Join(term, atom)
        # Operators and closing parentheses until the next operand.
        while True:
            token = match(text, pos)
            if token is None:
                error = _stray(text, pos)
                if error is None and stack:
                    error = QuerySyntaxError("expected rparen, got None", pos)
                if error is not None:
                    raise error
                query = term if conj is None else Conjunction(conj, term)
                if unknown is not None:
                    raise UnknownLabelError(unknown)
                return query
            kind = token.lastindex
            pos = token.end()
            if kind == _JOIN:
                break
            if kind == _CONJ:
                conj = term if conj is None else Conjunction(conj, term)
                term = None
                break
            if kind == _RPAREN and stack:
                inner = term if conj is None else Conjunction(conj, term)
                conj, term = stack.pop()
                term = inner if term is None else Join(term, inner)
                continue
            value = token.group(0).lstrip()
            if stack:
                got = (_KIND_NAMES[kind or 0], value)
                raise QuerySyntaxError(f"expected rparen, got {got!r}", pos)
            raise QuerySyntaxError(f"unexpected trailing token {value!r}", pos)


def _stray(text: str, pos: int) -> QuerySyntaxError | None:
    """Where no token matches at ``pos``: the error for a stray character,
    or ``None`` if only whitespace is left."""
    if text[pos:].strip():
        return QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
    return None
