"""Unit tests for the CPQ text parser."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuerySyntaxError
from repro.graph.labels import LabelRegistry
from repro.query.ast import CPQ, Conjunction, EdgeLabel, ID, Join, label
from repro.query.parser import parse


class TestAtoms:
    def test_plain_label(self):
        assert parse("f") == label("f")

    def test_identity(self):
        assert parse("id") is ID

    def test_inverse_ascii(self):
        assert parse("f^-") == label("f").inverse()

    def test_inverse_unicode(self):
        assert parse("f⁻¹") == label("f").inverse()
        assert parse("f⁻") == label("f").inverse()

    def test_identity_has_no_inverse(self):
        with pytest.raises(QuerySyntaxError):
            parse("id^-")


class TestOperators:
    def test_join_ascii_dot(self):
        q = parse("a . b")
        assert q == label("a") >> label("b")

    def test_join_unicode(self):
        assert parse("a ∘ b") == label("a") >> label("b")

    def test_conjunction_ascii(self):
        assert parse("a & b") == label("a") & label("b")

    def test_conjunction_unicode(self):
        assert parse("a ∩ b") == label("a") & label("b")

    def test_join_binds_tighter_than_conjunction(self):
        q = parse("a . b & c")
        assert isinstance(q, Conjunction)
        assert isinstance(q.left, Join)

    def test_left_associativity(self):
        q = parse("a . b . c")
        assert q == (label("a") >> label("b")) >> label("c")
        q = parse("a & b & c")
        assert q == (label("a") & label("b")) & label("c")

    def test_parentheses_override(self):
        q = parse("a . (b & c)")
        assert isinstance(q, Join)
        assert isinstance(q.right, Conjunction)


class TestPaperQueries:
    def test_triad(self):
        q = parse("(f . f) & f^-")
        assert q == (label("f") >> label("f")) & label("f").inverse()

    def test_figure2_query(self):
        """[(l1∘l2∘l3) ∩ (l4∘l5)] ∩ id from Fig. 2."""
        q = parse("((l1 . l2 . l3) & (l4 . l5)) & id")
        assert isinstance(q, Conjunction)
        assert q.right is ID
        inner = q.left
        assert isinstance(inner, Conjunction)
        assert inner.left.diameter() == 3
        assert inner.right.diameter() == 2


class TestResolution:
    def test_parse_with_registry_resolves(self):
        registry = LabelRegistry(["f"])
        q = parse("f . f^-", registry)
        assert q == EdgeLabel(1) >> EdgeLabel(-1)

    def test_parse_with_registry_unknown_label(self):
        from repro.errors import UnknownLabelError

        with pytest.raises(UnknownLabelError):
            parse("nope", LabelRegistry(["f"]))


class TestErrors:
    @pytest.mark.parametrize("text", [
        "", "(", ")", "a .", ". a", "a &", "(a", "a)", "a b", "a . . b", "&",
    ])
    def test_malformed(self, text):
        with pytest.raises(QuerySyntaxError):
            parse(text)

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError):
            parse("a @ b")

    def test_error_carries_position(self):
        try:
            parse("a . !")
        except QuerySyntaxError as exc:
            assert exc.position is not None
        else:  # pragma: no cover
            pytest.fail("expected QuerySyntaxError")


def _outcome(text: str, registry: LabelRegistry | None) -> tuple:
    try:
        query = parse(text, registry)
    except Exception as exc:  # noqa: BLE001 - the table pins the type too
        return (type(exc).__name__, str(exc), getattr(exc, "position", None))
    return ("ok", repr(query))


#: (text, outcome against the registry a=1 b=2 c=3 f=4, outcome without a
#: registry).  An outcome is ("ok", repr of the parsed tree) or the
#: exception's (type name, message, position).  The messages, and which
#: error wins when a text has several (a syntax error beats an unknown
#: label; an earlier token's error beats a later bad character), are the
#: parser's public behaviour: the daemon returns them verbatim.
GOLDEN = [
    ('f', ('ok', '4'), ('ok', 'f')),
    ('id', ('ok', 'id'), ('ok', 'id')),
    ('f^-', ('ok', '4^-'), ('ok', 'f^-')),
    ('f⁻¹', ('ok', '4^-'), ('ok', 'f^-')),
    ('f⁻', ('ok', '4^-'), ('ok', 'f^-')),
    ('a . b', ('ok', '(1 . 2)'), ('ok', '(a . b)')),
    ('a ∘ b', ('ok', '(1 . 2)'), ('ok', '(a . b)')),
    ('a & b', ('ok', '(1 & 2)'), ('ok', '(a & b)')),
    ('a ∩ b', ('ok', '(1 & 2)'), ('ok', '(a & b)')),
    ('a . b & c', ('ok', '((1 . 2) & 3)'), ('ok', '((a . b) & c)')),
    ('a . (b & c)', ('ok', '(1 . (2 & 3))'), ('ok', '(a . (b & c))')),
    ('(f . f) & f^-', ('ok', '((4 . 4) & 4^-)'), ('ok', '((f . f) & f^-)')),
    ('((a . b . c) & (a . b)) & id', ('ok', '((((1 . 2) . 3) & (1 . 2)) & id)'), ('ok', '((((a . b) . c) & (a . b)) & id)')),
    ('a∘b∩c⁻¹', ('ok', '((1 . 2) & 3^-)'), ('ok', '((a . b) & c^-)')),
    ('  a .b  ', ('ok', '(1 . 2)'), ('ok', '(a . b)')),
    ('((a))', ('ok', '1'), ('ok', 'a')),
    ('a . id . b', ('ok', '((1 . id) . 2)'), ('ok', '((a . id) . b)')),
    ('id & id', ('ok', '(id & id)'), ('ok', '(id & id)')),
    ('\ta\n.\nb', ('ok', '(1 . 2)'), ('ok', '(a . b)')),
    ('', ('QuerySyntaxError', 'unexpected end of query at position 0', 0), ('QuerySyntaxError', 'unexpected end of query at position 0', 0)),
    ('   ', ('QuerySyntaxError', 'unexpected end of query at position 0', 0), ('QuerySyntaxError', 'unexpected end of query at position 0', 0)),
    ('@a', ('QuerySyntaxError', "unexpected character '@' at position 0", 0), ('QuerySyntaxError', "unexpected character '@' at position 0", 0)),
    ('a @ b', ('QuerySyntaxError', "unexpected character ' ' at position 1", 1), ('QuerySyntaxError', "unexpected character ' ' at position 1", 1)),
    ('a . b @', ('QuerySyntaxError', "unexpected character ' ' at position 5", 5), ('QuerySyntaxError', "unexpected character ' ' at position 5", 5)),
    ('a.@', ('QuerySyntaxError', "unexpected character '@' at position 2", 2), ('QuerySyntaxError', "unexpected character '@' at position 2", 2)),
    ('é', ('QuerySyntaxError', "unexpected character 'é' at position 0", 0), ('QuerySyntaxError', "unexpected character 'é' at position 0", 0)),
    ('(', ('QuerySyntaxError', 'unexpected end of query at position 1', 1), ('QuerySyntaxError', 'unexpected end of query at position 1', 1)),
    (')', ('QuerySyntaxError', "unexpected token ')' at position 1", 1), ('QuerySyntaxError', "unexpected token ')' at position 1", 1)),
    ('(a', ('QuerySyntaxError', 'expected rparen, got None at position 2', 2), ('QuerySyntaxError', 'expected rparen, got None at position 2', 2)),
    ('a)', ('QuerySyntaxError', "unexpected trailing token ')' at position 2", 2), ('QuerySyntaxError', "unexpected trailing token ')' at position 2", 2)),
    ('((a)', ('QuerySyntaxError', 'expected rparen, got None at position 4', 4), ('QuerySyntaxError', 'expected rparen, got None at position 4', 4)),
    ('(a))', ('QuerySyntaxError', "unexpected trailing token ')' at position 4", 4), ('QuerySyntaxError', "unexpected trailing token ')' at position 4", 4)),
    ('()', ('QuerySyntaxError', "unexpected token ')' at position 2", 2), ('QuerySyntaxError', "unexpected token ')' at position 2", 2)),
    ('a .', ('QuerySyntaxError', 'unexpected end of query at position 3', 3), ('QuerySyntaxError', 'unexpected end of query at position 3', 3)),
    ('a &', ('QuerySyntaxError', 'unexpected end of query at position 3', 3), ('QuerySyntaxError', 'unexpected end of query at position 3', 3)),
    ('. a', ('QuerySyntaxError', "unexpected token '.' at position 1", 1), ('QuerySyntaxError', "unexpected token '.' at position 1", 1)),
    ('&', ('QuerySyntaxError', "unexpected token '&' at position 1", 1), ('QuerySyntaxError', "unexpected token '&' at position 1", 1)),
    ('a . . b', ('QuerySyntaxError', "unexpected token '.' at position 5", 5), ('QuerySyntaxError', "unexpected token '.' at position 5", 5)),
    ('a ∩∩ b', ('QuerySyntaxError', "unexpected token '∩' at position 4", 4), ('QuerySyntaxError', "unexpected token '∩' at position 4", 4)),
    ('a b', ('QuerySyntaxError', "unexpected trailing token 'b' at position 3", 3), ('QuerySyntaxError', "unexpected trailing token 'b' at position 3", 3)),
    ('(a) (b)', ('QuerySyntaxError', "unexpected trailing token '(' at position 5", 5), ('QuerySyntaxError', "unexpected trailing token '(' at position 5", 5)),
    ('a . b c', ('QuerySyntaxError', "unexpected trailing token 'c' at position 7", 7), ('QuerySyntaxError', "unexpected trailing token 'c' at position 7", 7)),
    ('a^- ^-', ('QuerySyntaxError', "unexpected character ' ' at position 3", 3), ('QuerySyntaxError', "unexpected character ' ' at position 3", 3)),
    ('id^-', ('QuerySyntaxError', 'id has no inverse at position 4', 4), ('QuerySyntaxError', 'id has no inverse at position 4', 4)),
    ('a . id⁻¹', ('QuerySyntaxError', 'id has no inverse at position 8', 8), ('QuerySyntaxError', 'id has no inverse at position 8', 8)),
    ('nope', ('UnknownLabelError', "unknown label: 'nope'", None), ('ok', 'nope')),
    ('nope .', ('QuerySyntaxError', 'unexpected end of query at position 6', 6), ('QuerySyntaxError', 'unexpected end of query at position 6', 6)),
    ('a & nope & zzz', ('UnknownLabelError', "unknown label: 'nope'", None), ('ok', '((a & nope) & zzz)')),
    ('nope^-', ('UnknownLabelError', "unknown label: 'nope'", None), ('ok', 'nope^-')),
    ('nope )', ('QuerySyntaxError', "unexpected trailing token ')' at position 6", 6), ('QuerySyntaxError', "unexpected trailing token ')' at position 6", 6)),
    ('idx', ('UnknownLabelError', "unknown label: 'idx'", None), ('ok', 'idx')),
    ('(nope', ('QuerySyntaxError', 'expected rparen, got None at position 5', 5), ('QuerySyntaxError', 'expected rparen, got None at position 5', 5)),
]


class TestGolden:
    @pytest.mark.parametrize(("text", "resolved", "named"), GOLDEN)
    def test_outcome(self, text, resolved, named):
        assert _outcome(text, LabelRegistry(["a", "b", "c", "f"])) == resolved
        assert _outcome(text, None) == named

    def test_identity_is_the_shared_instance(self):
        assert parse("((id))", LabelRegistry(["a"])) is ID


def _resolved_trees(labels: int) -> st.SearchStrategy[CPQ]:
    atoms = st.one_of(
        st.just(ID),
        st.builds(EdgeLabel, st.integers(1, labels), st.booleans()),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Join, inner, inner), st.builds(Conjunction, inner, inner)
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(_resolved_trees(4))
def test_text_round_trip(query):
    registry = LabelRegistry(["a", "b", "c", "f"])
    assert parse(query.to_text(registry), registry) == query
