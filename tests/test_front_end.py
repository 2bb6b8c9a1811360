"""The front end: the token parser against the character parser it replaced,
the character classes the tokenizer relies on, and the checks and masks a
context and a conditional event compute when they are built."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cohere import (
    Assessment,
    Atom,
    ConditionalEvent,
    Context,
    EventSyntaxError,
    ImpossibleAntecedentError,
    KnowledgeBase,
    SizeLimitError,
    UnknownAtomError,
    check_coherence,
    events,
    p_entails,
    parse_conditional,
    parse_event,
)
from cohere.events import _NAME_RE, MAX_DEPTH

from helpers import reference_parse_conditional, reference_parse_event

DECLARED = ("A", "B", "C", "X1", "_a", "a_1")
NAMES = DECLARED + ("T", "F", "Z", "AB", "TF", "T1")
OPERATORS = ("~", "&", "|", "(", ")")
# Digit-led names, non-ASCII letters and digits, and other stray characters.
STRAYS = ("1", "9A", "0x", "$", "-", "!", "\u00e9", "A\u00e9", "\u03a9", "\u00df", "\u01c5",
          "\u0130", "\u0663", "\u0300")
# ASCII and Unicode white space, every one ``str.isspace``.
SPACES = (" ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2003",
          "\u2028", "\u3000")


def _outcome(parse, *args):
    """A parse's tree, or its exception's type, message and position."""
    try:
        return ("tree", parse(*args))
    except Exception as exc:  # every exception type is compared
        return (type(exc), str(exc), getattr(exc, "position", None))


def _space(rng):
    return rng.choice(SPACES) if rng.random() < 0.2 else (" " if rng.random() < 0.5 else "")


def _formula(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(NAMES if rng.random() < 0.2 else DECLARED)
    if roll < 0.45:
        return "~" + _space(rng) + _formula(rng, depth - 1)
    if roll < 0.6:
        return "(" + _space(rng) + _formula(rng, depth - 1) + _space(rng) + ")"
    op = rng.choice("&|")
    return _formula(rng, depth - 1) + _space(rng) + op + _space(rng) + _formula(rng, depth - 1)


def _mutate(rng, text):
    if not text:
        return rng.choice(OPERATORS + STRAYS)
    i = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.3:
        return text[:i] + text[i + 1:]
    if roll < 0.7:
        return text[:i] + rng.choice(OPERATORS + STRAYS + NAMES + SPACES) + text[i:]
    j = rng.randrange(len(text) + 1)
    i, j = min(i, j), max(i, j)
    return text[:i] + text[j:] + text[i:j]


def _soup(rng):
    pieces = OPERATORS * 3 + NAMES + STRAYS + SPACES
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))


def _deep_cases():
    """Texts at 150 and 151 levels of parentheses, negations and operator
    chains, each valid and then broken before or after the deepest level,
    with an unknown atom in front or at the end."""
    cases = []
    for levels in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1):
        k = levels - 1
        shapes = [
            "(" * k + "A" + ")" * k,
            "~" * k + "A",
            "~(" * (k // 2) + "A" + ")" * (k // 2),
            " & ".join(["A"] * levels),
            " | ".join(["A"] * levels),
            "~A & " * k + "B",
            "A & (" * k + "B" + ")" * k,
            "(" * k + "A" + " & B)" * k,
        ]
        for shape in shapes:
            cases += [
                shape,
                shape + " $",
                shape + ")",
                "(" + shape,
                shape[:-1],
                "Z & " + shape,
                shape + " | Z",
                shape.replace("A", "\u00e9", 1),
                # the parentheses and negations run out before a syntax error
                shape.replace("A", "A $", 1),
            ]
    # A size limit fires before any later syntax error.
    cases += [
        "(" * (MAX_DEPTH + 1) + "$",
        "~" * MAX_DEPTH + "$",
        "(" * MAX_DEPTH,
        "~" * MAX_DEPTH,
        "(" * (MAX_DEPTH - 1) + "$",
        "~" * (MAX_DEPTH - 1),
    ]
    return cases


HANDPICKED = [
    "", " ", "\u3000", "A", "T", "F", "~T", "T & F", "TF", "T1", "F_", "_T",
    "A B", "A\u00a0&\u3000B", "\u2028A\x85", "A\x1c|\x1cB", "\u00e9", "A\u00e9", "\u00e9A", "A & \u00e9",
    "1A", "A & 2B", "A1 & 9", "_1", "(A", "A)", "()", "(", ")", "~", "&", "|",
    "A &", "& A", "A | | B", "A ~ B", "(A) (B)", "~~~A", "((A))",
    # an unknown atom before a syntax error, and one after it
    "Z & $", "Z &", "A & Z $", "$ & Z", "A & & Z", "(A | Z", "Z)",
    # conditionals: the first top-level bar that splits into two events
    "A | B", "A | B | C", "(A | B) | C", "A | (B | C)", "A | | B", "A & | B | C",
    "| A | B", "A | B |", "A | B) | (C", "A) | (B", "Z | A | B", "A | Z | B",
    "A | B & ~A", "~A | A", "A & ~A | B", "A | B & ~B", "( | A", "A | ( | B)",
]


def parser_corpus(seed=20231, count=20_000):
    rng = random.Random(seed)
    corpus = dict.fromkeys(HANDPICKED + _deep_cases())
    while len(corpus) < count + len(HANDPICKED):
        roll = rng.random()
        if roll < 0.4:
            text = _formula(rng, rng.randint(0, 4))
        elif roll < 0.8:
            text = _formula(rng, rng.randint(0, 4))
            for _ in range(rng.randint(1, 3)):
                text = _mutate(rng, text)
        else:
            text = _soup(rng)
        corpus[text] = None
    return list(corpus)


CORPUS = parser_corpus()


def test_corpus_covers_every_outcome():
    kinds = Counter()
    for text in CORPUS:
        for atoms in (None, DECLARED):
            outcome = _outcome(reference_parse_event, text, atoms)
            if outcome[0] == "tree":
                kinds["tree"] += 1
            else:
                kinds[(outcome[0].__name__, re.sub(r" *(\(|').*", "", outcome[1]))] += 1
    assert len(CORPUS) >= 20_000
    expected = {
        "tree",
        ("EventSyntaxError", "expected an event, found"),
        ("EventSyntaxError", "unexpected end of input"),
        ("EventSyntaxError", "unexpected trailing input"),
        ("EventSyntaxError", "unbalanced parenthesis"),
        ("UnknownAtomError", "unknown atom"),
        ("SizeLimitError", "event nests more than 150 levels"),
        ("SizeLimitError", "event tree has more than 150 levels"),
    }
    assert set(kinds) == expected
    assert min(kinds.values()) >= 15, kinds


def test_token_parser_matches_character_parser():
    mismatched = []
    for text in CORPUS:
        for atoms in (None, DECLARED):
            new = _outcome(parse_event, text, atoms)
            old = _outcome(reference_parse_event, text, atoms)
            if new != old:
                mismatched.append((text, atoms, new, old))
    assert not mismatched, mismatched[:5]


def test_parse_conditional_matches_character_scan():
    # On every corpus text with a bar, the retry over later top-level bars
    # and what each split raises agree.
    ctx = Context(DECLARED)
    texts = [text for text in CORPUS if "|" in text]
    assert len(texts) > 5_000
    outcomes = Counter()
    mismatched = []
    for text in texts:
        new = _outcome(parse_conditional, text, ctx)
        old = _outcome(reference_parse_conditional, text, ctx)
        outcomes[new[0] if new[0] == "tree" else new[0].__name__] += 1
        if new != old:
            mismatched.append((text, new, old))
    assert not mismatched, mismatched[:5]
    assert set(outcomes) == {
        "tree", "EventSyntaxError", "UnknownAtomError", "ImpossibleAntecedentError",
        "SizeLimitError",
    }, outcomes


def test_conditional_retries_later_bars():
    ctx = Context(DECLARED)
    # The first bar inside parentheses is skipped, the first top-level bar
    # whose two sides parse is taken, and the rest join the antecedent.
    assert parse_conditional("(A | B) | C", ctx).antecedent == Atom("C")
    assert parse_conditional("A | B | C", ctx).antecedent == parse_event("B | C")
    with pytest.raises(EventSyntaxError, match="expected a conditional") as caught:
        parse_conditional("A | | B", ctx)
    assert caught.value.position == len("A | | B")


# ---------------------------------------------------------------------------
# The character classes that names and the tokenizer rely on
# ---------------------------------------------------------------------------


def _every_character():
    return map(chr, range(sys.maxunicode + 1))


# ASCII name characters, non-ASCII letters, marks and digits, and others.
MIXED = "aZ_09 \u00e9\u00aa\u03a9\u01c5\u0130\u00b7\u0300\u2160\u0663\u3000$-&|~()"


def _is_name(text):
    return text.isascii() and text.isidentifier()


def test_ascii_identifiers_are_exactly_the_name_pattern():
    assert [c for c in _every_character() if _is_name(c) != bool(_NAME_RE.fullmatch(c))] == []
    rng = random.Random(7)
    strings = {
        "".join(rng.choice(MIXED) for _ in range(rng.randint(1, 4))) for _ in range(30_000)
    }
    assert [s for s in strings if _is_name(s) != bool(_NAME_RE.fullmatch(s))] == []
    # Atom and Context check names exactly so, and refuse the constants.
    for s in sorted(strings)[:3000] + ["T", "F", ""]:
        valid = bool(_NAME_RE.fullmatch(s)) and s not in ("T", "F")
        for build in (Atom, lambda name: Context((name,))):
            try:
                build(s)
            except ValueError as exc:
                assert not valid and str(exc) == f"invalid atom name: {s!r}"
            else:
                assert valid


def test_regex_whitespace_is_str_isspace():
    # The tokenizer skips what ``\s`` matches; the character parser skipped
    # what ``str.isspace`` accepts.
    space = re.compile(r"\s")
    assert [c for c in _every_character() if bool(space.fullmatch(c)) != c.isspace()] == []


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_equal_distinct_contexts_mix(self):
        first, second = Context(("A", "B")), Context(("A", "B"))
        assert first == second and first is not second
        a, b = Atom("A"), Atom("B")
        ab = ConditionalEvent(b, a, first)
        ba = ConditionalEvent(a, b, second)
        half = Fraction(1, 2)
        assert check_coherence(Assessment((ab, ba), (half, half))).coherent
        kb = KnowledgeBase(first, ("ab", "ba"), (ab, ba))
        assert p_entails(kb, ConditionalEvent(a | b, a, second))
        assert not p_entails(kb, ConditionalEvent(~a, b, second))
        other = ConditionalEvent(a, b, Context(("A", "B", "C")))
        with pytest.raises(ValueError, match="share one context"):
            Assessment((ab, other), (half, half))
        with pytest.raises(ValueError, match="knowledge base context"):
            KnowledgeBase(first, ("ab", "x"), (ab, other))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Context(("A", "1B")), ValueError, "invalid atom name: '1B'"),
        (lambda: Context(("A", "é")), ValueError, "invalid atom name: 'é'"),
        (lambda: Atom("T"), ValueError, "invalid atom name: 'T'"),
        (lambda: Context(("A", "A")), ValueError, "atom names must be unique"),
        (lambda: Context(("A", "B"), (parse_event("A & B"), parse_event("A & Z"),
                                      parse_event("Y | Q"))),
         UnknownAtomError, "constraint A & Z uses undeclared atoms ['Z']"),
        (lambda: Context(("A",), (Atom("A"), Atom("B") & Atom("C"))),
         UnknownAtomError, "constraint B & C uses undeclared atoms ['B', 'C']"),
        (lambda: ConditionalEvent(Atom("A"), parse_event("A & ~A"), Context(("A", "B"))),
         ImpossibleAntecedentError, "antecedent A & ~A is impossible in this context"),
        (lambda: ConditionalEvent(Atom("Z"), Atom("Q"), Context(("A", "B"))),
         UnknownAtomError, "event Z uses undeclared atoms ['Z']"),
    ])
    def test_messages(self, build, error, message):
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message
        # The fold's failed lookup is not chained to the report.
        assert caught.value.__cause__ is None

    def test_atom_count_is_checked_before_any_mask(self, monkeypatch):
        def no_masks(*args):
            raise AssertionError("masks built before the atom count was checked")

        monkeypatch.setattr(events, "_space", no_masks)
        with pytest.raises(SizeLimitError, match="40 atoms exceed"):
            Context(tuple(f"X{i}" for i in range(40)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_atom_masks_follow_assignment_bits(self, n):
        # Assignment i gives atom k the value of bit n-1-k of i.
        ctx = Context(tuple(f"X{k}" for k in range(n)))
        for k in range(n):
            bits = sum(1 << i for i in range(1 << n) if i >> (n - 1 - k) & 1)
            assert ctx.mask(Atom(f"X{k}")) == bits

    def test_masks_are_computed_at_construction(self):
        # Assignment k gives A bit 1 and B bit 0 of k; A & B excludes k = 3.
        ctx = Context(("A", "B"), (Atom("A") & Atom("B"),))
        ce = ConditionalEvent(Atom("A"), Atom("A") | Atom("B"), ctx)
        assert vars(ctx)["full_mask"] == 0b0111
        assert vars(ce)["masks"] == (0b0100, 0b0010)
        # Equality, hashing and printing ignore them.
        twin = Context(ctx.atoms, ctx.constraints)
        again = ConditionalEvent(Atom("A"), Atom("A") | Atom("B"), twin)
        assert again == ce and hash(again) == hash(ce) and hash(twin) == hash(ctx)
        assert repr(again) == repr(ce) and "masks" not in repr(ce)
        assert "mask" not in repr(ctx)
