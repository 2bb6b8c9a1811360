"""Plain-text knowledge-base files.

Line-oriented format with four sections, designed to keep fixtures
diff-friendly::

    # comment
    atoms: L S G N
    constraints:
      A & B            # each line is an event declared impossible
    conditionals:
      c1: G | L = 1    # name: consequent | antecedent [= probability]
    queries:
      entails ~N | L   # accepted and ignored

Probabilities are written ``a/b``, as integers, or as decimals; decimals are
converted exactly at parse time, so no floats survive parsing.  Probabilities
must be given for all conditionals or for none.  The ``queries`` section is
reserved: its lines are read past, and no command runs them.
"""

from __future__ import annotations

from fractions import Fraction

from .coherence import Assessment
from .conditionals import ConditionalEvent, parse_conditional
from .errors import CohereError, KBFormatError
from .events import Context, Event, parse_event
from .inference import KnowledgeBase
from .rationals import fraction_str, parse_rational

_SECTIONS = ("atoms", "constraints", "conditionals", "queries")


def parse_kb_text(text: str) -> tuple[KnowledgeBase, Assessment | None]:
    """The knowledge base a file's text declares, fully validated, and its
    assessment when the conditionals carry probabilities."""
    atoms: list[str] = []
    constraint_src: list[tuple[int, str]] = []
    conditional_src: list[tuple[int, str]] = []
    section = None
    # A line ends at "\n" alone, as in an editor: str.splitlines would also
    # break at a form feed or another separator, even inside a comment.  The
    # strip drops the "\r" of a CRLF line end.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        if sep and head.strip() in _SECTIONS:
            # Section keywords are reserved; they cannot name conditionals.
            section = head.strip()
            line = rest.strip()
            if not line:
                continue
        elif section is None:
            raise KBFormatError("content before any section header", lineno)
        if section == "atoms":
            atoms.extend(line.split())
        elif section == "constraints":
            constraint_src.append((lineno, line))
        elif section == "conditionals":
            conditional_src.append((lineno, line))

    if not atoms:
        raise KBFormatError("no atoms declared")
    # One set of atom names checks every constraint; the context builds its
    # own for the conditionals.
    allowed = frozenset(atoms)
    constraints: list[Event] = []
    for lineno, src in constraint_src:
        try:
            constraints.append(parse_event(src, allowed))
        except CohereError as exc:
            raise KBFormatError(str(exc), lineno) from exc
    try:
        context = Context(tuple(atoms), tuple(constraints))
    except (ValueError, CohereError) as exc:
        raise KBFormatError(str(exc)) from exc

    names: list[str] = []
    conditionals: list[ConditionalEvent] = []
    probs: list[Fraction] = []
    for lineno, src in conditional_src:
        name, sep, body = src.partition(":")
        name = name.strip()
        if not sep or name.split() != [name]:
            raise KBFormatError(
                "expected 'name: consequent | antecedent [= probability]'", lineno
            )
        if name in names:
            raise KBFormatError(f"duplicate conditional name {name!r}", lineno)
        expr, eq, prob_src = body.rpartition("=")
        if not eq:
            expr, prob_src = body, None
        try:
            conditionals.append(parse_conditional(expr.strip(), context))
        except CohereError as exc:
            raise KBFormatError(str(exc), lineno) from exc
        if prob_src is not None:
            try:
                p = parse_rational(prob_src)
            except CohereError as exc:
                raise KBFormatError(str(exc), lineno) from exc
            if not 0 <= p <= 1:
                raise KBFormatError(f"probability {fraction_str(p)} outside [0, 1]", lineno)
            probs.append(p)
        names.append(name)

    if not conditionals:
        raise KBFormatError("no conditionals declared")
    if probs and len(probs) != len(conditionals):
        raise KBFormatError("probabilities must be given for all conditionals or none")

    kb = KnowledgeBase(context, tuple(names), tuple(conditionals))
    return kb, Assessment(kb.conditionals, tuple(probs)) if probs else None


def load_kb(path: str) -> tuple[KnowledgeBase, Assessment | None]:
    """Load and fully validate a knowledge-base file."""
    with open(path, encoding="utf-8") as fh:
        return parse_kb_text(fh.read())
