"""The engine's value types: written out by hand, they must behave as the
frozen data classes they replace."""

import copy
import importlib
import pickle
import pkgutil
from dataclasses import field, make_dataclass
from fractions import Fraction as Fr

import pytest

import cohere
from cohere import (
    Assessment,
    Atom,
    CoherenceVerdict,
    ConditionalEvent,
    ConstituentSet,
    Context,
    ImpossibleAntecedentError,
    KnowledgeBase,
    OperatorFamily,
    ProbabilityInterval,
    ProbabilityRangeError,
    SigmaSystem,
    TruthValue3,
)
from cohere._record import Record
from cohere.coherence import LevelRecord, SigmaFeasibility, _Endpoint, _Link
from cohere.events import And, Event, Falsum, Not, Or, Verum
from cohere.simplex import LPResult

A, B = Atom("A"), Atom("B")
CTX = Context(("A", "B"), (And(A, Not(B)),))
CE = ConditionalEvent(A, B, CTX)
SYSTEM = SigmaSystem(((2, 0, 1), (1, 1, 1)), (1, 1), (2, 1), ((0, 1),), (0,))
LINK = _Link((0,), SYSTEM, ((1, 1), 2))

# Per type: every constructor argument by keyword, in positional order; one
# compared field with another value; and the defaults.
CASES = [
    (Verum, {}, {}, {}),
    (Falsum, {}, {}, {}),
    (Atom, {"name": "A"}, {"name": "B"}, {}),
    (Not, {"operand": A}, {"operand": B}, {}),
    (And, {"left": A, "right": B}, {"right": A}, {}),
    (Or, {"left": A, "right": B}, {"left": B}, {}),
    (Context, {"atoms": ("A", "B"), "constraints": (And(A, B),)}, {"constraints": ()},
     {"constraints": ()}),
    (ConditionalEvent, {"consequent": A, "antecedent": B, "context": CTX},
     {"consequent": Not(A)}, {}),
    (ConstituentSet,
     {"inside": (1, 2), "profiles": ((TruthValue3.TRUE,), (TruthValue3.FALSE,)), "c0": 12},
     {"c0": 0}, {}),
    (Assessment, {"family": (CE,), "probs": (Fr(1, 2),)}, {"probs": (Fr(1, 3),)}, {}),
    (SigmaSystem,
     {"matrix": ((2, 0), (1, 1)), "rhs": (1, 1), "scales": (2, 1), "supports": ((0, 1),),
      "target_true": (0,)},
     {"rhs": (0, 1)}, {"target_true": ()}),
    (SigmaFeasibility, {"witness": (Fr(1, 2), Fr(1, 2)), "certificate": None},
     {"witness": (Fr(1), Fr(0))}, {"witness": None, "certificate": None}),
    (LevelRecord, {"indices": (0, 1), "i0": (1,), "witness": (Fr(1),)}, {"i0": ()}, {}),
    (CoherenceVerdict, {"certificate": None, "trace": (LevelRecord((0,), (), (Fr(1),)),)},
     {"certificate": (Fr(1),)}, {}),
    (ProbabilityInterval, {"lo": Fr(1, 4), "hi": Fr(3, 4), "vacuous": True}, {"hi": Fr(1)},
     {"vacuous": False}),
    (_Link, {"indices": (0,), "system": SYSTEM, "solution": ((1, 1), 2)},
     {"solution": ((2, 0), 2)}, {}),
    (_Endpoint, {"value": Fr(1, 2), "chain": (LINK,)}, {"value": Fr(1, 3)}, {}),
    (KnowledgeBase, {"context": CTX, "names": ("c1",), "conditionals": (CE,)},
     {"names": ("c2",)}, {}),
    (LPResult,
     {"status": "optimal", "x": (1, 0), "den": 2, "objective": Fr(1, 2), "farkas": None,
      "tableau": None},
     {"den": 3}, {"x": None, "den": None, "objective": None, "farkas": None, "tableau": None}),
    (OperatorFamily, {"kind": "product", "parameter": None}, {"kind": "minimum"},
     {"parameter": None}),
]
# The types that had __slots__ as data classes; the others keep an instance
# dict, where cached properties and the derived masks live.
SLOTTED = {Verum, Falsum, Atom, Not, And, Or, SigmaFeasibility, LevelRecord,
           CoherenceVerdict, ProbabilityInterval, _Link, _Endpoint, LPResult}
# Constructor arguments that take no part in equality, hashing or repr.
HIDDEN = {"tableau"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _reference(cls, args):
    """The frozen data class that ``cls`` replaces, built from ``args``."""
    fields = [
        (name, object, field(default=None, compare=False, repr=False))
        if name in HIDDEN else (name, object)
        for name in args
    ]
    return make_dataclass(cls.__qualname__, fields, frozen=True)(**args)


def test_every_record_type_is_covered():
    for module in pkgutil.iter_modules(cohere.__path__):
        importlib.import_module(f"cohere.{module.name}")
    defined = {cls for cls in _subclasses(Record) if cls.__module__.startswith("cohere.")}
    assert defined - {Event} == {case[0] for case in CASES}
    assert len(CASES) == 20


@pytest.mark.parametrize("cls, args, changed, defaults", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaves_as_a_frozen_data_class(cls, args, changed, defaults):
    one, two = cls(**args), cls(*args.values())
    assert one == two and hash(one) == hash(two) and repr(one) == repr(two)
    reference = _reference(cls, args)
    assert repr(one) == repr(reference) and hash(one) == hash(reference)
    assert one != reference and (one == object()) is False

    for name, value in changed.items():
        assert cls(**{**args, name: value}) != one
    for name in HIDDEN & args.keys():
        assert cls(**{**args, name: object()}) == one

    name = next(iter(args), "name")
    with pytest.raises(AttributeError):
        setattr(one, name, args.get(name))
    with pytest.raises(AttributeError):
        delattr(one, name)
    assert one == two

    short = cls(**{k: v for k, v in args.items() if k not in defaults})
    assert short == cls(**{**args, **defaults})
    assert all(getattr(short, k) == v for k, v in defaults.items())

    assert hasattr(one, "__dict__") == (cls not in SLOTTED)
    for restored in (copy.copy(one), copy.deepcopy(one), pickle.loads(pickle.dumps(one))):
        assert restored == one and repr(restored) == repr(one)
        if cls not in SLOTTED:
            assert vars(restored).keys() == vars(one).keys()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Atom("T"), ValueError),
        (lambda: Context(()), ValueError),
        (lambda: Context(("A", "A")), ValueError),
        (lambda: ConditionalEvent(A, And(A, Not(B)), CTX), ImpossibleAntecedentError),
        (lambda: Assessment((), ()), ValueError),
        (lambda: Assessment((CE,), (Fr(1), Fr(1))), ValueError),
        (lambda: Assessment((CE,), (Fr(3, 2),)), ProbabilityRangeError),
        (lambda: Assessment((CE,), (Fr(-1, 2),)), ProbabilityRangeError),
        (lambda: ProbabilityInterval(Fr(1), Fr(0)), ValueError),
        (lambda: ProbabilityInterval(Fr(0), Fr(3, 2)), ValueError),
        # A float endpoint would construct, then fail to print.
        (lambda: ProbabilityInterval(0.25, Fr(1, 2)), TypeError),
        (lambda: ProbabilityInterval(Fr(1, 4), 0.5), TypeError),
        (lambda: KnowledgeBase(CTX, ("c1", "c2"), (CE,)), ValueError),
        (lambda: KnowledgeBase(CTX, ("c1", "c1"), (CE, CE)), ValueError),
        (lambda: KnowledgeBase(Context(("A", "B")), ("c1",), (CE,)), ValueError),
        (lambda: OperatorFamily("hamacher"), ValueError),
        (lambda: OperatorFamily("hamacher", Fr(-1)), ValueError),
        (lambda: OperatorFamily("product", Fr(1)), ValueError),
        (lambda: OperatorFamily("sum"), ValueError),
    ],
)
def test_constructor_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda seq: Context(seq(("A", "B")), seq((And(A, Not(B)),))),
        lambda seq: Assessment(seq((CE,)), seq((Fr(1, 2),))),
        lambda seq: KnowledgeBase(CTX, seq(("c1",)), seq((CE,))),
    ],
    ids=["Context", "Assessment", "KnowledgeBase"],
)
def test_sequence_fields_are_stored_as_tuples(build):
    # Lists give the same record as tuples, so it still hashes.
    listed, tupled = build(list), build(tuple)
    assert listed == tupled and hash(listed) == hash(tupled) and repr(listed) == repr(tupled)
    assert all(not isinstance(getattr(listed, name), list) for name in listed._fields)


def test_assessment_built_from_lists_extends():
    extended = Assessment([CE], [Fr(1, 2)]).extend(CE, Fr(1, 3))
    assert extended == Assessment((CE, CE), (Fr(1, 2), Fr(1, 3)))


# Each receiver of an exact rational, and the types it takes, as its
# refusal of a float or a string names them.
RECORDS_TAKE = "Fraction or int"
PARSERS_TAKE = "Fraction, int or string"
RECEIVERS = [
    ("Assessment", lambda v: Assessment((CE,), (v,)), RECORDS_TAKE),
    ("Assessment.extend", lambda v: Assessment((CE,), (Fr(1, 2),)).extend(CE, v), RECORDS_TAKE),
    ("ProbabilityInterval.lo", lambda v: ProbabilityInterval(v, Fr(1)), RECORDS_TAKE),
    ("ProbabilityInterval.hi", lambda v: ProbabilityInterval(Fr(0), v), RECORDS_TAKE),
    ("as_unit", lambda v: cohere.rationals.as_unit(v), PARSERS_TAKE),
    ("hamacher", lambda v: cohere.tnorms.hamacher(v), PARSERS_TAKE),
]
ADVISED = {"Fraction": Fr, "int": int, "string": str}


@pytest.mark.parametrize("given", [1.0, "1"], ids=["float", "string"])
@pytest.mark.parametrize(
    "receive, takes", [r[1:] for r in RECEIVERS], ids=[r[0] for r in RECEIVERS]
)
def test_a_refused_type_names_types_that_are_taken(receive, takes, given):
    # Each refusal names only the types its receiver takes, so following
    # its advice works; a record took a string past its float refusal and
    # then failed on a bare comparison of str and int.
    if isinstance(given, str) and "string" in takes:
        receive(given)
    else:
        kind = "string '1'" if isinstance(given, str) else "float 1.0"
        with pytest.raises(TypeError, match=rf" is the {kind}; give an exact {takes}$"):
            receive(given)
    for name in takes.replace(" or ", ", ").split(", "):
        receive(ADVISED[name](Fr(1)))


def test_extend_takes_no_text_past_the_digit_limits():
    # Fraction("1e-20000") builds a 66439-bit denominator that
    # parse_rational would refuse.
    with pytest.raises(TypeError, match="a probability is the string '1e-20000'"):
        Assessment((CE,), (Fr(1, 2),)).extend(CE, "1e-20000")
