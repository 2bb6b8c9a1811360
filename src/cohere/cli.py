"""Command-line front end.

Exit codes: 0 on success, 1 when ``--strict`` is set and the verdict is
negative, 2 on any error.  ``--json`` switches every command to a stable
machine-readable rendering with rationals as strings.

:func:`main` answers every command in one place.  argparse runs once per
call: when the first argument names a command, that command's own parser
reads the rest, and otherwise (no argument, ``-h``, ``--version``, a flag
before the command, an unknown command) the top-level parser reads them
all.  ``main`` appends leftover arguments to the command's trailing list
positional, or has the top-level parser refuse them, loads the KB file of
a command that takes one into ``args.kb`` and ``args.assessment``,
and calls the command's handler.  A handler prints nothing: it returns
``(payload, text, verdict)``, where ``payload`` is the ``--json`` object,
``text`` the plain rendering (which a handler may leave empty under
``--json``), and ``verdict`` a bool for a command that takes ``--strict``
(``None`` for ``region --grid``) and ``None`` otherwise.
``main`` prints one of the two renderings and exits 1 only under
``--strict`` with a ``False`` verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .coherence import ProbabilityInterval, check_coherence, interval_to_json, verdict_to_json
from .conditionals import (
    TruthValue3,
    constituents,
    parse_conditional,
    quasi_masks,
)
from .errors import CohereError, SizeLimitError
from .events import enumerate_worlds
from .inference import (
    biconditional_value,
    compound_bounds,
    gn_chain_bounds,
    in_l_gamma_qc,
    in_l_gamma_qd,
    in_u_gamma_qc,
    in_u_gamma_qd,
    loop_entails,
    loop_family,
    or_rule_bounds,
    p_consistent,
    p_entails,
    p_entails_qc,
    qc_bounds,
    qd_bounds,
)
from .rationals import as_unit, fraction_str, parse_rational

# The KB-file reader and the t-norms are imported by the commands that use
# them, so no other command compiles them.

_REGIONS = {
    "Lqc": in_l_gamma_qc,
    "Uqc": in_u_gamma_qc,
    "Lqd": in_l_gamma_qd,
    "Uqd": in_u_gamma_qd,
}
# A grid costs N**2 membership tests.
MAX_GRID = 100


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohere",
        description=(
            "Exact coherence checking, p-entailment, and probability bound "
            "propagation for conditional events."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cohere {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, strict=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if strict:
            p.add_argument(
                "--strict",
                action="store_true",
                help="exit with status 1 on a negative verdict",
            )

    p = sub.add_parser("check", help="decide coherence of the assessment in a KB file")
    p.add_argument("kb", help="knowledge-base file with probabilities")
    common(p)

    p = sub.add_parser("consistent", help="decide p-consistency of a KB")
    p.add_argument("kb")
    common(p)

    p = sub.add_parser("entails", help="decide p-entailment of a conditional from a KB")
    p.add_argument("kb")
    p.add_argument("target", help="conditional expression, e.g. '~N | L'")
    p.add_argument(
        "--method",
        choices=("lp", "qc", "both"),
        default="lp",
        help="lp: the exact route, Adams' tolerance test of the base plus the "
        "negated target; qc: one Goodman-Nguyen inclusion of the quasi "
        "conjunction of the largest subfamily the tolerance test keeps",
    )
    common(p)

    p = sub.add_parser(
        "bounds",
        help="closed-form probability bounds (logically independent premises)",
    )
    p.add_argument("kind", choices=tuple(_RULES))
    p.add_argument("probs", nargs="+", help="premise probabilities (a/b or decimal)")
    common(p, strict=False)

    p = sub.add_parser(
        "region",
        help="membership in a premise region for a conclusion bound gamma",
    )
    p.add_argument("region", choices=tuple(_REGIONS))
    p.add_argument("--gamma", required=True)
    p.add_argument("probs", nargs="*", help="premise probabilities")
    p.add_argument(
        "--grid",
        type=int,
        metavar="N",
        help=f"print an N x N sampling of the two-premise region, 2 <= N <= {MAX_GRID}",
    )
    common(p)

    p = sub.add_parser("loop", help="p-entailment facts for cyclic families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--derangement",
        help="comma-separated fixed-point-free permutation of 1..n",
    )
    common(p)

    p = sub.add_parser(
        "truth-table", help="three-valued table of a KB's conditionals with their "
        "quasi conjunction and disjunction"
    )
    p.add_argument("kb")
    p.add_argument("names", nargs="*", help="conditional names (default: all)")
    common(p, strict=False)

    for op in ("tnorm", "tconorm"):
        p = sub.add_parser(op, help=f"evaluate a {op} exactly")
        p.add_argument(
            "family", help="min | product | lukasiewicz | drastic | hamacher"
        )
        p.add_argument("--param", help="hamacher parameter (a/b or 'inf')")
        p.add_argument("args", nargs="+", help="arguments in [0, 1]")
        common(p, strict=False)

    # Each command's own parser, by name, for main to call directly.
    parser.commands = sub.choices
    return parser


def _cmd_check(args) -> tuple[dict, str, bool | None]:
    if args.assessment is None:
        raise CohereError("the KB file carries no probabilities to check")
    verdict = check_coherence(args.assessment)
    payload = verdict_to_json(verdict)
    if verdict.coherent:
        return payload, "COHERENT", True
    stakes = ", ".join(fraction_str(s) for s in verdict.certificate)
    text = (
        "INCOHERENT\n"
        f"  refuted indices: {list(verdict.deciding_indices)}\n"
        f"  positive-gain stakes: ({stakes})"
    )
    return payload, text, False


def _cmd_consistent(args) -> tuple[dict, str, bool | None]:
    ok = p_consistent(args.kb)
    return {"p_consistent": ok}, "P-CONSISTENT" if ok else "NOT P-CONSISTENT", ok


def _cmd_entails(args) -> tuple[dict, str, bool | None]:
    kb = args.kb
    target = parse_conditional(args.target, kb.context)
    results: dict[str, bool] = {}
    if args.method in ("lp", "both"):
        results["lp"] = p_entails(kb, target)
    if args.method in ("qc", "both"):
        results["qc"] = p_entails_qc(kb, target)
    if args.method == "both" and results["lp"] != results["qc"]:
        raise CohereError(
            f"procedure disagreement on {args.target!r}: {results}"
        )
    verdict = all(results.values())
    text = "P-ENTAILED" if verdict else "NOT P-ENTAILED"
    if args.method == "both":
        text += " (lp and qc agree)"
    return {"target": args.target, "p_entailed": verdict, "method": args.method}, text, verdict


def _bic_bounds(probs: list[Fraction]) -> ProbabilityInterval:
    # Each premise is checked, and named, before the premises are counted.
    probs = [as_unit(p, f"p{i}") for i, p in enumerate(probs, 1)]
    if len(probs) != 2:
        raise ValueError("the biconditional rule takes exactly two premises")
    value = biconditional_value(*probs)
    return ProbabilityInterval(value, value)


_RULES = {
    "qc": qc_bounds,
    "qd": qd_bounds,
    "or": or_rule_bounds,
    "gn": gn_chain_bounds,
    "compound": compound_bounds,
    "bic": _bic_bounds,
}


def _cmd_bounds(args) -> tuple[dict, str, bool | None]:
    probs = [parse_rational(p) for p in args.probs]
    interval = _RULES[args.kind](probs)
    payload = {
        "rule": args.kind,
        "probs": [fraction_str(p) for p in probs],
        "interval": interval_to_json(interval),
    }
    return payload, str(interval), None


def _cmd_region(args) -> tuple[dict, str, bool | None]:
    gamma = as_unit(parse_rational(args.gamma), "gamma")
    contains = _REGIONS[args.region]
    if args.grid is None:
        if not args.probs:
            raise CohereError("premise probabilities are required without --grid")
        inside = contains([parse_rational(p) for p in args.probs], gamma)
        payload = {"region": args.region, "gamma": fraction_str(gamma), "member": inside}
        return payload, "IN REGION" if inside else "NOT IN REGION", inside
    n = args.grid
    if args.probs:
        raise CohereError("--grid ignores explicit premise probabilities")
    if n < 2:
        raise CohereError("--grid needs at least 2 samples per axis")
    if n > MAX_GRID:
        raise SizeLimitError(f"--grid takes at most {MAX_GRID} samples per axis")
    steps = [Fraction(i, n - 1) for i in range(n)]
    rows = [
        "".join("#" if contains([x, y], gamma) else "." for x in steps)
        for y in reversed(steps)
    ]
    payload = {"region": args.region, "gamma": fraction_str(gamma), "grid": rows}
    return payload, "\n".join(rows), None


def _cmd_loop(args) -> tuple[dict, str, bool | None]:
    if args.derangement is not None:
        try:
            derangement = tuple(int(t) for t in args.derangement.split(","))
        except ValueError:
            raise CohereError(
                f"--derangement takes comma-separated integers, got {args.derangement!r}"
            ) from None
        ok = loop_entails(args.n, derangement)
        text = (
            f"MUTUALLY P-ENTAILED (loop {args.n} and derangement {derangement})"
            if ok
            else "NOT MUTUALLY P-ENTAILED"
        )
        return {"n": args.n, "derangement": list(derangement), "mutual": ok}, text, ok
    kb = loop_family(args.n)
    facts = []
    for j in range(1, args.n + 1):
        for i in range(1, args.n + 1):
            if i != j:
                target = f"A{i} | A{j}"
                entailed = p_entails(kb, parse_conditional(target, kb.context))
                facts.append({"target": target, "p_entailed": entailed})
    text = "\n".join(
        f"{f['target']}: {'P-ENTAILED' if f['p_entailed'] else 'NOT P-ENTAILED'}"
        for f in facts
    )
    return {"n": args.n, "facts": facts}, text, all(f["p_entailed"] for f in facts)


def _cmd_truth_table(args) -> tuple[dict, str, bool | None]:
    kb = args.kb
    names = args.names or list(kb.names)
    unknown = [name for name in names if name not in kb.names]
    if unknown:
        raise CohereError(f"unknown conditionals: {', '.join(unknown)}")
    members = [kb.get(name) for name in names]
    cs = constituents(members)
    qc, qd = quasi_masks(members)
    ordered = list(zip(cs.inside, cs.profiles))
    if cs.c0:
        ordered.insert(0, (cs.c0, (TruthValue3.VOID,) * len(members)))
    # Each row is read at its class's lowest set bit; the classes are
    # disjoint, so one decoding yields every representative in bit order.
    firsts = [mask & -mask for mask, _ in ordered]
    world = dict(zip(sorted(firsts), enumerate_worlds(kb.context.atoms, admissible=sum(firsts))))
    rows = [
        {
            "world": world[bit],
            "values": [str(v) for v in profile],
            "C": _value_at(qc, bit),
            "D": _value_at(qd, bit),
        }
        for (_, profile), bit in zip(ordered, firsts)
    ]
    payload = {"conditionals": names, "rows": rows}
    if args.json:
        # --json never shows the laid-out table, which costs about 5% of
        # the query.
        return payload, "", None
    table = [["constituent", *names, "C", "D"]]
    table += [[r["world"], *r["values"], r["C"], r["D"]] for r in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    text = "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in table)
    return payload, text, None


def _value_at(masks: tuple[int, int], bit: int) -> str:
    """The truth value, at the assignment whose bit is ``bit``, of the
    conditional with ``(verifying, falsifying)`` masks ``masks``: VOID,
    raised by one where it is verified and lowered by one where falsified."""
    verifying, falsifying = masks
    return TruthValue3.NAMES[1 + bool(verifying & bit) - bool(falsifying & bit)]


def _cmd_tnorm(args) -> tuple[dict, str, bool | None]:
    from .tnorms import INF, OperatorFamily, hamacher, tconorm, tnorm

    name = args.family.lower()
    kind = "minimum" if name == "min" else name
    if kind not in OperatorFamily.KINDS:
        raise CohereError(f"unknown operator family {args.family!r}")
    if kind == "hamacher":
        if args.param is None:
            raise CohereError("the hamacher family needs --param (a/b or 'inf')")
        param = INF if args.param.lower() in ("inf", "infinity") else parse_rational(args.param)
        family = hamacher(param)
    elif args.param is not None:
        raise CohereError(f"family {name!r} takes no parameter")
    else:
        family = OperatorFamily(kind)
    values = [parse_rational(v) for v in args.args]
    op = tconorm if args.command == "tconorm" else tnorm
    result = op(family, values)
    payload = {
        "family": str(family),
        "args": [fraction_str(v) for v in values],
        "exact": fraction_str(result),
        "decimal": float(result),
    }
    return payload, f"exact: {fraction_str(result)}\ndecimal: {float(result):.12g}", None


_HANDLERS = {
    "check": _cmd_check,
    "consistent": _cmd_consistent,
    "entails": _cmd_entails,
    "bounds": _cmd_bounds,
    "region": _cmd_region,
    "loop": _cmd_loop,
    "truth-table": _cmd_truth_table,
    "tnorm": _cmd_tnorm,
    "tconorm": _cmd_tnorm,
}
# The list positional, zero or more or one or more, that ends each command
# that has one.
_TRAILING = {
    "bounds": "probs",
    "region": "probs",
    "truth-table": "names",
    "tnorm": "args",
    "tconorm": "args",
}


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Built on the first call, so that importing stays cheap, and kept:
    # building it costs more than answering a small query.
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        args, extra = _parser.parse_known_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        args.command = argv[0]
    # argparse stops filling a list positional at the first flag, so the part
    # of a trailing list written after a flag comes back as leftovers.
    trailing = _TRAILING.get(args.command)
    if trailing and not any(t.startswith("-") for t in extra):
        getattr(args, trailing).extend(extra)
    elif extra:
        _parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if "kb" in vars(args):
            from .kbfile import load_kb

            args.kb, args.assessment = load_kb(args.kb)
        payload, text, verdict = _HANDLERS[args.command](args)
        print(json.dumps(payload, sort_keys=True) if args.json else text)
    except (CohereError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Every command that returns a verdict takes --strict.
    return 1 if verdict is False and args.strict else 0

if __name__ == "__main__":
    sys.exit(main())
