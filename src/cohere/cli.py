"""Command-line front end.

Exit codes: 0 on success, 1 when ``--strict`` is set and the verdict is
negative, 2 on any error.  ``--json`` switches every command to a stable
machine-readable rendering with rationals as strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .coherence import check_coherence, interval_to_json, verdict_to_json
from .conditionals import (
    TruthValue3,
    constituents,
    parse_conditional,
    quasi_masks,
)
from .errors import CohereError, SizeLimitError
from .inference import (
    GammaRegion,
    RULE_KINDS,
    loop_entails,
    loop_family,
    p_consistent,
    p_entails,
    p_entails_qc,
    rule_bounds,
)
from .rationals import fraction_str, parse_rational

# The KB-file reader and the t-norms are imported by the commands that use
# them, so no other command compiles them.

REGION_NAMES = ("Lqc", "Uqc", "Lqd", "Uqd")
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
    p.add_argument("kind", choices=[k for k in RULE_KINDS if k != "dual"])
    p.add_argument("probs", nargs="+", help="premise probabilities (a/b or decimal)")
    common(p, strict=False)

    p = sub.add_parser(
        "region",
        help="membership in a premise region for a conclusion bound gamma",
    )
    p.add_argument("region", choices=REGION_NAMES)
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

    return parser


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_check(args) -> int:
    from .kbfile import load_kb

    kb, assessment = load_kb(args.kb)
    if assessment is None:
        raise CohereError("the KB file carries no probabilities to check")
    verdict = check_coherence(assessment)
    payload = verdict_to_json(verdict)
    if verdict.coherent:
        _emit(payload, "COHERENT", args.json)
        return 0
    stakes = ", ".join(fraction_str(s) for s in verdict.certificate)
    _emit(
        payload,
        "INCOHERENT\n"
        f"  refuted indices: {list(verdict.deciding_indices)}\n"
        f"  positive-gain stakes: ({stakes})",
        args.json,
    )
    return 1 if args.strict else 0


def _cmd_consistent(args) -> int:
    from .kbfile import load_kb

    kb, _ = load_kb(args.kb)
    ok = p_consistent(kb)
    _emit({"p_consistent": ok}, "P-CONSISTENT" if ok else "NOT P-CONSISTENT", args.json)
    return 1 if args.strict and not ok else 0


def _cmd_entails(args) -> int:
    from .kbfile import load_kb

    kb, _ = load_kb(args.kb)
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
    _emit({"target": args.target, "p_entailed": verdict, "method": args.method},
          text, args.json)
    return 1 if args.strict and not verdict else 0


def _cmd_bounds(args) -> int:
    probs = [parse_rational(p) for p in args.probs]
    rb = rule_bounds(args.kind, probs)
    payload = {
        "rule": rb.rule,
        "probs": [fraction_str(p) for p in rb.probs],
        "interval": interval_to_json(rb.interval),
    }
    _emit(payload, str(rb.interval), args.json)
    return 0


def _cmd_region(args) -> int:
    gamma = parse_rational(args.gamma)
    region = GammaRegion(args.region[0], args.region[1:], gamma)
    if args.grid is not None:
        if args.probs:
            raise CohereError("--grid ignores explicit premise probabilities")
        return _region_grid(region, args.grid, args.json)
    if not args.probs:
        raise CohereError("premise probabilities are required without --grid")
    probs = [parse_rational(p) for p in args.probs]
    inside = region.contains(probs)
    _emit(
        {"region": args.region, "gamma": fraction_str(gamma), "member": inside},
        "IN REGION" if inside else "NOT IN REGION",
        args.json,
    )
    return 1 if args.strict and not inside else 0


def _region_grid(region: GammaRegion, n: int, as_json: bool) -> int:
    if n < 2:
        raise CohereError("--grid needs at least 2 samples per axis")
    if n > MAX_GRID:
        raise SizeLimitError(f"--grid takes at most {MAX_GRID} samples per axis")
    steps = [Fraction(i, n - 1) for i in range(n)]
    rows = []
    for y in reversed(steps):
        rows.append("".join("#" if region.contains([x, y]) else "." for x in steps))
    _emit(
        {"region": region.kind + region.operation,
         "gamma": fraction_str(region.gamma),
         "grid": rows},
        "\n".join(rows),
        as_json,
    )
    return 0


def _cmd_loop(args) -> int:
    if args.derangement:
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
        _emit({"n": args.n, "derangement": list(derangement), "mutual": ok}, text, args.json)
        return 1 if args.strict and not ok else 0
    kb = loop_family(args.n)
    facts = []
    ok = True
    for j in range(1, args.n + 1):
        for i in range(1, args.n + 1):
            if i == j:
                continue
            target = parse_conditional(f"A{i} | A{j}", kb.context)
            entailed = p_entails(kb, target)
            ok = ok and entailed
            facts.append({"target": f"A{i} | A{j}", "p_entailed": entailed})
    text_lines = [
        f"{f['target']}: {'P-ENTAILED' if f['p_entailed'] else 'NOT P-ENTAILED'}"
        for f in facts
    ]
    _emit({"n": args.n, "facts": facts}, "\n".join(text_lines), args.json)
    return 1 if args.strict and not ok else 0


def _cmd_truth_table(args) -> int:
    from .kbfile import load_kb

    kb, _ = load_kb(args.kb)
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
    world = dict(zip(sorted(firsts), kb.context.worlds_in(sum(firsts))))
    rows = [
        {
            "world": str(world[bit]),
            "values": [str(v) for v in profile],
            "C": _value_at(qc, bit),
            "D": _value_at(qd, bit),
        }
        for (_, profile), bit in zip(ordered, firsts)
    ]
    if args.json:
        print(json.dumps({"conditionals": names, "rows": rows}, sort_keys=True))
        return 0
    headers = ["constituent"] + names + ["C", "D"]
    table = [headers] + [[r["world"], *r["values"], r["C"], r["D"]] for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def _value_at(masks: tuple[int, int], bit: int) -> str:
    """The truth value, at the assignment whose bit is ``bit``, of the
    conditional with ``(verifying, falsifying)`` masks ``masks``: VOID,
    raised by one where it is verified and lowered by one where falsified."""
    verifying, falsifying = masks
    return TruthValue3.NAMES[1 + bool(verifying & bit) - bool(falsifying & bit)]


def _cmd_tnorm(args) -> int:
    from .tnorms import (
        DRASTIC, INF, LUKASIEWICZ, MINIMUM, PRODUCT, hamacher, tconorm, tnorm
    )

    families = {
        "min": MINIMUM,
        "minimum": MINIMUM,
        "product": PRODUCT,
        "lukasiewicz": LUKASIEWICZ,
        "drastic": DRASTIC,
    }
    name = args.family.lower()
    if name == "hamacher":
        if args.param is None:
            raise CohereError("the hamacher family needs --param (a/b or 'inf')")
        param = INF if args.param.lower() in ("inf", "infinity") else parse_rational(args.param)
        family = hamacher(param)
    elif name in families:
        if args.param is not None:
            raise CohereError(f"family {name!r} takes no parameter")
        family = families[name]
    else:
        raise CohereError(f"unknown operator family {args.family!r}")
    values = [parse_rational(v) for v in args.args]
    op = tconorm if args.command == "tconorm" else tnorm
    result = op(family, values)
    payload = {
        "family": str(family),
        "args": [fraction_str(v) for v in values],
        "exact": fraction_str(result),
        "decimal": float(result),
    }
    _emit(payload, f"exact: {fraction_str(result)}\ndecimal: {float(result):.12g}", args.json)
    return 0


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


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Built on the first call, so that importing stays cheap, and kept:
    # building it costs more than answering a small query.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args, extra = _parser.parse_known_args(argv)
    # argparse stops filling a zero-or-more positional at the first flag, so
    # region probabilities written after --gamma come back as leftovers.
    if args.command == "region" and not any(t.startswith("-") for t in extra):
        args.probs += extra
    elif extra:
        _parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _HANDLERS[args.command](args)
    except (CohereError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
