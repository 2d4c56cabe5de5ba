"""Command-line front-end.

Subcommands: solve (one weight sequence, several emit formats), verify
(engine vs oracle), fuzz (random comparison runs, JSONL records), and bench
(growth measurement, CSV).

Input format: one sequence of nonnegative decimal integers (digits only),
whitespace or comma separated, inline or via --input FILE.

Emit schemas
    json    {"algorithm", "weights", "cost", "levels", "tree", "trace", ...}
            tree: nested arrays, a leaf is its weight, an internal node is
            the list of its children.
            trace: array of {"step", "circle", "weight", "participants":
            [{"index", "sign", "role"}], "accordion_span"}.
    levels  space-separated levels plus a "cost N" line
    trace   the trace array alone, as JSON
    dot     graph description: leaves as boxes, combination nodes as
            circles, child order preserved (ordering=out)
    pretty  human-readable summary; accordion members bracketed, negative
            occurrences as [- w]

Exit codes: 0 success, 1 malformed input or bad flags, 2 verify found a
divergence, 3 infeasible mode (exact-ternary with an even leaf count), 4 fuzz
ran to the end but the solve raised on some instances (the summary's
"errors" list names each one's weights, exception type and message), 5 the
engine broke an internal invariant on this input (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from .binary import hu_tucker
from .core import (
    ROLE_ACCORDION,
    AlphaTree,
    CombinationTrace,
    Infeasible,
    SolveReport,
    StructureError,
    _walk,
    leaf_levels,
    validate_weights,
)
from .harness import PAPER_FAMILY, bench_growth, fuzz_compare, random_instances
from .oracle import dp_optimal, exhaustive_optimal
from .ternary import EngineError, general_solve, solve_pure_ternary

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGENCE = 2
EXIT_INFEASIBLE = 3
EXIT_FUZZ_ERRORS = 4
EXIT_ENGINE = 5

_ARITY_SETS = {"binary": (2,), "ternary": (2, 3), "pure-ternary": (3,)}
# A sign is let through so that validate_weights reports negative weights.
_DECIMAL = re.compile(r"-?[0-9]+")


def _read_weights(args) -> tuple:
    """Tokenise the weights (whitespace or commas, plain decimal integers)
    and check them with ``validate_weights``."""
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif args.weights is not None:
        text = args.weights
    else:
        raise StructureError("no weights given (inline argument or --input FILE)")
    tokens = text.replace(",", " ").split()
    for tok in tokens:
        if not _DECIMAL.fullmatch(tok):
            raise StructureError(f"{tok!r} is not a decimal integer")
    return validate_weights(int(tok) for tok in tokens)


def tree_to_dot(tree: AlphaTree) -> str:
    """Graph description with leaves left to right in sequence order."""
    lines = [
        "digraph alphatree {",
        "  graph [ordering=out];",
        "  node [fontname=\"Helvetica\"];",
    ]
    for nid, nd in enumerate(tree.nodes):
        if nd.is_leaf:
            lines.append(f'  n{nid} [shape=box, label="{nd.weight}"];')
        else:
            lines.append(f'  n{nid} [shape=circle, label="{nd.weight}"];')
    for nid, nd in enumerate(tree.nodes):
        for child in nd.children:
            lines.append(f"  n{nid} -> n{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_to_pretty(report: SolveReport) -> str:
    """One line per combination; accordions keep their signed members."""
    ws = report.weights
    names = {i: str(w) for i, w in enumerate(ws)}
    lines = []
    for k, step in enumerate(report.trace.steps):
        names[step.circle] = f"c{step.circle}"
        bits = []
        acc = []
        for p, role in zip(step.participants, step.roles):
            label = names.get(p.ref, f"c{p.ref}")
            if role == ROLE_ACCORDION:
                acc.append(f"{'+' if p.sign > 0 else '-'} {label}")
            else:
                if acc:
                    bits.append("[" + " ".join(acc) + "]")
                    acc = []
                bits.append(f"[+ {label}]")
        lines.append(f"step {k + 1}: {' '.join(bits)} -> c{step.circle} weight {step.weight}")
    return "\n".join(lines)


def _tree_json(nested) -> str:
    """``json.dumps`` of a tree's nested form.  The C encoder spends one
    level of the recursion limit on each level of nesting, and a tree over
    n leaves can nest n - 1 levels, so each list is a frame of ``_walk``
    that writes its punctuation and weights to one output list and yields
    each child list.  The walk starts at a one-element list around the
    tree, whose brackets are then dropped, so a one-leaf tree needs no
    case of its own.  Its memo is keyed by the list object, which stays
    alive for the whole walk (a weight is never a need: equal small ints
    are one object)."""
    out = []

    def dump(x: list):
        for k, child in enumerate(x):
            out.append(", " if k else "[")
            if isinstance(child, list):
                yield (child,)
            else:
                out.append(str(child))
        out.append("]")

    _walk(([nested],), dump, {}, lambda need: id(need[0]))
    return "".join(out[1:-1])


def _report_json(report: SolveReport) -> str:
    """``json.dumps(report.to_json_obj())``, with the tree by ``_tree_json``."""
    fields = (
        f"{json.dumps(key)}: {_tree_json(value) if key == 'tree' else json.dumps(value)}"
        for key, value in report.to_json_obj().items()
    )
    return "{" + ", ".join(fields) + "}"


def _solve(ws: tuple, algo: str, arity: Optional[str]) -> SolveReport:
    if algo == "dp":
        cost, tree = dp_optimal(ws, _ARITY_SETS[arity or "ternary"])
        trace = CombinationTrace(len(ws), ())
        return SolveReport("dp", ws, cost, leaf_levels(tree), tree, trace)
    if algo == "hu-tucker":
        if arity not in (None, "binary"):
            raise StructureError("hu-tucker builds binary trees; use --arity binary")
        return hu_tucker(ws)
    if algo == "ternary":
        if arity in (None, "ternary"):
            return general_solve(ws)
        if arity == "pure-ternary":
            return solve_pure_ternary(ws)
        raise StructureError("--algo ternary supports --arity ternary or pure-ternary")
    raise StructureError(f"unknown algorithm {algo!r}")


def cmd_solve(args) -> int:
    report = _solve(_read_weights(args), args.algo, args.arity)
    emit = args.emit
    if emit == "json":
        print(_report_json(report))
    elif emit == "levels":
        print(" ".join(str(l) for l in report.levels))
        print(f"cost {report.cost}")
    elif emit == "trace":
        print(json.dumps(report.trace.to_json_obj()))
    elif emit == "dot":
        sys.stdout.write(tree_to_dot(report.tree))
    else:  # pretty
        print(f"weights: {' '.join(str(w) for w in report.weights)}")
        print(f"algorithm: {report.algorithm}")
        print(f"cost: {report.cost}")
        print(f"levels: {' '.join(str(l) for l in report.levels)}")
        print(f"tree: {_tree_json(report.tree.to_nested())}")
        if report.trace.steps:
            print(trace_to_pretty(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    ws = _read_weights(args)
    # the oracle first: exhaustive enumeration refuses large inputs at once,
    # before the engine spends its time on them
    if args.against == "exhaustive":
        oracle_cost, _count = exhaustive_optimal(ws, (2, 3))
    else:
        oracle_cost, _tree = dp_optimal(ws, (2, 3))
    report = general_solve(ws)
    if report.cost == oracle_cost:
        print(f"ok: engine and {args.against} oracle agree, cost {report.cost}")
        return EXIT_OK
    record = {
        "weights": list(ws),
        "engine_cost": report.cost,
        "oracle_cost": oracle_cost,
        "gap": report.cost - oracle_cost,
    }
    print(json.dumps(record))
    return EXIT_DIVERGENCE


def _parse_sizes(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dots, hi = part.partition("..")
        try:
            lo = int(lo)
            hi = int(hi) if dots else lo
        except ValueError:
            raise ValueError(f"--n takes sizes such as 5,9 or 3..7, got {part!r}") from None
        if hi < lo:
            raise ValueError(f"--n range {part!r} runs backwards; write {hi}..{lo}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"--n takes sizes such as 5,9 or 3..7, got {text!r}")
    return out


# fuzz options that shape the random instances; the parser leaves out the
# ones not given, so random_instances supplies their defaults
_INSTANCE_OPTIONS = (
    "n", "count", "seed", "dist", "weight_lo", "weight_hi", "odd_only", "pcn_free",
)


def cmd_fuzz(args) -> int:
    given = {k: getattr(args, k) for k in _INSTANCE_OPTIONS if hasattr(args, k)}
    if args.paper_family:
        if given:
            raise ValueError(
                "--paper-family runs the built-in sequences and takes no "
                "--n, --count, --seed, --dist, --wlo, --whi, --odd or --pcn-free"
            )
        summary = fuzz_compare(PAPER_FAMILY)
    else:
        if "n" in given:
            given["sizes"] = _parse_sizes(given.pop("n"))
        summary = fuzz_compare(random_instances(**given))
    obj = summary.to_json_obj()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for rec in summary.records:
                fh.write(json.dumps(rec.to_json_obj(), sort_keys=True) + "\n")
    print(json.dumps(obj, sort_keys=True))
    return EXIT_FUZZ_ERRORS if summary.errors else EXIT_OK


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.n)
    report = bench_growth(
        sizes,
        seed=args.seed,
        engine=args.engine,
        repeats=args.repeats,
    )
    csv_text = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    slope = "n/a" if report.slope is None else f"{report.slope:.3f}"
    print(f"log-log slope estimate: {slope}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphatree",
        description="Optimal alphabetic binary and ternary trees: solvers, "
        "oracles, verification, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_args(p):
        p.add_argument("weights", nargs="?", help="inline weight sequence")
        p.add_argument("--input", help="file containing the weight sequence")

    p_solve = sub.add_parser("solve", help="build a tree for one sequence")
    add_weight_args(p_solve)
    p_solve.add_argument(
        "--algo", choices=("hu-tucker", "ternary", "dp"), default="ternary"
    )
    p_solve.add_argument(
        "--arity", choices=("binary", "ternary", "pure-ternary"), default=None
    )
    p_solve.add_argument(
        "--emit", choices=("json", "dot", "levels", "trace", "pretty"), default="pretty"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="compare the engine with an oracle")
    add_weight_args(p_verify)
    p_verify.add_argument("--against", choices=("dp", "exhaustive"), default="dp")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="random engine-vs-oracle comparison",
        argument_default=argparse.SUPPRESS,
    )
    p_fuzz.add_argument("--n", help="sizes, e.g. 5..11 or 3,5,7")
    p_fuzz.add_argument("--count", type=int)
    p_fuzz.add_argument("--seed", type=int)
    p_fuzz.add_argument("--dist", choices=("uniform", "monotone"))
    p_fuzz.add_argument("--wlo", type=int, dest="weight_lo")
    p_fuzz.add_argument("--whi", type=int, dest="weight_hi")
    p_fuzz.add_argument("--odd", action="store_true", dest="odd_only", help="odd sizes only")
    p_fuzz.add_argument("--pcn-free", action="store_true", dest="pcn_free")
    p_fuzz.add_argument("--paper-family", action="store_true", default=False,
                        dest="paper_family",
                        help="run the built-in regression sequences")
    p_fuzz.add_argument("--out", default=None,
                        help="write divergence records as JSON lines")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_bench = sub.add_parser("bench", help="growth measurement")
    p_bench.add_argument("--n", required=True, help="sizes, e.g. 101,201,401")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--engine", choices=("ternary", "binary"), default="ternary")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--out", help="write the CSV here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (OSError, ValueError) as exc:  # StructureError, RefusedSize included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
