"""Command-line front end.

Subcommands: force, greedy, exact, bounds, verify, gen, bench.
Exit codes: 0 ok, 1 semantic negative (set not forcing, budget exhausted,
verification failures), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .bounds import all_bounds, report_to_dict, thm2iii_value
from .corpus import default_corpus, load_corpus, circulant_corpus
from .errors import BudgetExceededError, KForcingError
from .exact import exact_f_k, worker_count
from .forcing import closure, format_trace, is_k_forcing_set
from .generators import FAMILIES, FamilySpec, generate
from .graph import (
    Graph,
    connected_components,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
)
from .greedy import STRATEGIES, THM_III, greedy_per_component
from .verify import report_csv, report_json, run_corpus


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_graph(path: str, fmt: str | None) -> Graph:
    """Load a graph file; auto-detects graph6 vs edge list unless fmt is given."""
    text = _read_text(path)
    if fmt == "graph6":
        return parse_graph6(text.strip())
    if fmt == "edges":
        return parse_edge_list(text)
    stripped = text.strip()
    lines = stripped.splitlines()
    if len(lines) == 1 and lines[0] and all(63 <= ord(c) <= 126 for c in lines[0]):
        try:
            return parse_graph6(lines[0])
        except KForcingError:
            pass
    return parse_edge_list(text)


def _parse_vertex_set(raw: str) -> list[int]:
    if not raw.strip():
        return []
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise KForcingError(f"bad vertex set {raw!r}") from exc


def cmd_force(args) -> int:
    g = read_graph(args.graph, args.format)
    initial = _parse_vertex_set(args.set)
    trace = closure(g, initial, args.k)
    forcing = len(trace.final.colored) == g.n
    if args.json:
        doc = {
            "k": args.k,
            "initial": sorted(trace.initial.colored),
            "final": sorted(trace.final.colored),
            "rounds": trace.rounds,
            "events": [
                {"round": ev.round, "forcer": ev.forcer, "forced": list(ev.forced)}
                for ev in trace.events
            ],
            "forcing": forcing,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        sys.stdout.write(format_trace(trace))
        print(f"rounds: {trace.rounds}")
        print(f"forcing: {'true' if forcing else 'false'}")
    return 0 if forcing else 1


def cmd_greedy(args) -> int:
    g = read_graph(args.graph, args.format)
    results = greedy_per_component(g, args.k, strategy=args.strategy)
    total = sum(len(r.forcing_set) for r in results)
    if args.json:
        doc = {
            "k": args.k,
            "strategy": args.strategy,
            "total_size": total,
            "components": [
                {
                    "case": r.case_taken,
                    "seed_vertex": list(r.seed_vertex)
                    if isinstance(r.seed_vertex, tuple)
                    else r.seed_vertex,
                    "forcing_set": sorted(r.forcing_set),
                    "augmentations": [
                        {
                            "u": a.u,
                            "colored_neighbors": list(a.colored_neighbors),
                            "a_u": a.a_u,
                        }
                        for a in r.augmentations
                    ],
                }
                for r in results
            ],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    for r in results:
        print(f"case: {r.case_taken}")
        print(f"|T| = {len(r.forcing_set)}")
        print(f"T = {sorted(r.forcing_set)}")
        for a in r.augmentations:
            print(f"augment: u={a.u} colored {list(a.colored_neighbors)} (a_u={a.a_u})")
        if r.case_taken == THM_III:
            sub_n = len(r.trace.final.colored)
            if len(results) == 1:
                bound = thm2iii_value(g, args.k)
                ok = len(r.forcing_set) <= math.floor(bound)
                print(
                    f"bound: |T|={len(r.forcing_set)} <= floor({bound})="
                    f"{math.floor(bound)}: {'ok' if ok else 'VIOLATED'}"
                )
            else:
                print(f"bound: component of size {sub_n}, see per-component run")
    if len(results) > 1:
        print(f"total |T| = {total} over {len(results)} components")
    return 0


def cmd_exact(args) -> int:
    g = read_graph(args.graph, args.format)
    try:
        res = exact_f_k(g, args.k, budget=args.budget)
    except BudgetExceededError as exc:
        if args.json:
            doc = {
                "k": args.k,
                "certification": "budget-truncated",
                "no_set_of_size_le": exc.no_set_of_size_le,
                "subsets_tested": exc.subsets_tested,
            }
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            print(f"budget exhausted: no {args.k}-forcing set of size <= {exc.no_set_of_size_le}")
            print(f"subsets tested: {exc.subsets_tested}")
        return 1
    if args.json:
        doc = {
            "k": args.k,
            "f_k": res.f_k,
            "witness": list(res.witness),
            "subsets_tested": res.subsets_tested,
            "elapsed": res.elapsed,
            "certification": "exhaustive",
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"F_{args.k} = {res.f_k}")
        print(f"witness: {list(res.witness)}")
        print(f"subsets tested: {res.subsets_tested}")
    return 0


def cmd_bounds(args) -> int:
    g = read_graph(args.graph, args.format)
    exact_val = None
    if args.exact:
        exact_val = exact_f_k(g, args.k, budget=args.budget).f_k
    greedy_size = sum(len(r.forcing_set) for r in greedy_per_component(g, args.k))
    report = all_bounds(g, args.k, exact_f_k=exact_val, greedy_size=greedy_size)
    if args.json:
        print(json.dumps(report_to_dict(report), sort_keys=True, indent=2))
        return 0
    comps = connected_components(g)
    if len(comps) > 1:
        print(f"note: graph is disconnected ({len(comps)} components, sizes {[len(c) for c in comps]})")
    print(f"n={report.n} m={report.m} delta={report.delta_min} Delta={report.delta_max} k={report.k}")
    for bv in report.bounds:
        if bv.applicable:
            extra = ""
            if bv.equality_candidate:
                extra = "  (equality candidate: regular of degree k+2)"
            print(f"{bv.name:12s} {str(bv.value):>8s}  floor={bv.floor}{extra}")
        else:
            print(f"{bv.name:12s} {'n/a':>8s}  ({bv.reason})")
    if exact_val is not None:
        print(f"{'exact':12s} {exact_val:>8d}")
    print(f"{'greedy':12s} {greedy_size:>8d}")
    return 0


def cmd_verify(args) -> int:
    if args.corpus_file:
        corpus = load_corpus(args.corpus_file)
    elif args.corpus == "circulant":
        corpus = circulant_corpus()
    else:
        corpus = default_corpus()
    workers = args.workers if args.workers else worker_count()
    report = run_corpus(corpus, workers=workers)
    csv_text = report_csv(report)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    summary = report.summary
    print(f"corpus: {report.corpus_name} ({summary['graphs']} graphs, {summary['runs']} runs)")
    print(f"flagged rows: {summary['flagged_rows']}")
    if summary["flag_counts"]:
        for name, count in sorted(summary["flag_counts"].items()):
            print(f"  {name}: {count}")
    print(f"budget exceeded: {summary['budget_exceeded']}")
    print(f"equality cases logged: {summary['equality_cases']}")
    ident = summary["k1_identity"]
    print(f"k=1 thm2iii/acdp5 identity: {ident['equal']}/{ident['checked']} agree")
    cor1s = summary["cor1_vs_thm2iii"]
    print(f"cor1 vs thm2iii at k=1: {cor1s['agree']}/{cor1s['checked']} agree")
    if not args.csv and not args.json_out:
        sys.stdout.write(csv_text)
    return 1 if summary["flagged_rows"] else 0


def _parse_family_params(family: str, raw: list[str], seed: int) -> FamilySpec:
    params: list = []
    if family == "circulant":
        if len(raw) != 2:
            raise KForcingError("circulant takes: n conn (e.g. circulant 10 1,5)")
        params = [int(raw[0]), tuple(int(x) for x in raw[1].split(","))]
    elif family == "gnp_connected":
        if len(raw) != 2:
            raise KForcingError("gnp_connected takes: n p")
        params = [int(raw[0]), float(raw[1])]
    else:
        params = [int(x) for x in raw]
    return FamilySpec(family=family, parameters=tuple(params), seed=seed)


def cmd_gen(args) -> int:
    spec = _parse_family_params(args.family, args.params, args.seed)
    g = generate(spec)
    if args.format == "graph6":
        out = serialize_graph6(g) + "\n"
    else:
        out = serialize_edge_list(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_bench(args) -> int:
    """Time the exact solver on seeded graphs of growing order."""
    print(f"exact solver bench, k={args.k} (seeded G(n, 0.4) graphs)")
    print("n f_k subsets states seconds")
    for n in range(6, args.max_n + 1, 2):
        spec = FamilySpec(family="gnp_connected", parameters=(n, 0.4), seed=42)
        g = generate(spec)
        start = time.perf_counter()
        try:
            res = exact_f_k(g, args.k, budget=args.budget)
        except BudgetExceededError as exc:
            print(f"{n} >={exc.no_set_of_size_le + 1} {exc.subsets_tested} (budget)")
            continue
        elapsed = time.perf_counter() - start
        print(f"{n} {res.f_k} {res.subsets_tested} {res.states_expanded} {elapsed:.3f}")
    return 0


def _add_graph_arg(sub) -> None:
    sub.add_argument("graph", help="graph file (graph6 or edge list), or - for stdin")
    sub.add_argument("--format", choices=("graph6", "edges"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kforcing",
        description="k-forcing processes: simulation, greedy construction, exact solving, bounds",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("force", help="run the forcing process from an initial set")
    _add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated initial vertices")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_force)

    p = subs.add_parser("greedy", help="construct a k-forcing set greedily")
    _add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="min_augmentation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_greedy)

    p = subs.add_parser("exact", help="compute F_k by exact search")
    _add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="max subsets of a size-by-size enumeration")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = subs.add_parser("bounds", help="evaluate every bound on a graph")
    _add_graph_arg(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="also run the exact solver")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("verify", help="run the verification harness over a corpus")
    p.add_argument("corpus_file", nargs="?", default=None, help="corpus JSON file")
    p.add_argument("--corpus", choices=("default", "circulant"), default="default")
    p.add_argument("--csv", default=None, help="write the CSV report here")
    p.add_argument("--json", dest="json_out", default=None, help="write the JSON report here")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("gen", help="generate a family graph")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("graph6", "edges"), default="edges")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("bench", help="time the exact solver on growing graphs")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KForcingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
