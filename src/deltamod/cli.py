"""Command-line interface.

Exit codes: 0 when the request succeeds (and any checked property holds),
1 when a checked property is violated (a witness is printed), 2 on usage
or input errors. Matrices are read from a file path or from standard input
with "-". JSON output (--json) is byte-stable across runs: keys are sorted
and no timings or timestamps are included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .extensions import (enumerate_pair_extensions, enumerate_single_extensions,
                         refute_triple_extensions)
from .families import Partition, build_A, build_A_lee, partitions
from .intmatrix import IntMatrix
from .lines import (LineMultiset, distinguishing_report, line_length_multiset,
                    nu_formula, recover_partition)
from .modularity import is_delta_modular, modularity_level
from .search import MODES, SearchConfig, max_columns_search
from .verify import run_verify_suite

_MODE_ALIASES = {"identity": "identity-anchored", "hnf": "hnf-exhaustive",
                 "greedy": "greedy-seeded"}


def _read_matrix(path: str) -> IntMatrix:
    if path == "-":
        return IntMatrix.from_text(sys.stdin.read())
    with open(path) as f:
        return IntMatrix.from_text(f.read())


def _emit(data: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(human)


def _emit_stats(stats: dict | None) -> None:
    if stats is not None:
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)


def _cmd_check(args) -> int:
    m = _read_matrix(args.matrix)
    stats = {} if args.stats else None
    ok, witness = is_delta_modular(m, args.delta, stats)
    if ok:
        _emit({"delta": args.delta, "holds": True}, args.json,
              f"holds: every full-rank subdeterminant is within {args.delta}")
    else:
        print(json.dumps({"delta": args.delta, "holds": False,
                          "witness": witness.to_json_dict()}, sort_keys=True))
    _emit_stats(stats)
    return 0 if ok else 1


def _cmd_delta(args) -> int:
    m = _read_matrix(args.matrix)
    stats = {} if args.stats else None
    report = modularity_level(m, stats)
    _emit(report.to_json_dict(), args.json, str(report.delta))
    _emit_stats(stats)
    return 0


def _cmd_construct(args) -> int:
    if args.lee:
        fam = build_A_lee(args.delta, args.rank)
    else:
        if args.partition is None:
            raise ValueError("provide --partition or --lee")
        fam = build_A(args.delta, Partition.parse(args.partition), args.rank)
    if args.json:
        print(json.dumps(fam.matrix.to_json_dict(), sort_keys=True))
    else:
        sys.stdout.write(fam.matrix.to_text())
    return 0


def _cmd_partitions(args) -> int:
    ps = partitions(args.n)
    if args.json:
        print(json.dumps([list(p.parts) for p in ps]))
    else:
        for p in ps:
            print(p)
    return 0


def _cmd_extensions(args) -> int:
    if args.arity == 1:
        cols = enumerate_single_extensions(args.delta)
        if args.json:
            print(json.dumps([list(c.reduced) for c in cols]))
        else:
            for c in cols:
                print(" ".join(str(v) for v in c.reduced))
        return 0
    if args.arity == 2:
        pairs = enumerate_pair_extensions(args.delta)
        if args.json:
            print(json.dumps([[list(r) for r in p.rows] for p in pairs]))
        else:
            for p in pairs:
                print("; ".join(f"{x} {y}" for x, y in p.rows))
        return 0
    refs = refute_triple_extensions(args.delta)
    if args.json:
        print(json.dumps([{
            "columns": [list(r) for r in t.columns],
            "witness": t.witness.to_json_dict() if t.witness else None,
        } for t in refs], sort_keys=True))
    else:
        for t in refs:
            rows = "; ".join(" ".join(str(v) for v in r) for r in t.columns)
            wit = (f"|det|={abs(t.witness.det_value)}" if t.witness
                   else "NO WITNESS (delta-modular)")
            print(f"{rows}  ->  {wit}")
    return 0 if all(t.witness is not None for t in refs) else 1


def _cmd_nu(args) -> int:
    if args.from_matrix is not None:
        m = _read_matrix(args.from_matrix)
        profile = line_length_multiset(m, args.element)
    else:
        if args.partition is None or args.delta is None or args.rank is None:
            raise ValueError("provide --delta/--partition/--rank or --from-matrix")
        profile = nu_formula(args.delta, Partition.parse(args.partition), args.rank)
    _emit({"nu": str(profile)}, args.json, str(profile))
    return 0


def _cmd_recover(args) -> int:
    lam = recover_partition(LineMultiset.parse(args.nu), args.delta, args.rank)
    _emit({"partition": list(lam.parts)}, args.json, str(lam))
    return 0


def _cmd_distinguish(args) -> int:
    certs = distinguishing_report(args.delta, args.rank)
    data = {"pairs": [c.to_json_dict() for c in certs],
            "allDistinct": all(c.distinct for c in certs)}
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for c in certs:
            mark = "distinct" if c.distinct else "SAME"
            print(f"{c.left_id} vs {c.right_id}: {c.left_nu} | {c.right_nu} -> {mark}")
    return 0 if data["allDistinct"] else 1


def _cmd_search(args) -> int:
    seed = _read_matrix(args.seed) if args.seed else None
    config = SearchConfig(delta=args.delta, rank=args.rank,
                          mode=_MODE_ALIASES.get(args.mode, args.mode),
                          node_limit=args.node_limit,
                          time_limit_seconds=args.time_limit,
                          seed_matrix=seed)
    cert = max_columns_search(config)
    print(json.dumps(cert.to_json_dict(), sort_keys=True))
    _emit_stats(cert.stats if args.stats else None)
    return 0


def _cmd_verify_suite(args) -> int:
    report = run_verify_suite(args.scope)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        for name, status, elapsed_ms, detail in report.checks:
            print(f"{status:4s} {name} ({elapsed_ms} ms) {detail}")
        print("all passed" if report.all_passed else "FAILURES PRESENT")
    return 0 if report.all_passed else 1


def _env_threads() -> int | None:
    """The --threads default from DELTAMOD_THREADS; unset or 0 means none."""
    raw = os.environ.get("DELTAMOD_THREADS", "0")
    try:
        return int(raw) or None
    except ValueError:
        raise ValueError(f"DELTAMOD_THREADS must be an integer, not {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="deltamod",
        description="Exact tools for bounded-subdeterminant integer matrices")
    ap.add_argument("--threads", type=int, default=_env_threads(),
                    help="reserved; results never depend on it")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true")

    def add_stats(p, what):
        p.add_argument("--stats", action="store_true",
                       help=f"write {what} statistics as one JSON object to stderr")

    p = sub.add_parser("check", help="decide delta-modularity")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("matrix")
    add_json(p)
    add_stats(p, "scan")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("delta", help="exact modularity level")
    p.add_argument("matrix")
    add_json(p)
    add_stats(p, "scan")
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("construct", help="emit an extremal family matrix")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--partition")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--lee", action="store_true")
    add_json(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("partitions", help="list integer partitions")
    p.add_argument("n", type=int)
    add_json(p)
    p.set_defaults(fn=_cmd_partitions)

    p = sub.add_parser("extensions", help="admissible clique extensions")
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--arity", type=int, choices=(1, 2, 3), required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_extensions)

    p = sub.add_parser("nu", help="long-line length multiset")
    p.add_argument("--delta", type=int)
    p.add_argument("--partition")
    p.add_argument("--rank", type=int)
    p.add_argument("--from-matrix")
    p.add_argument("--element", type=int, default=0)
    add_json(p)
    p.set_defaults(fn=_cmd_nu)

    p = sub.add_parser("recover", help="partition from a line profile")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--nu", required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("distinguish", help="pairwise non-isomorphism report")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_distinguish)

    p = sub.add_parser("search", help="column number search")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mode", default="hnf",
                   choices=sorted(set(list(_MODE_ALIASES) + list(MODES))))
    p.add_argument("--node-limit", type=int, default=10 ** 8)
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--seed")
    add_stats(p, "search")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify-suite", help="run the acceptance battery")
    p.add_argument("--scope", choices=("fast", "full"), default="fast")
    add_json(p)
    p.set_defaults(fn=_cmd_verify_suite)

    return ap


def run(argv: list[str] | None = None) -> int:
    try:
        ap = _build_parser()
        args = ap.parse_args(argv)
        if args.threads is not None and args.threads < 1:
            ap.error("--threads must be at least 1")
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
