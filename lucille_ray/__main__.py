"""Command-line interface: build / compact / search / inspect indexes.

Owns its Ray session (guarded — the graft driver initializes Ray itself and never
imports this module).

    python -m lucille_ray generate --turns 100000 --out /tmp/tr
    python -m lucille_ray build --input /tmp/tr --index /tmp/idx --segments 4
    python -m lucille_ray append --input /tmp/more --index /tmp/idx
    python -m lucille_ray compact --index /tmp/idx
    python -m lucille_ray search --index /tmp/idx 'role:assistant AND deploy*' -k 5
    python -m lucille_ray suggest --index /tmp/idx 'role:assistant AND depl'
    python -m lucille_ray stats --index /tmp/idx
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_up(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
    except Exception:
        pass


def _print_hits(table) -> None:
    rows = table.to_pylist()
    if not rows:
        print("(no hits)")
        return
    cols = list(rows[0].keys())
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="lucille_ray", description=__doc__)
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a deterministic synthetic transcripts dataset")
    g.add_argument("--turns", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--files", type=int, default=8)

    b = sub.add_parser("build", help="build (or resume) an index")
    b.add_argument("--input", required=True, help="transcripts parquet dir/file")
    b.add_argument("--index", required=True)
    b.add_argument("--segments", type=int, default=4)
    b.add_argument("--batch-size", type=int, default=16384)

    ap = sub.add_parser("append", help="append new conversations to an existing index")
    ap.add_argument("--input", required=True, help="transcripts parquet dir/file")
    ap.add_argument("--index", required=True)
    ap.add_argument("--segments", type=int, default=1)
    ap.add_argument("--batch-size", type=int, default=16384)

    de = sub.add_parser("delete", help="tombstone conversations or doc ids")
    de.add_argument("--index", required=True)
    de.add_argument("--conv", action="append", default=[], help="conversation id (repeatable)")
    de.add_argument("--docs", default="", help="comma-separated global doc ids")

    c = sub.add_parser("compact", help="compact posting pieces for serving")
    c.add_argument("--index", required=True)

    for name, help_ in (("search", "run a query"), ("suggest", "search-as-you-type")):
        s = sub.add_parser(name, help=help_)
        s.add_argument("--index", required=True)
        s.add_argument("query")
        s.add_argument("-k", type=int, default=10)
        s.add_argument("--json", action="store_true")

    st_ = sub.add_parser("stats", help="index metadata + per-segment summary")
    st_.add_argument("--index", required=True)

    pp = sub.add_parser("parse", help="parse a query and print its AST (no Ray)")
    pp.add_argument("query")

    args = p.parse_args(argv)

    if args.cmd == "parse":
        from lucille_ray.query import ParseError, parse, print_query

        try:
            q = parse(args.query)
        except ParseError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(repr(q))
        print("printed:", print_query(q))
        return 0

    if args.cmd == "generate":
        from lucille_ray import transcripts as T

        out = T.generate(args.turns, args.out, seed=args.seed, num_files=args.files)
        print(f"wrote {args.turns} turns to {out}")
        return 0

    _ray_up(args.num_cpus)
    import ray

    from lucille_ray.query import ParseError

    try:
        if args.cmd == "build":
            from lucille_ray.index import build_index
            from lucille_ray.transcripts import read_transcripts

            meta = build_index(
                read_transcripts(args.input), args.index,
                num_segments=args.segments, batch_size=args.batch_size,
            )
            print(json.dumps({"total_docs": meta["total_docs"],
                              "num_segments": len(meta["segments"]),
                              "build_seconds": meta["build_seconds"]}))
        elif args.cmd == "append":
            from lucille_ray.index import append_index
            from lucille_ray.transcripts import read_transcripts

            meta = append_index(
                read_transcripts(args.input), args.index,
                num_segments=args.segments, batch_size=args.batch_size,
            )
            print(json.dumps({"total_docs": meta["total_docs"],
                              "num_segments": len(meta["segments"])}))
        elif args.cmd == "delete":
            from lucille_ray.index import delete_conversations, delete_docs

            n = 0
            if args.conv:
                n += delete_conversations(args.index, args.conv)
            if args.docs:
                n += delete_docs(args.index, [int(x) for x in args.docs.split(",")])
            print(json.dumps({"newly_deleted": n}))
        elif args.cmd == "compact":
            from lucille_ray.index import compact_index

            done = compact_index(args.index)
            print("compacted")
            print(json.dumps(done))
        elif args.cmd in ("search", "suggest"):
            from lucille_ray.search import SearchEngine

            eng = SearchEngine(args.index)
            fn = eng.suggest if args.cmd == "suggest" else eng.search
            t = fn(args.query, k=args.k)
            if args.json:
                print(json.dumps(t.to_pylist()))
            else:
                _print_hits(t)
            eng.shutdown()
        elif args.cmd == "stats":
            from lucille_ray.index.report import build_report

            print(json.dumps(build_report(args.index), indent=1))
    except (FileNotFoundError, ValueError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
