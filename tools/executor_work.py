"""Deterministic work counts of the per-segment top-k executors over the
perfbench query pools. Usage:

    python tools/executor_work.py --build INDEX [--turns N] [--segments S] [--no-compact]
    python tools/executor_work.py CHECKOUT INDEX OUT.json [--seeds 1,2,3]
    python tools/executor_work.py --compare A.json B.json

``--build`` writes a seeded perfbench corpus (``perfbench/corpus.py``: a
20,000-word vocabulary, seed 1, about N turns) under ``INDEX.corpus`` and
builds INDEX from it with ``build_index`` over S segments, then compacts it
unless ``--no-compact``, with Ray at 4 logical CPUs; the other two modes
run without Ray.

The count mode imports ``lucille_ray`` from CHECKOUT (any revision that
routes queries through ``search.engine.TOP_K_ROUTES``), opens INDEX
in-process, and walks ``query_pool(vocabulary, 2000, seed)`` for each seed.
For every query and every segment it runs the plain evaluator
(``SegmentEval``, then the top k, the ``plain`` row) and, when a route
matches, the route's executor at perfbench's k (10), each twice on a fresh
``ReaderCache``: cold, then warm. Neither keeps its answer (the one answer
cache is ``SegmentScorer.score``'s ``result`` pool, which direct calls
bypass), so the warm run measures only what the decode caches save. Each
run records the blocks, postings and calls of ``RawBlocks.decode_blocks``
(every block decode of the serving path goes through it), the answers of
both runs (doc ids and scores, unboosted for an executor, or null when the
executor declines the segment), and how many ``postings_many`` calls of
the cold run passed ``candidates`` (a candidate decode). Queries that fail
to plan (an expansion past the cap) are skipped.

The compare mode matches A's and B's rows by (seed, query, segment,
executor) and prints: rows whose warm answer differs from the cold one,
cold answer differences between A and B, per-executor totals, how many rows
decoded more or fewer cold blocks in B than in A, how many rows differ at
all in cold blocks, postings or decode calls, and how many rows decoded
more or fewer warm blocks, with those rows' warm totals and how many of
them took no candidate decode.
"""
import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VOCAB_WORDS = 20_000
VOCAB_SEED = 1
POOL_SIZE = 2000
K = 10  # perfbench/workloads.py's K


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("paths", nargs="*", help="CHECKOUT INDEX OUT.json")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--build", metavar="INDEX")
    p.add_argument("--turns", type=int, default=3500)
    p.add_argument("--segments", type=int, default=2)
    p.add_argument("--no-compact", action="store_true")
    a = p.parse_args()
    if not a.compare and not a.build and len(a.paths) != 3:
        p.error("give CHECKOUT INDEX OUT.json, --compare A B, or --build INDEX")
    return a


def build(a: argparse.Namespace) -> None:
    sys.path.insert(0, ROOT)
    import ray

    from lucille_ray.index import build_index, compact_index
    from lucille_ray.transcripts import read_transcripts
    from perfbench import corpus as C

    table = C.make_turns(C.make_vocabulary(VOCAB_WORDS, VOCAB_SEED), a.turns, VOCAB_SEED)
    src = a.build.rstrip("/") + ".corpus"
    C.write_corpus(table, src)
    if not ray.is_initialized():
        ray.init(num_cpus=4, include_dashboard=False, logging_level="ERROR")
    try:
        t0 = time.perf_counter()
        build_index(read_transcripts(src), a.build, num_segments=a.segments)
        if not a.no_compact:
            compact_index(a.build)
        print(json.dumps({"index": a.build, "turns": table.num_rows,
                          "segments": a.segments, "compacted": not a.no_compact,
                          "seconds": round(time.perf_counter() - t0, 1)}))
    finally:
        ray.shutdown()


class _Counter:
    """Counts what ``RawBlocks.decode_blocks`` decodes, and the
    ``SegmentReader.postings_many`` calls given candidates, while installed."""

    def __init__(self, raw_blocks, segment_reader):
        real_decode = raw_blocks.decode_blocks
        real_many = segment_reader.postings_many
        self.reset()
        counter = self

        def counting(rb, sel, want_positions=False):
            ns = rb.ns if sel is None else rb.ns[sel]
            counter.calls += 1
            counter.blocks += int(ns.size)
            counter.postings += int(ns.sum())
            return real_decode(rb, sel, want_positions)

        def counting_many(reader, field, terms, want_positions=False, candidates=None):
            counter.cand_calls += candidates is not None
            return real_many(reader, field, terms, want_positions, candidates)

        raw_blocks.decode_blocks = counting
        segment_reader.postings_many = counting_many

    def reset(self) -> None:
        self.calls = self.blocks = self.postings = self.cand_calls = 0

    def take(self) -> dict:
        got = {"blocks": self.blocks, "postings": self.postings, "calls": self.calls}
        self.reset()
        return got


def count(a: argparse.Namespace) -> None:
    checkout, index, out = a.paths
    sys.path.insert(0, os.path.abspath(checkout))
    sys.path.insert(1, ROOT)
    from lucille_ray.index import codec
    from lucille_ray.index.segment import ReaderCache, SegmentReader
    from lucille_ray.search import engine as engine_mod
    from lucille_ray.search.eval import SegmentEval, top_k
    from perfbench import corpus as C

    def plain(r, ctx, k, query, reqs):
        docs, scores = SegmentEval(r, ctx, reqs, query=query).eval(query)
        return top_k(docs, scores, k) if docs.size else (docs, scores)

    counter = _Counter(codec.RawBlocks, SegmentReader)
    engine = engine_mod.SearchEngine(index, parallel=False, result_cache=False)
    readers = [r for r in engine._scorers()[0].readers if r.doc_count]
    vocab = C.make_vocabulary(VOCAB_WORDS, VOCAB_SEED)
    rows = []
    for seed in [int(s) for s in a.seeds.split(",")]:
        for pq in C.query_pool(vocab, POOL_SIZE, seed):
            try:
                q, reqs, ctx = engine.plan(pq.text)
            except ValueError:
                continue
            runs = [("plain", plain, {"query": q, "reqs": reqs})]
            for matcher, executor in engine_mod.TOP_K_ROUTES:
                got = matcher(q, ctx)
                if got is not None:
                    runs.append((executor.__name__, executor, got[0]))
                    break
            for name, executor, args in runs:
                for seg, r in enumerate(readers):
                    r.cache = ReaderCache()
                    row = {"seed": seed, "shape": pq.shape, "query": pq.text,
                           "segment": seg, "executor": name}
                    counter.reset()
                    answers = []
                    for run in ("cold", "warm"):
                        got = executor(r, ctx, k=K, **args)
                        if run == "cold":
                            row["cand_calls"] = counter.cand_calls
                        row[run] = counter.take()
                        answers.append(None if got is None else [
                            [int(d) for d in got[0]], [float(s) for s in got[1]]])
                    row["answer"], row["warm_answer"] = answers
                    rows.append(row)
    with open(out, "w") as f:
        json.dump({"checkout": os.path.abspath(checkout), "index": os.path.abspath(index),
                   "seeds": a.seeds, "k": K, "rows": rows}, f)
    print(f"{len(rows)} rows -> {out}")


def compare(a_path: str, b_path: str) -> None:
    def load(path: str) -> dict:
        with open(path) as f:
            return {(r["seed"], r["query"], r["segment"], r["executor"]): r
                    for r in json.load(f)["rows"]}

    A, B = load(a_path), load(b_path)
    if A.keys() != B.keys():
        print(f"rows only in A: {len(A.keys() - B.keys())}, only in B: {len(B.keys() - A.keys())}")
    keys = sorted(A.keys() & B.keys())
    for side, rows in (("A", A), ("B", B)):
        warm = sum(r["warm_answer"] != r["answer"] for r in rows.values())
        print(f"{side}: {warm} rows answer differently warm than cold")
    diffs = [key for key in keys if A[key]["answer"] != B[key]["answer"]]
    print(f"answers: {len(keys) - len(diffs)} of {len(keys)} rows identical")
    for key in diffs[:10]:
        print("  answer differs:", key)
    totals: dict = {}
    for key in keys:
        ra, rb = A[key], B[key]
        t = totals.setdefault(rb["executor"], {
            "rows": 0, "worse": 0, "better": 0, "changed": 0,
            "warm_worse": 0, "warm_better": 0, "warm_no_cand": 0,
            **{f"{side}.warm_changed.{c}": 0 for side in "AB"
               for c in ("blocks", "postings", "calls")},
            **{f"{side}.{run}.{c}": 0 for side in "AB" for run in ("cold", "warm")
               for c in ("blocks", "postings", "calls")}})
        t["rows"] += 1
        for side, r in (("A", ra), ("B", rb)):
            for run in ("cold", "warm"):
                for c, v in r[run].items():
                    t[f"{side}.{run}.{c}"] += v
        da, db = ra["cold"], rb["cold"]
        t["worse"] += db["blocks"] > da["blocks"]
        t["better"] += db["blocks"] < da["blocks"]
        t["changed"] += da != db
        wa, wb = ra["warm"], rb["warm"]
        t["warm_worse"] += wb["blocks"] > wa["blocks"]
        t["warm_better"] += wb["blocks"] < wa["blocks"]
        if wa != wb:
            t["warm_no_cand"] += not rb.get("cand_calls")
            for side, w in (("A", wa), ("B", wb)):
                for c, v in w.items():
                    t[f"{side}.warm_changed.{c}"] += v
    for name, t in sorted(totals.items()):
        print(f"{name}: {t['rows']} rows")
        for run in ("cold", "warm"):
            print("  " + run + ": " + ", ".join(
                f"{c} {t[f'A.{run}.{c}']} -> {t[f'B.{run}.{c}']}"
                for c in ("blocks", "postings", "calls")))
        print(f"  cold blocks: {t['worse']} rows more, {t['better']} fewer; "
              f"{t['changed']} rows differ in blocks, postings or calls")
        print(f"  warm blocks: {t['warm_worse']} rows more, {t['warm_better']} fewer; "
              f"warm work of the rows that differ: " + ", ".join(
                  f"{c} {t[f'A.warm_changed.{c}']} -> {t[f'B.warm_changed.{c}']}"
                  for c in ("blocks", "postings", "calls"))
              + f"; {t['warm_no_cand']} of them took no candidate decode")


def main() -> None:
    a = _args()
    if a.compare:
        compare(*a.compare)
    elif a.build:
        build(a)
    else:
        count(a)


if __name__ == "__main__":
    main()
