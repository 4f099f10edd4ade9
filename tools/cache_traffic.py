"""Per-pool reader cache traffic of perfbench's serve stream. Usage:

    python tools/cache_traffic.py INDEX [--seed N] [--calls N] [--batches N] [--no-result-cache]

Opens INDEX in-process (``SearchEngine(parallel=False)``, the engine's
defaults otherwise), warms it as a server does, then replays what perfbench's
``serve`` workload sends after its warm-up: ``--calls`` sequential
``search`` calls (``suggest`` for the typeahead shape) from its query stream,
then ``--batches`` ``search_many`` batches of 32 from its disjoint batch
stream, all at its k. The defaults, 120 calls and 6 batches, are one serve
run at perfbench's default length. The streams and the vocabulary come from
``--seed`` as in perfbench, so INDEX must hold that seed's corpus:
``tools/executor_work.py --build`` writes seed 1's.

Prints one JSON object: every ``ReaderCache`` pool's entries, bytes, hits,
misses and evictions summed over the segments, and the bytes of all pools
together. ``--no-result-cache`` opens the engine with ``result_cache=False``.
Runs without Ray, and imports ``perfbench/corpus.py`` and
``perfbench/workloads.py`` without changing them. :func:`replay` is the
stream, for other tools (``tools/scorer_memory.py``).
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(1, os.path.join(ROOT, "perfbench"))


def replay(engine, seed: int = 1, calls: int = 120, batches: int = 6) -> None:
    """Send a warmed ``engine`` what perfbench's ``serve`` workload sends
    after its warm-up: ``calls`` sequential ``search`` calls (``suggest``
    for the typeahead shape) from its query stream, then ``batches``
    ``search_many`` batches from its disjoint batch stream, all at its k.
    The streams and the vocabulary come from ``seed`` as in perfbench."""
    import corpus as C
    import workloads as W

    from lucille_ray import parse

    # the two streams perfbench's Workload draws from, built the same way
    vocab = C.make_vocabulary(W.VOCAB_SIZE, seed)
    pool = C.query_pool(vocab, 2000, seed)
    stream = C.query_stream(pool, 5000, seed)
    seen = {q.text for q in pool}
    bpool = [q for q in C.query_pool(vocab, 1200, seed + 7919) if q.text not in seen]
    batch_stream = C.query_stream(bpool, 5000, seed + 7919)

    for q in stream[:calls]:
        call = engine.suggest if q.shape == "typeahead" else engine.search
        call(q.text, k=W.K)
    for b in range(batches):
        batch = batch_stream[b * W.BATCH_SIZE: (b + 1) * W.BATCH_SIZE]
        engine.search_many([W.typeahead(parse(q.text)) if q.shape == "typeahead"
                            else q.text for q in batch], k=W.K)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("index")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--calls", type=int, default=120)
    p.add_argument("--batches", type=int, default=6)
    p.add_argument("--no-result-cache", action="store_true")
    a = p.parse_args()

    from lucille_ray.search import SearchEngine

    engine = SearchEngine(a.index, parallel=False, result_cache=not a.no_result_cache)
    engine.warm()
    replay(engine, a.seed, a.calls, a.batches)

    pools: dict = {}
    (per_segment,) = engine.cache_stats()
    for st in per_segment.values():
        st.pop("postings_read")
        for name, counts in st.items():
            acc = pools.setdefault(name, dict.fromkeys(counts, 0))
            for c, v in counts.items():
                acc[c] += v
    print(json.dumps({
        "index": os.path.abspath(a.index), "seed": a.seed, "calls": a.calls,
        "batches": a.batches, "result_cache": not a.no_result_cache,
        "segments": len(per_segment), "pools": dict(sorted(pools.items())),
        "total_bytes": sum(p["bytes"] for p in pools.values()),
    }, indent=1))


if __name__ == "__main__":
    main()
