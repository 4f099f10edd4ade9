"""Per-layer probes for the traced run.

Each probe times one layer's public functions from outside, on the workload's
own corpus and index, after the workload's timed part: the parser, the
analyzer, the transcripts reader, an in-process ``SegmentScorer`` over the
same segments, the engine's planner and its Ray dispatch overhead, and the
executors by query shape class.  The serving probes run on the index state
the workload is about (see ``workloads.py``).  Build, compaction and delete
figures come from the workload's own calls (``build_report`` and the
recorded operations).
"""

from __future__ import annotations

import time
from typing import Dict, List

import corpus as C
from harness import median

PROBES_PER_SHAPE = 8  # too few for a p99: each class reports p50 and max
PLAN_PROBES_PER_SHAPE = 2


def parse1000_ms(reps: int = 5) -> float:
    """The box canary: parse a 1000-clause disjunction (the reference's JMH
    input); mean ms over ``reps`` after one untimed parse."""
    from lucille_ray import parse

    q = " OR ".join(f"t{i}" for i in range(1000))
    parse(q)
    t0 = time.perf_counter()
    for _ in range(reps):
        parse(q)
    return (time.perf_counter() - t0) / reps * 1e3


def _each_us(fn, items) -> List[float]:
    out = []
    for x in items:
        t0 = time.perf_counter_ns()
        fn(x)
        out.append((time.perf_counter_ns() - t0) / 1e3)
    return out


def probe_parser(pool: List[C.Query]) -> Dict[str, float]:
    """Parse every pool query once; rewrite every typeahead query once."""
    from lucille_ray import parse
    from workloads import typeahead

    asts = [parse(q.text) for q in pool if q.shape == "typeahead"]
    return {
        "query.parse_us": median(_each_us(parse, [q.text for q in pool])),
        "query.map_last_term_us": median(_each_us(typeahead, asts)),
    }


def probe_analysis(table) -> Dict[str, float]:
    from lucille_ray.analysis import arrow_tokenize

    text = table["text"].combine_chunks()
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        arrow_tokenize(text)
        runs.append(time.perf_counter() - t0)
    return {"analysis.tokenize_turns_per_s": table.num_rows / median(runs)}


def probe_read(path: str) -> Dict[str, float]:
    from lucille_ray.transcripts import read_transcripts

    t0 = time.perf_counter()
    read_transcripts(path).materialize()
    return {"transcripts.read_s": time.perf_counter() - t0}


def unseen_probes(w, per_shape: int) -> Dict[str, List[C.Query]]:
    """``per_shape`` queries per shape class that the current engine has not
    answered or planned yet, so each one misses every cache."""
    pool = C.query_pool(w.vocab, 2000, w.h.seed + 104729)
    out: Dict[str, List[C.Query]] = {s: [] for s in C.SHAPES}
    for q in pool:
        if (w.generation, q.text) not in w.seen and len(out[q.shape]) < per_shape:
            out[q.shape].append(q)
            w.seen.add((w.generation, q.text))
    return out


def probe_serving(w) -> Dict[str, float]:
    """Segment, planner, dispatch and executor probes on the live index."""
    from lucille_ray import parse
    from lucille_ray.search import SegmentScorer
    from workloads import K, TIMEOUT, typeahead

    h, eng = w.h, w.engine
    m: Dict[str, float] = {}
    probes = unseen_probes(w, PROBES_PER_SHAPE)

    # executors by shape class: first answer of each probe on the engine
    for shape, qs in probes.items():
        lat = []
        for q in qs:
            ast = parse(q.text)
            if shape == "typeahead":
                ast = typeahead(ast)
            r = h.op("engine.search", TIMEOUT["engine.search"], eng.search, ast, k=K)
            if r.ok:
                lat.append(r.seconds * 1e3)
        m[f"shape.{shape}.p50_ms"] = median(lat) if lat else 0.0
        m[f"shape.{shape}.max_ms"] = max(lat) if lat else 0.0

    flat = [q for qs in unseen_probes(w, PLAN_PROBES_PER_SHAPE).values() for q in qs]
    asts = [typeahead(parse(q.text)) if q.shape == "typeahead" else parse(q.text)
            for q in flat]

    # planner: p50 of SearchEngine.plan on queries it has not planned yet
    plans, plan_ms = [], []
    for ast in asts:
        r = h.op("engine.plan", TIMEOUT["engine.plan"], eng.plan, ast)
        if r.ok:
            plans.append(r.value)
            plan_ms.append(r.seconds * 1e3)
    m["engine.plan_ms"] = median(plan_ms) if plan_ms else 0.0

    # one in-process scorer over the same segments, result cache off so both
    # passes run the executors: open, cold pass, warm pass
    t0 = time.perf_counter()
    local = SegmentScorer(eng.seg_dirs, result_cache=False)
    m["segment.open_ms"] = (time.perf_counter() - t0) * 1e3
    for name in ("segment.score_cold_ms", "segment.score_warm_ms"):
        t0 = time.perf_counter()
        for q, reqs, ctx in plans:
            local.score(q, reqs, ctx, K)
        m[name] = (time.perf_counter() - t0) * 1e3

    # Ray dispatch + global merge + meta join: engine search minus the
    # in-process score of the same plan, both on a repeat (cached) answer
    cached = SegmentScorer(eng.seg_dirs, result_cache=True)
    over = []
    for ast, (q, reqs, ctx) in zip(asts, plans):
        eng.search(ast, k=K)
        cached.score(q, reqs, ctx, K)
        t0 = time.perf_counter()
        eng.search(ast, k=K)
        t1 = time.perf_counter()
        cached.score(q, reqs, ctx, K)
        t2 = time.perf_counter()
        over.append(((t1 - t0) - (t2 - t1)) * 1e3)
    m["engine.overhead_ms"] = median(over) if over else 0.0

    # tracing cost: the same warm pass, alternately untraced and traced
    tr = w.tr
    walls = {False: [], True: []}
    for rep in range(4):
        on = rep % 2 == 1
        tr.enabled = on
        t0 = time.perf_counter()
        for q in flat:
            w.search(q)
        walls[on].append(time.perf_counter() - t0)
    tr.enabled = True
    off = median(walls[False])
    m["trace.overhead_pct"] = (median(walls[True]) - off) / off * 100
    return m
