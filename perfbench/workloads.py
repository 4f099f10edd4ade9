"""The benchmark's three workloads over one seeded realistic-vocabulary corpus.

Each workload is a closed loop from one process with one request in flight.
All three build an index and serve sequential ``search`` calls (``serve``
also batched ``search_many`` calls); ``ingest`` and ``churn``
also append, delete, compact and reopen, and a traced ``serve`` run makes one
small write after its timed part and its probes, so the write-path figures
exist on every workload.  What differs is the mix:

* ``serve``: a warm stream of ``search`` calls (engine defaults, result cache
  on) over a compacted index, then ``search_many`` batches on a disjoint
  stream.  Nearly all timed work is in the serving path.
* ``ingest``: ``build_index`` of a fresh, larger corpus, one ``append_index``,
  deletes and ``compact_index``, then a short burst on the new index for the
  answer checks (about two queries per shape class).  Nearly all work is in the Ray Data build operators and compaction.
* ``churn``: two cycles of append, delete, reopen and a burst of queries
  on a freshly built index, then compaction and one more burst.  Small
  appends pay fixed pipeline cost, every reopen starts with cold caches, and
  tombstoned segments take the plain evaluator for every shape.

A traced run probes the serving layers (``layers.probe_serving``) on the index
state each workload is about: the compacted index on ``serve`` and
``ingest``, the tombstoned segments before the final compaction on ``churn``.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List, Set

import numpy as np
import pyarrow as pa

import corpus as C
import layers
from checks import Oracle, compare
from harness import Harness

VOCAB_SIZE = 20_000
K = 10
BATCH_SIZE = 32
SERVE_QUERIES_PER_S = 20  # serve: sequential queries, and one batch, per --seconds
CHECK_PER_SHAPE = 1  # sampled answers checked per shape class and index state
DELETE_CALLS = 10  # a write's deletes are split into this many delete_docs calls
SETUP_REPS = 3  # index preparations per run; setup_s takes their median

TIMEOUT = {
    "engine.search": 20, "engine.search_many": 60, "engine.open": 30,
    "engine.warm": 60, "engine.shutdown": 30, "engine.plan": 20,
    "index.build": 120, "index.append": 90, "index.compact": 120,
    "index.delete": 20, "index.build_report": 30,
}

#: per-workload sizes: corpus turns, segments, append batch turns, docs deleted
#: per write, write cycles (serve's one write is the traced run's write
#: probe) and sequential queries per burst
SIZES = {
    "serve": dict(turns=3500, segments=2, append=200, deletes=20, cycles=1, burst=20),
    "ingest": dict(turns=5000, segments=2, append=400, deletes=40, cycles=1, burst=24),
    "churn": dict(turns=2500, segments=1, append=200, deletes=30, cycles=2, burst=12),
}


def ray_cpus_for(workload: str) -> int:
    """Logical CPUs: one per scorer actor the engine will hold (one per segment,
    and every append adds one, up to its default cap of 8) plus two for Ray
    Data tasks beside them."""
    s = SIZES[workload]
    return max(4, min(8, s["segments"] + s["cycles"]) + 2)


class Workload:
    def __init__(self, h: Harness):
        self.h, self.tr = h, h.tracer
        self.size = SIZES[h.workload]
        self.index_dir = os.path.join(h.work, "index")
        self.vocab = C.make_vocabulary(VOCAB_SIZE, h.seed)
        self.pool = pool = C.query_pool(self.vocab, 2000, h.seed)
        self.stream = iter(C.query_stream(pool, 5000, h.seed))
        seen = {q.text for q in pool}
        bpool = [q for q in C.query_pool(self.vocab, 1200, h.seed + 7919) if q.text not in seen]
        self.batch_stream = iter(C.query_stream(bpool, 5000, h.seed + 7919))
        self.corpora: Dict[str, tuple] = {}  # name -> (parquet dir, table)
        self.engine = None
        self.generation = 0  # engine generation; a reopen starts a new one
        self.state = 0  # index commit point; every write starts a new one
        self.turns: List[pa.Table] = []  # indexed turns, in doc-id order
        self.deleted: Set[int] = set()
        self.purged = False
        self.snapshots: Dict[int, tuple] = {}
        self.captured: Dict[int, list] = {}
        self.measuring = False
        self.pids: Dict[int, List[int]] = {}
        # measurements
        self.lat: List[float] = []
        self.seq_wall = 0.0
        self.batch_n = 0
        self.batch_wall = 0.0
        self.first_lat: List[float] = []
        self.repeat_lat: List[float] = []
        self.seen: Set[tuple] = set()
        self.build_rate: List[float] = []
        self.compact_s: List[float] = []
        self.append_s: List[float] = []
        self.delete_s: List[float] = []
        self.reopen_s: List[float] = []
        self.rss_mb: List[float] = []
        self.request_wall: Dict[int, int] = {}  # traced request id -> wall ns
        self.layer: Dict[str, float] = {}
        self.deleted_count = 0
        self.index_bytes_per_turn = 0.0

    # ---- corpus ----

    def make_corpora(self) -> None:
        """The base corpus and one append batch per write cycle; each batch's
        conversation ids follow the previous batch's."""
        s = self.size
        base = 0
        for name, turns in [("corpus", s["turns"])] + [
                (f"append{c}", s["append"]) for c in range(s["cycles"])]:
            table = C.make_turns(self.vocab, turns, self.h.seed, conv_base=base)
            path = os.path.join(self.h.work, name)
            C.write_corpus(table, path)
            self.corpora[name] = (path, table)
            base = int(table["conv_id"][-1].as_py()[1:]) + 1

    def corpus_stats(self) -> dict:
        tables = [t for _, t in self.corpora.values()]
        stats = C.corpus_stats(pa.concat_tables(tables)) if tables else {}
        stats["posting_rows"] = self.layer.get("build.posting_rows", 0)
        stats["vocabulary"] = VOCAB_SIZE
        return stats

    # ---- writes ----

    def build(self, path: str, table: pa.Table, segments: int) -> None:
        from lucille_ray.index import build_index, build_report
        from lucille_ray.transcripts import read_transcripts

        r = self.h.op("index.build", TIMEOUT["index.build"], lambda: build_index(
            read_transcripts(path), self.index_dir, num_segments=segments))
        if not r.ok:
            raise RuntimeError("build failed; nothing to measure")
        self.build_rate.append(table.num_rows / r.seconds)
        self.turns = [table]
        self.state += 1
        rep = self.h.op("index.build_report", TIMEOUT["index.build_report"],
                        build_report, self.index_dir).value
        if rep is not None:
            m = rep.get("build_metrics") or {}
            segs = [v for k, v in m.items() if k.startswith("segment_")]
            enc = [s.get("remote_cpu_sec", 0.0) for s in rep["stage_totals"]
                   if "_TokenizeEncode" in s["operator"]]
            self.layer.update({
                "build.docmap_s": m.get("docmap_sec", 0.0),
                "build.segment_max_s": max(segs) if segs else 0.0,
                "build.tokenize_encode_cpu_s": sum(enc),
                "build.posting_rows": rep["totals"]["posting_rows"],
            })

    def append(self, path: str, table: pa.Table) -> None:
        from lucille_ray.index import append_index
        from lucille_ray.transcripts import read_transcripts

        r = self.h.op("index.append", TIMEOUT["index.append"],
                      lambda: append_index(read_transcripts(path), self.index_dir))
        if r.ok:
            self.append_s.append(r.seconds)
            self.turns.append(table)
            self.state += 1

    def delete(self, count: int, salt: int) -> None:
        from lucille_ray.index import delete_docs

        total = sum(t.num_rows for t in self.turns)
        rng = np.random.default_rng([self.h.seed, 5, salt])
        live = np.setdiff1d(np.arange(total), np.fromiter(self.deleted, np.int64))
        pick = rng.choice(live, size=min(count, live.size), replace=False)
        for part in np.array_split(pick, DELETE_CALLS):
            r = self.h.op("index.delete", TIMEOUT["index.delete"],
                          delete_docs, self.index_dir, part.tolist())
            if r.ok:
                self.delete_s.append(r.seconds)
                self.deleted_count += int(r.value)
                self.deleted.update(int(d) for d in part)
        self.state += 1

    def compact(self) -> None:
        from lucille_ray.index import build_report, compact_index

        t0 = time.time()
        r = self.h.op("index.compact", TIMEOUT["index.compact"], compact_index, self.index_dir)
        if not r.ok:
            return
        self.compact_s.append(r.seconds)
        if self.deleted:
            self.purged = True
        self.state += 1
        # compaction records no per-segment time; each segment's manifest is
        # rewritten when that segment finishes, so its mtime marks the end
        seg_root = os.path.join(self.index_dir, "segments")
        ends = [os.path.getmtime(os.path.join(seg_root, d, "MANIFEST.json")) - t0
                for d in os.listdir(seg_root)]
        self.layer["compact.segment_max_s"] = max(ends)
        rep = self.h.op("index.build_report", TIMEOUT["index.build_report"],
                        build_report, self.index_dir).value
        if rep is not None:
            self.layer["compact.posting_rows_out"] = rep["totals"]["posting_rows"]
            if not self.index_bytes_per_turn:
                turns = sum(t.num_rows for t in self.turns)
                self.index_bytes_per_turn = rep["totals"]["index_bytes"] / turns

    # ---- engine ----

    def open_engine(self, warm: bool) -> None:
        """Open a fresh engine.  With ``warm``: construct plus ``warm()``, as a
        server does before taking traffic.  Without: time from the last
        write's commit to the first answer of the new engine (reopen)."""
        from lucille_ray.search import SearchEngine

        t0 = time.perf_counter()
        if self.engine is not None:
            self.h.op("engine.shutdown", TIMEOUT["engine.shutdown"], self.engine.shutdown)
            self.engine = None
        r = self.h.op("engine.open", TIMEOUT["engine.open"], SearchEngine, self.index_dir)
        if not r.ok:
            raise RuntimeError("engine did not open")
        self.engine = r.value
        self.generation += 1
        if warm:
            self.h.op("engine.warm", TIMEOUT["engine.warm"], self.engine.warm)
            self.layer["engine.spawn_ms"] = (time.perf_counter() - t0) * 1e3
        else:
            measuring, self.measuring = self.measuring, False
            self.search(next(self.stream))
            self.measuring = measuring
            self.reopen_s.append(time.perf_counter() - t0)
        self.sample_rss()

    def sample_rss(self) -> None:
        """Sum of the scorer actors' resident set sizes, read from /proc."""
        import ray

        actors = getattr(self.engine, "_actors", None) or []
        if self.generation not in self.pids and actors:
            self.pids[self.generation] = ray.get(
                [a.__ray_call__.remote(lambda _self: os.getpid()) for a in actors],
                timeout=30)
        kb = 0
        for pid in self.pids.get(self.generation, []):
            try:
                with open(f"/proc/{pid}/status") as fh:
                    kb += next(int(l.split()[1]) for l in fh if l.startswith("VmRSS:"))
            except (OSError, StopIteration):
                pass
        if kb:
            self.rss_mb.append(kb / 1024)

    # ---- reads ----

    def search(self, q: C.Query) -> None:
        from lucille_ray import parse

        eng, tr = self.engine, self.tr
        if tr.enabled:
            # the request's wall time, taken outside the tracer, against which
            # its spans' self times are checked (trace.request_gap_pct)
            t0 = time.perf_counter_ns()
            with tr.span("search.request", shape=q.shape) as req:
                with tr.span("query.parse"):
                    ast = parse(q.text)
                if q.shape == "typeahead":
                    with tr.span("query.map_last_term"):
                        ast = typeahead(ast)
                r = self.h.op("engine.search", TIMEOUT["engine.search"], eng.search, ast, k=K)
            self.request_wall[req.request] = time.perf_counter_ns() - t0
        elif q.shape == "typeahead":
            r = self.h.op("engine.search", TIMEOUT["engine.search"], eng.suggest, q.text, k=K)
        else:
            r = self.h.op("engine.search", TIMEOUT["engine.search"], eng.search, q.text, k=K)
        if not r.ok:
            return
        docs = r.value["doc_id"].to_numpy()
        self._check_deleted(q.text, docs)
        key = (self.generation, q.text)
        first = key not in self.seen
        self.seen.add(key)
        if self.measuring:
            self.lat.append(r.seconds)
            (self.first_lat if first else self.repeat_lat).append(r.seconds)
        self._capture(q, docs, r.value["score"].to_numpy())

    def search_burst(self, n: int) -> None:
        for _ in range(n):
            self.search(next(self.stream))

    def search_batch(self, n_batches: int) -> None:
        from lucille_ray import parse

        for _ in range(n_batches):
            batch = [next(self.batch_stream) for _ in range(BATCH_SIZE)]
            items = [typeahead(parse(q.text)) if q.shape == "typeahead" else q.text
                     for q in batch]
            r = self.h.op("engine.search_many", TIMEOUT["engine.search_many"],
                          self.engine.search_many, items, k=K)
            if not r.ok:
                continue
            if self.measuring:
                self.batch_n += len(batch)
                self.batch_wall += r.seconds
            for q, (docs, scores) in zip(batch, r.value):
                self._check_deleted(q.text, docs)
                self._capture(q, docs, scores)

    # ---- answer checks ----

    def _check_deleted(self, text: str, docs: np.ndarray) -> None:
        if self.deleted and not self.purged:
            bad = [int(d) for d in docs if int(d) in self.deleted]
            if bad:
                self.h.wrong_answer(f"{text!r} returned deleted docs {bad[:5]}")

    def _capture(self, q: C.Query, docs, scores) -> None:
        got = self.captured.setdefault(self.state, [])
        if sum(1 for c in got if c[0].shape == q.shape) >= CHECK_PER_SHAPE:
            return
        if any(c[0].text == q.text for c in got):
            return
        got.append((q, np.asarray(docs), np.asarray(scores)))
        if self.state not in self.snapshots:
            self.snapshots[self.state] = (list(self.turns), set(self.deleted), self.purged)

    def check_answers(self) -> None:
        """Compare every captured answer with the brute-force oracle over the
        index state it was served from (outside all timed phases)."""
        from lucille_ray import parse

        for state, got in sorted(self.captured.items()):
            turns, deleted, purged = self.snapshots[state]
            table = pa.concat_tables(turns)
            ids = np.arange(table.num_rows)
            if purged:
                keep = ~np.isin(ids, np.fromiter(deleted, np.int64))
                table, ids, deleted = table.filter(pa.array(keep)), ids[keep], set()
            oracle = Oracle(table, ids, deleted)
            for q, docs, scores in got:
                ast = parse(q.text)
                if q.shape == "typeahead":
                    ast = typeahead(ast)
                why = compare(docs, scores, oracle.top_k(ast, K))
                if why:
                    self.h.wrong_answer(f"state {state} {q.shape} {q.text!r}: {why}")
        self.h.meta["answers_checked"] = sum(len(g) for g in self.captured.values())

    # ---- plans ----

    def write(self, cycle: int) -> None:
        self.append(*self.corpora[f"append{cycle}"])
        self.delete(self.size["deletes"], cycle)

    def probe(self) -> None:
        """In a traced run, the serving-layer probes on the current index."""
        if not self.tr.enabled:
            return
        if "engine.spawn_ms" not in self.layer:
            self.open_engine(warm=True)
        self.layer.update(layers.probe_serving(self))


def typeahead(ast):
    """The search-as-you-type rewrite ``SearchEngine.suggest`` applies."""
    from lucille_ray.query import nodes as qn

    return ast.map_last_term(lambda t: qn.Or(qn.Term(t.value), qn.Prefix(t.value)))


# ---------------------------------------------------------------------------
# the three plans
# ---------------------------------------------------------------------------


def warm_pool(w: Workload) -> float:
    """Start Ray Data's worker processes before anything is timed: the first
    build otherwise pays worker spawn, about twice its steady time."""
    import ray.data

    t0 = time.perf_counter()
    ray.data.range(4000, override_num_blocks=4).map_batches(
        lambda b: b, batch_format="pyarrow").materialize()
    w.layer["build.worker_warm_s"] = dt = time.perf_counter() - t0
    return dt


def setup(w: Workload, build: bool, compact: bool) -> float:
    """Warm the worker pool once, then prepare the index the timed part needs
    SETUP_REPS times over: generate the corpora and, with ``build``, build
    (and compact) a fresh index; each repeat but the last is thrown away.
    With ``build``, then open a warm engine on it.  Returns the warm-up time,
    plus the median preparation time, plus the engine's open and warm."""
    warm_s = warm_pool(w)
    reps = []
    for rep in range(SETUP_REPS):
        if rep and build:
            shutil.rmtree(w.index_dir)
        t0 = time.perf_counter()
        w.make_corpora()
        if build:
            path, table = w.corpora["corpus"]
            w.build(path, table, w.size["segments"])
            if compact:
                w.compact()
        reps.append(time.perf_counter() - t0)
    w.h.meta["setup_reps_s"] = [round(x, 3) for x in reps]
    spawn_s = 0.0
    if build:
        t0 = time.perf_counter()
        w.open_engine(warm=True)
        spawn_s = time.perf_counter() - t0
    return warm_s + float(np.median(reps)) + spawn_s


def measured_reads(w: Workload, n_seq: int, n_batches: int = 0) -> None:
    w.measuring = True
    t0 = time.perf_counter()
    w.search_burst(n_seq)
    w.seq_wall += time.perf_counter() - t0
    w.search_batch(n_batches)
    w.measuring = False


def serve(w: Workload) -> float:
    setup_s = setup(w, build=True, compact=True)
    # a fixed amount of work per --seconds, not a deadline: a slow box then
    # runs the same queries (same cache hits and misses), only slower
    measured_reads(w, SERVE_QUERIES_PER_S * w.h.seconds, w.h.seconds)
    w.probe()
    return setup_s


def write_probe(w: Workload) -> None:
    """One small write, reopen and burst after the workload and its probes,
    for the traced run of a workload that writes nothing itself, so that
    every workload reports the write-path figures; it also checks deleted
    docs stay hidden."""
    w.write(0)
    w.open_engine(warm=False)
    w.search_burst(w.size["burst"])


def ingest(w: Workload) -> float:
    setup_s = setup(w, build=False, compact=False)
    path, table = w.corpora["corpus"]
    w.build(path, table, w.size["segments"])
    w.write(0)
    w.compact()
    w.open_engine(warm=False)
    measured_reads(w, w.size["burst"])
    w.probe()
    return setup_s


def churn(w: Workload) -> float:
    # the freshly built index is served uncompacted until the final compaction
    setup_s = setup(w, build=True, compact=False)
    for cycle in range(w.size["cycles"]):
        w.write(cycle)
        w.open_engine(warm=False)
        measured_reads(w, w.size["burst"])
    w.probe()  # on the tombstoned segments
    w.compact()
    w.open_engine(warm=False)
    measured_reads(w, w.size["burst"])
    return setup_s


PLANS = {"serve": serve, "ingest": ingest, "churn": churn}
