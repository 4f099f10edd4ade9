"""Top-k search over a built index: global-stats coordination + per-segment scoring
with actor-pool parallelism.

Execution model (north_star): segment shards are *pinned* — each scorer actor loads
its segments' norms/stats once in ``__init__`` and keeps posting reads warm across
queries, which is why this is one of the few places the engine drops below the
Dataset API to raw Ray actors (a ``map_batches`` actor pool is rebuilt per Dataset
execution, exactly what a query path must avoid; see SURVEY.md §2.E). Segments are
packed onto actors by :func:`slice_groups` (Lucene's ``IndexSearcher.slices``):
small segments share one actor, so a tiny append does not pay a whole scorer
process.

Per query:
  1. driver parses/compiles the AST and collects term requests (tiny, broadcast);
  2. each scorer resolves dictionary expansions + local dfs on its segments;
  3. the local dfs merge to *global* df / N / avgdl (BM25 is then rank-identical
     to a single-node build — the cross-segment idf contract): on the driver
     in :meth:`SearchEngine.plan_many`, or on every scorer itself in the folded
     :meth:`SegmentScorer.resolve_score` trip;
  4. each scorer evaluates vectorized posting algebra -> local top-k;
  5. driver merges k*segments rows -> global top-k (score desc, doc_id asc).

The in-process scorer and the Ray actors run this protocol through the same
code: every fan-out goes through one submit/gather pair
(:meth:`SearchEngine._submit` / :meth:`SearchEngine._gather`). The driver
caches global dfs and expansions per commit point, so :meth:`SearchEngine.search`
takes one round-trip either way: a plan-cache hit runs steps 4-5, a miss runs
steps 2-5 in one folded ``resolve_score`` trip. For bulk query workloads,
:meth:`SearchEngine.search_many` amortizes steps 2/4 over a whole query batch
per round-trip.

Scorer actors are :class:`_ScorerActor` processes, which refuse to import
pandas: no scorer code uses it, yet pyarrow would load it lazily on its first
numpy conversion, and it was the largest single part of a scorer process.
The driver, in-process scorers and Ray Data workers keep pandas.

A scorer process loads only what scoring runs: this module, the readers
(``index.segment``, ``index.codec``, ``index.commit``), the executors, the
query AST (``query.nodes``), numpy and ``pyarrow.parquet``. None of
:data:`SCORER_UNLOADED` loads there: the package ``__init__`` files load
their names on first use, the parser and the writers (``compact``,
``build``) load only in driver code here, and the readers select and order
postings rows with numpy, not with Arrow's compute kernels. On the serve
benchmark (Ray at 5 logical CPUs) a bare Ray actor holds 121 MB after its
first call. A scorer that also loaded every submodule of the index and
search packages held 148 MB: ``pyarrow.compute`` alone costs 7.3 MB in a
fresh actor (about 3 MB once Parquet reads have loaded libarrow), and the
writers, ``report``, ``oracle``, ``batch``, the parser and the printer were
the rest of what it imported and never ran. A scorer that loads only the
serving path holds 144 MB.
"""

from __future__ import annotations

import importlib.abc
import sys
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import pyarrow as pa

from ..index import commit
from ..index.codec import numeric_array
from ..index.segment import SegmentReader, check_layout, read_manifest
from ..query import nodes as qn
from .bmconj import conj_parts_compound, conj_top_k_compound
from .bmphrase import phrase_parts, phrase_top_k
from .eval import (
    EvalContext,
    ExpansionSpec,
    MAX_EXPANSIONS,
    SegmentEval,
    TermRequests,
    collect_term_requests,
    top_k,
)
from .wand import single_term_top_k, term_parts, wand_parts, wand_top_k

QueryLike = Union[str, qn.Query]

#: modules a scorer process never loads (module docstring): Arrow's compute
#: kernels and the modules that load with them, pandas, the index writers
#: and tools, and the search modules scoring never runs
SCORER_UNLOADED = (
    "pyarrow.compute", "pyarrow.dataset", "pyarrow.acero", "pandas",
    *(f"lucille_ray.index.{m}"
      for m in ("build", "compact", "delete", "report", "verify", "writer")),
    "lucille_ray.search.batch", "lucille_ray.search.oracle",
)


def _as_query(query: QueryLike) -> qn.Query:
    """``query`` parsed when it is a string. The parser loads here, on the
    driver: scorers receive ASTs."""
    if isinstance(query, str):
        from ..query.parser import parse

        return parse(query)
    return query

#: Per-segment top-k routing: (shape matcher, executor) rows, first match wins.
#: ``matcher(query, ctx)`` runs once per query and returns (executor keyword
#: args, root Boost weights outermost-first) or None; ``executor(reader, ctx,
#: k=k, **args)`` returns the segment's exact top-k with unboosted root scores,
#: or None to decline the segment. Every executor is top-k selection under
#: per-block score upper bounds, rank+score-identical to SegmentEval, which
#: answers everything no row takes (k=None, declines). Tombstoned segments
#: take their row too: ``SegmentReader.decode`` drops deleted docs wherever
#: an executor decodes.
#: Tests pin the plain evaluator by substituting ``()`` for this table.
TOP_K_ROUTES = (
    (wand_parts, wand_top_k),  # Or, MinimumMatch, expansions of >= 2 terms
    (conj_parts_compound, conj_top_k_compound),  # And of terms / ORs of terms
    (phrase_parts, phrase_top_k),  # Phrase, Proximity, analyzer-split Term
    (term_parts, single_term_top_k),  # Term, expansions of 1 term
)

#: Slice packing: a scorer actor takes segments, in doc order, until it holds
#: ``compact.SLICE_DOCS`` docs (the one meaning of a small segment: a smaller
#: segment on its own actor is almost all process overhead) or
#: SLICE_SEGMENTS segments; 5 is Lucene's ``MAX_SEGMENTS_PER_SLICE``,
#: bounding how many tiny segments one actor scores in sequence.
SLICE_SEGMENTS = 5


def slice_groups(
    seg_dirs: Sequence[str], doc_counts: Sequence[int], max_groups: int
) -> List[List[str]]:
    """Pack segments into at most ``max_groups`` scorer groups.

    Walk the segments in doc order; start a new group when the current one
    holds ``compact.SLICE_DOCS`` docs or more, or :data:`SLICE_SEGMENTS`
    segments. More groups than ``max_groups`` fold round-robin (group i goes
    to actor i % max_groups), so every actor's segments stay in doc order;
    when every segment holds SLICE_DOCS docs or more, this is one segment per
    group, dealt round-robin under the same cap. Answers do not depend on
    the grouping: each actor returns its local top-k and the driver merges by
    (score desc, doc_id asc)."""
    from ..index import compact

    groups: List[List[str]] = []
    docs = 0
    for d, n in zip(seg_dirs, doc_counts):
        if not groups or docs >= compact.SLICE_DOCS or len(groups[-1]) >= SLICE_SEGMENTS:
            groups.append([])
            docs = 0
        groups[-1].append(d)
        docs += n
    n_groups = min(len(groups), max(1, max_groups))
    folded: List[List[str]] = [[] for _ in range(n_groups)]
    for i, g in enumerate(groups):
        folded[i % n_groups].extend(g)
    return folded


def _wants_rows(k: int) -> bool:
    """Whether a top-k entry point's ``k`` asks for any rows: False for 0,
    a ValueError for a negative k (the executors and ``top_k`` assume
    k >= 1)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got k={k}")
    return k > 0


def _no_rows() -> Tuple[np.ndarray, np.ndarray]:
    return np.empty(0, np.int64), np.empty(0, np.float64)


def _merge_ctx(
    resolved_list: list, n_docs: int, avgdl: Dict[str, float]
) -> Tuple[EvalContext, Dict[Tuple[str, str], int], Dict[ExpansionSpec, tuple]]:
    """Merge per-scorer resolve outputs into a global EvalContext.

    Shared by the driver's :meth:`SearchEngine.plan_many` and the
    scorer-side :meth:`SegmentScorer.resolve_score` fold so both paths build
    BIT-IDENTICAL plans: df values are integer sums (order-free), expansions
    merge to ``tuple(sorted(...))``, and the cross-segment MAX_EXPANSIONS
    bound is enforced before anything is returned."""
    expanded: Dict[ExpansionSpec, set] = {}
    df: Dict[Tuple[str, str], int] = {}
    for exp, dfs in resolved_list:
        for spec, terms in exp.items():
            expanded.setdefault(spec, set()).update(terms)
        for key, v in dfs.items():
            df[key] = df.get(key, 0) + v
    for spec, terms in expanded.items():
        # per-scorer resolve bounds each SEGMENT's expansion; the documented
        # maxClauseCount-style bound applies to the cross-segment union too
        if len(terms) > MAX_EXPANSIONS:
            raise ValueError(
                f"{spec.kind} expansion exceeds {MAX_EXPANSIONS} terms "
                f"across segments ({len(terms)})"
            )
    expanded_t = {s: tuple(sorted(v)) for s, v in expanded.items()}
    ctx = EvalContext(n_docs=n_docs, avgdl=avgdl, df=df, expanded=expanded_t)
    return ctx, df, expanded_t


class SegmentScorer:
    """Scores queries over a group of pinned segments, in-process or, through
    :class:`_ScorerActor`, as a Ray actor."""

    def __init__(
        self,
        seg_dirs: Sequence[str],
        result_cache: bool = True,
        tombstones: Optional[Sequence[Optional[str]]] = None,
    ):
        self.result_cache = result_cache
        # the tombstone paths of the caller's commit; given directories
        # alone, those the current commit names
        if tombstones is None:
            tombstones = commit.tombstone_paths(seg_dirs)
        # a reader loads its norms and pins its postings handles when it
        # opens: at actor startup, not in the first query's tail latency
        self.readers = [SegmentReader(d, t) for d, t in zip(seg_dirs, tombstones)]

    def local_stats(self) -> dict:
        # live (post-purge) counts when a compaction recorded them; identical
        # to maxDoc counts otherwise — tombstoned-but-unpurged docs still
        # count, which is what keeps survivor scores stable across a delete
        out = {"n_docs": 0, "total_dl": {}}
        for r in self.readers:
            out["n_docs"] += r.live_docs
            for f in r.stats.get("fields", {}):
                out["total_dl"][f] = out["total_dl"].get(f, 0) + r.live_total_dl(f)
        return out

    def resolve(
        self, reqs: TermRequests
    ) -> Tuple[Dict[ExpansionSpec, Tuple[str, ...]], Dict[Tuple[str, str], int]]:
        """Expand dictionary specs and collect local dfs for all needed terms."""
        expanded: Dict[ExpansionSpec, set] = {s: set() for s in reqs.expansions}
        for spec in reqs.expansions:
            for r in self.readers:
                terms, _ = r.term_dict(spec.field)
                if terms.size == 0:
                    continue
                hits = spec.resolve_against(terms)  # binary-search windows, not scans
                if hits.size > MAX_EXPANSIONS:
                    raise ValueError(
                        f"{spec.kind} expansion exceeds {MAX_EXPANSIONS} terms"
                    )
                expanded[spec].update(hits.tolist())
        needed: Dict[str, set] = {}
        for f, t in reqs.exact:
            needed.setdefault(f, set()).add(t)
        for spec, terms in expanded.items():
            needed.setdefault(spec.field, set()).update(terms)
        dfs: Dict[Tuple[str, str], int] = {}
        for f, terms in needed.items():
            for r in self.readers:
                for t, df in r.dfs(f, sorted(terms)).items():
                    dfs[(f, t)] = dfs.get((f, t), 0) + df
        return {s: tuple(sorted(v)) for s, v in expanded.items()}, dfs

    def score(
        self, query: qn.Query, reqs: TermRequests, ctx: EvalContext, k: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate across this scorer's segments; local top-k unless ``k`` is
        None (match-all / corpus-filtering mode). A finite-k query whose shape
        matches a :data:`TOP_K_ROUTES` row takes that row's block-max executor
        (exact by construction) on every segment, deleted docs or not;
        ``k=None`` and any segment the executor declines take the plain
        evaluator."""
        route = None
        if k is not None:
            for matcher, executor in TOP_K_ROUTES:
                match = matcher(query, ctx)
                if match is not None:
                    route = (executor, *match)
                    break
        # per-reader exact top-k ``result`` pool: a reader serves one commit point
        # (tombstones load in __init__), so (query AST, k) fully determines the
        # answer; a cached K >= k answers by prefix since top_k output is
        # (score desc, doc_id asc) ordered. Keyed by repr(query), NOT
        # print_query — the printer rounds boosts to 2 decimals, which would
        # collide distinct queries. Gated by the constructor flag; bench
        # latency stages pin it off so official qps stays a scoring
        # measurement.
        qkey = repr(query) if k is not None and self.result_cache else None
        all_docs, all_scores = [], []
        for r in self.readers:
            if r.doc_count == 0:
                continue
            if qkey is not None:
                hit = r.cache.get("result", qkey)
                if hit is not None and hit[0] >= k:
                    docs, scores = hit[1][:k], hit[2][:k]
                    if docs.size:
                        all_docs.append(docs)
                        all_scores.append(scores)
                    continue
            got = None
            if route is not None:
                executor, args, weights = route
                got = executor(r, ctx, k=k, **args)
            if got is None:
                docs, scores = SegmentEval(r, ctx, reqs, query=query).eval(query)
            else:
                docs, scores = got
                # innermost-first: eval's nested Boost multiply order
                for w in reversed(weights):
                    scores = scores * w
            if docs.size and k is not None:
                docs, scores = top_k(docs, scores, k)
            if qkey is not None:
                r.cache.put("result", qkey, (k, docs, scores))
            if docs.size:
                all_docs.append(docs)
                all_scores.append(scores)
        if not all_docs:
            return _no_rows()
        docs = np.concatenate(all_docs)
        scores = np.concatenate(all_scores)
        if k is not None:
            return top_k(docs, scores, k)
        order = np.argsort(docs, kind="stable")
        return docs[order], scores[order]

    def cache_stats(self) -> Dict[str, dict]:
        """{segment dir: its reader's ``ReaderCache.stats()`` pools, plus
        ``postings_read``: what its cold lookups read from the postings files
        (``SegmentReader.postings_read``)}."""
        return {
            r.seg_dir: {**r.cache.stats(), "postings_read": dict(r.postings_read)}
            for r in self.readers
        }

    def score_many(self, items: List[tuple]) -> List[tuple]:
        """[(query, reqs, ctx, k)] -> [(docs, scores)] — one round-trip per batch."""
        return [self.score(*item) for item in items]

    def resolve_score(
        self,
        query: qn.Query,
        reqs: TermRequests,
        resolved: list,
        k: Optional[int],
        n_docs: int,
        avgdl: Dict[str, float],
        with_meta: bool = False,
    ):
        """Folded resolve+score: ONE driver round-trip for a query the
        driver cannot plan from its caches.

        ``resolved`` holds every set member's ``resolve`` output: the values
        themselves in-process, ObjectRefs on actors (submitted by the driver
        immediately before this call, WITHOUT blocking on them). Each scorer
        merges the global df/expansions itself via :func:`_merge_ctx` —
        integer sums and sorted tuples, so every scorer derives the identical
        EvalContext. Deadlock-free by actor FIFO: the resolve tasks were
        enqueued ahead of this call on every actor in the set, so the refs
        this call blocks on can only be pending on actors that will run them
        before their own ``resolve_score``. Returns (docs, scores, df,
        expanded, meta) — df/expanded let the driver refill its plan caches
        without another trip; ``with_meta`` piggybacks this scorer's local
        top-k metadata rows (else meta is None)."""
        if resolved and not isinstance(resolved[0], tuple):  # ObjectRefs
            import ray

            resolved = ray.get(list(resolved))
        ctx, df, expanded = _merge_ctx(resolved, n_docs, avgdl)
        docs, scores = self.score(query, reqs, ctx, k)
        meta = self.doc_meta(docs) if with_meta and docs.size else None
        return docs, scores, df, expanded, meta

    def score_meta(
        self, query: qn.Query, reqs: TermRequests, ctx: EvalContext,
        k: Optional[int],
    ):
        """score + this scorer's local top-k metadata in one round-trip (the
        with_meta single-query path paid a third doc_meta round-trip; the
        local top-k union is a superset of the global top-k, so k rows per
        scorer always cover the final table)."""
        docs, scores = self.score(query, reqs, ctx, k)
        meta = self.doc_meta(docs) if docs.size else None
        return docs, scores, meta

    def match_all_table(
        self, query: qn.Query, reqs: TermRequests, ctx: EvalContext,
        with_meta: bool = False,
    ) -> pa.Table:
        """This scorer's segments' full match set as ONE Arrow table (doc_id
        ascending) — the block the streaming corpus filter hands to Ray Data.
        The metadata rows line up with ``docs`` (:meth:`doc_meta` keeps their
        order), so no join: Arrow's joins and sorts load its compute kernels
        and acero, which a scorer process does without."""
        docs, scores = self.score(query, reqs, ctx, None)
        score = numeric_array(scores.astype(np.float64))
        if with_meta and docs.size:
            return self.doc_meta(docs).append_column("score", score)
        return pa.table({"doc_id": numeric_array(docs.astype(np.int64)), "score": score})

    def doc_meta(self, doc_ids: np.ndarray) -> pa.Table:
        """(doc_id, conv_id, turn_idx) of ``doc_ids``, in their order when
        they ascend (readers hold their segments in doc order)."""
        tables = []
        for r in self.readers:
            lo, hi = r.doc_base, r.doc_base + r.doc_count
            mine = doc_ids[(doc_ids >= lo) & (doc_ids < hi)]
            if mine.size:
                tables.append(r.doc_meta(mine))
        if not tables:
            # from buffers: pa.array and Schema.empty_table load pandas
            return pa.table({
                "doc_id": numeric_array(np.empty(0, np.int64)),
                "conv_id": pa.Array.from_buffers(pa.string(), 0, [
                    None, pa.py_buffer(np.zeros(1, np.int32)), pa.py_buffer(b"")]),
                "turn_idx": numeric_array(np.empty(0, np.int32)),
            })
        return pa.concat_tables(tables)


class _RefusePandas(importlib.abc.MetaPathFinder):
    """Import finder that fails every import of ``pandas`` and ``pandas.*``."""

    def find_spec(self, name, path=None, target=None):
        if name == "pandas" or name.startswith("pandas."):
            raise ImportError(
                f"{name}: scorer actors do not load pandas, search/engine.py "
                "(_ScorerActor)",
                name=name,
            )
        return None


class _ScorerActor(SegmentScorer):
    """The Ray actor form of :class:`SegmentScorer`: the same scorer in a
    process that never loads pandas, nor anything else of
    :data:`SCORER_UNLOADED` (module docstring: on the serve benchmark a
    bare Ray actor is 121 MB and a scorer of the serving path alone 144
    MB, against 148 MB with ``pyarrow.compute`` and the writer modules
    loaded). The driver sends it parsed queries and plans, so it never
    loads the parser either.

    No scorer code uses pandas, but pyarrow imports it lazily on its first
    Python/numpy conversion (``pa.scalar`` of a str, ``to_numpy``), and that
    import was the largest single part of a scorer process (194 MB on the
    serve benchmark, 157 MB without it). Before any Arrow work, ``__init__``
    puts :class:`_RefusePandas` first on ``sys.meta_path``:

    * a finder, not ``sys.modules["pandas"] = None``: pyarrow's Cython import
      fast path hands that ``None`` entry back to its pandas shim, which
      then fails with ``AttributeError`` on the first ``pa.array``; an
      ``ImportError`` is what the shim expects, and it records that pandas
      is absent;
    * only when pandas is not loaded yet: a worker that Ray hands over with
      pandas already imported keeps it and gains nothing;
    * scorer code that needs pandas fails loudly with the finder's named
      ``ImportError``; the driver, in-process scorers and Ray Data workers
      keep pandas.

    pyarrow's C++ side retries the refused import (about 10 us each) on
    every Arrow-to-numpy conversion until one succeeds, so scorer code reads
    integer Arrow columns through ``codec.int64_column`` instead."""

    def __init__(self, *args, **kwargs):
        if "pandas" not in sys.modules:
            sys.meta_path.insert(0, _RefusePandas())
            import ray.util

            # Ray's reducer for Arrow tables imports ray.air, and with it
            # pandas: return tables through pyarrow's own pickling instead
            # (it sends a sliced array's whole buffers; the tables scorers
            # return are built fresh, never slices of larger arrays)
            ray.util.deregister_serializer(pa.Table)
        super().__init__(*args, **kwargs)


class SearchEngine:
    """Query entry point over an index directory.

    ``parallel="auto"`` uses one Ray actor per segment group when Ray is
    initialized and the index holds more than one segment as build and
    append wrote them (:func:`~..index.compact.written_segments`: a merge
    changes how the index is stored, not how it is served);
    ``parallel=False`` scores in-process (tests / tiny indexes). Groups come
    from :func:`slice_groups`: small segments share an actor, at most
    ``min(8, CPUs)`` actors per replica set.

    Both engines run the same plan, search and batch code: every fan-out to
    the scorers goes through :meth:`_submit` and :meth:`_gather`, the only
    code (with :meth:`_scorer_sets`, which builds the scorers, and
    :meth:`match_all_stream`, which hands Ray Data either tables or refs)
    that tells an in-process scorer from an actor. Actors are
    :class:`_ScorerActor` processes, which run without pandas; a ``to_pandas``
    on the driver or in Ray Data (``match_all_stream``) still works.
    """

    def __init__(
        self,
        index_dir: str,
        *,
        parallel: Union[bool, str] = "auto",
        replicas: int = 1,
        result_cache: bool = True,
    ):
        # per-reader exact top-k result cache, handed to every scorer
        self._result_cache = result_cache
        self.index_dir = index_dir
        # the segments of the current commit, in doc order: a failed write's
        # uncommitted leftovers are invisible (index/commit.py)
        self.meta = commit.read(index_dir)
        self.seg_dirs = commit.segment_dirs(index_dir, self.meta)
        self._tombstones = {d: commit.tombstone_path(index_dir, s)
                            for d, s in zip(self.seg_dirs, self.meta["segments"])}
        # an older layout fails here, not in the first query's scorers
        for d, s in zip(self.seg_dirs, self.meta["segments"]):
            if s.hi > s.lo:
                check_layout(d, self.meta["fields"])
        if parallel == "auto":
            from ..index import compact

            try:
                import ray

                parallel = ray.is_initialized() and sum(
                    compact.written_segments(read_manifest(d)) for d in self.seg_dirs) > 1
            except ImportError:
                parallel = False
        self.parallel = bool(parallel)
        self._actors = None
        # replica sets: each set holds EVERY segment, so any set answers any
        # query — batch serving round-robins across sets (shard replication,
        # the standard QPS-scaling lever; on a cluster each set lands on
        # different nodes). replicas=1 is exactly the old single-set engine.
        # In-process there is one set of one scorer.
        self._replicas = max(1, int(replicas))
        self._sets: Optional[List[list]] = None
        self._rr = 0
        # batch-serving mode: "striped" fans a search_many batch across every
        # replica set; "single" serves each batch from one (round-robined)
        # set. calibrate() benchmark-gates this — a replica pool that loses
        # to one set under contention must fall back (VERDICT r03 #1).
        self._mode = "striped"
        self._stats_cache = None
        # driver-side term-stats cache (Lucene caches per-searcher term stats
        # the same way): (field, term) -> global df, 0 = known-absent. Filled
        # by every resolve; a query whose exact terms are all cached and that
        # needs no dictionary expansion skips the resolve round-trip entirely.
        # Valid because an open engine serves ONE commit point (same
        # assumption as _stats_cache); reopen after append/delete/compact.
        self._df_cache: Dict[Tuple[str, str], int] = {}
        # expansion memo: spec -> cross-segment sorted term tuple, exactly as
        # _merge_ctx produced it. Same commit-point validity as _df_cache;
        # lets repeat dictionary-expansion queries (prefix/fuzzy/range/…)
        # plan resolve-free like exact-term queries do (round 5).
        self._exp_cache: Dict[ExpansionSpec, tuple] = {}

    # ---- scorer management ----

    def _scorer_sets(self) -> List[list]:
        """All replica sets; each set covers every committed segment."""
        if self._sets is None and not self.parallel:
            self._sets = [[SegmentScorer(self.seg_dirs, self._result_cache,
                                         list(self._tombstones.values()))]]
        if self._sets is None:
            import ray

            # each scorer is a 1-CPU actor: more actors than the cluster has
            # CPUs would leave some PENDING and the first query waiting on
            # them forever, so a small session puts more segments per actor
            cpus = int(ray.cluster_resources().get("CPU", 1))
            # doc counts from the commit: the driver opens no segment
            counts = [s.hi - s.lo for s in self.meta["segments"]]
            live = slice_groups(self.seg_dirs, counts, min(8, cpus))
            Actor = ray.remote(_ScorerActor)
            # each scorer is a 1-CPU actor; more replica sets than the cluster
            # can schedule would leave actors PENDING and deadlock the first
            # query (same failure shape as oversubscribed join aggregators) —
            # cap to what fits
            reps = self._replicas
            if reps > 1:
                # size from actually-SCHEDULABLE headroom, not the cluster
                # total: CPUs already pinned by other actor pools (another
                # engine, join aggregators) can't host replica scorers, and
                # over-asking leaves actors PENDING / thrashing
                res = ray.available_resources()
                # available_resources OMITS zero-quantity resources: a missing
                # 'CPU' key means zero schedulable CPUs, so the default must
                # be 0 (falling back to the cluster total would un-cap reps
                # exactly when everything is busy — the PENDING deadlock)
                avail = int(res.get("CPU", 0))
                reps = max(1, min(reps, avail // len(live)))
            # soft spread: prefer one scorer per node (segment shards read
            # independent data, so spreading buys aggregate disk/page-cache
            # bandwidth and keeps a node loss to one shard per set); falls
            # back to co-location when the cluster is a single node
            opts = {"num_cpus": 1, "scheduling_strategy": "SPREAD"}
            self._sets = [
                [Actor.options(**opts).remote(g, self._result_cache,
                                              [self._tombstones[d] for d in g])
                 for g in live]
                for _ in range(reps)
            ]
            self._actors = [a for s in self._sets for a in s]
        return self._sets

    def _scorers(self) -> list:
        """One replica set, round-robined per call (any set answers fully).
        In-process, ``[scorer]``: the one ``SegmentScorer`` over every
        segment."""
        sets = self._scorer_sets()
        s = sets[self._rr % len(sets)]
        self._rr += 1
        return s

    def _submit(self, scorers: list, method: str, *args) -> list:
        """Start ``method(*args)`` on every scorer of ``scorers``: the results
        themselves in-process, ObjectRefs (without waiting) on actors."""
        if self.parallel:
            return [getattr(s, method).remote(*args) for s in scorers]
        return [getattr(s, method)(*args) for s in scorers]

    def _gather(self, fanouts: List[list]) -> List[list]:
        """The results of several :meth:`_submit` fan-outs, nested the same
        way; on actors ONE ``ray.get`` over all of them, so a batch of
        fan-outs costs one driver round-trip."""
        if not self.parallel:
            return fanouts
        import ray

        flat = iter(ray.get([f for fan in fanouts for f in fan]))
        return [[next(flat) for _ in fan] for fan in fanouts]

    def _call(self, method: str, *args) -> list:
        """``method(*args)`` on every scorer of one replica set, picked once."""
        return self._gather([self._submit(self._scorers(), method, *args)])[0]

    # ---- stats ----

    def _global_stats(self) -> dict:
        if self._stats_cache is None:
            results = self._call("local_stats")
            n = sum(r["n_docs"] for r in results)
            total_dl: Dict[str, int] = {}
            for r in results:
                for f, v in r["total_dl"].items():
                    total_dl[f] = total_dl.get(f, 0) + v
            self._stats_cache = {
                "n_docs": n,
                "avgdl": {f: (v / n if n else 0.0) for f, v in total_dl.items()},
            }
        return self._stats_cache

    # ---- public API ----

    def plan(self, query: QueryLike) -> Tuple[qn.Query, TermRequests, EvalContext]:
        return self.plan_many([query])[0]

    def _plan_from_cache(
        self, q: qn.Query, reqs: TermRequests
    ) -> Optional[Tuple[qn.Query, TermRequests, EvalContext]]:
        """Resolve-free plan when every exact term's df is cached and every
        dictionary expansion (+ its terms' dfs) is memoized. Bit-identical to
        the resolved plan: the merged df map holds only found terms, so cached
        zeros are dropped; expansion tuples are stored exactly as _merge_ctx
        built them (cross-segment sorted), and expansion terms always exist in
        the dictionary so their cached dfs are all positive."""
        if self._stats_cache is None:
            return None
        expanded: Dict[ExpansionSpec, tuple] = {}
        for spec in reqs.expansions:
            terms = self._exp_cache.get(spec)
            if terms is None:
                return None
            expanded[spec] = terms
        c = self._df_cache
        if any(ft not in c for ft in reqs.exact):
            return None
        needed_exp = [
            (spec.field, t) for spec, terms in expanded.items() for t in terms
        ]
        if any(ft not in c for ft in needed_exp):
            return None
        df = {ft: c[ft] for ft in reqs.exact if c[ft]}
        for ft in needed_exp:
            if c[ft]:
                df[ft] = c[ft]
        stats = self._global_stats()
        ctx = EvalContext(
            n_docs=stats["n_docs"], avgdl=stats["avgdl"], df=df,
            expanded=expanded,
        )
        return q, reqs, ctx

    def plan_many(
        self, queries: Sequence[QueryLike]
    ) -> List[Tuple[qn.Query, TermRequests, EvalContext]]:
        """Plan a batch with ONE driver round-trip: every query the caches
        cannot plan sends its resolve fan-out to replica set i % R, all in
        flight at once, then the driver merges each to global stats."""
        parsed = [_as_query(q) for q in queries]
        reqs_list = [collect_term_requests(q) for q in parsed]
        out: List[Optional[tuple]] = [
            self._plan_from_cache(q, reqs) for q, reqs in zip(parsed, reqs_list)
        ]
        need = [i for i, p in enumerate(out) if p is None]
        if not need:
            return out  # type: ignore[return-value]
        sets = self._scorer_sets()
        per_query = self._gather([
            self._submit(sets[j % len(sets)], "resolve", reqs_list[i])
            for j, i in enumerate(need)
        ])
        stats = self._global_stats()
        for i, resolved in zip(need, per_query):
            ctx, df, expanded = _merge_ctx(
                resolved, stats["n_docs"], stats["avgdl"]
            )
            self._fill_plan_caches(reqs_list[i], df, expanded)
            out[i] = (parsed[i], reqs_list[i], ctx)
        return out  # type: ignore[return-value]

    def _fill_plan_caches(
        self,
        reqs: TermRequests,
        df: Dict[Tuple[str, str], int],
        expanded: Dict[ExpansionSpec, tuple],
    ) -> None:
        for key, v in df.items():
            self._df_cache[key] = v
        for ft in reqs.exact:
            self._df_cache.setdefault(ft, 0)  # known-absent
        for spec, terms in expanded.items():
            self._exp_cache[spec] = terms

    def search(
        self, query: QueryLike, k: int = 10, *, with_meta: bool = True
    ) -> pa.Table:
        """Top-k as an Arrow table (doc_id, conv_id, turn_idx, score).

        One driver round-trip per query on one replica set: a plan-cache hit
        scores (``score`` / ``score_meta``); a miss submits every scorer's
        ``resolve`` without waiting, then one folded ``resolve_score`` trip
        in which each scorer merges the global stats itself. Only the first
        query on a cold engine pays one more trip, for the corpus stats.
        ``k=0`` answers no rows with the same columns."""
        q = _as_query(query)
        if not _wants_rows(k):
            return self._to_table(*_no_rows(), with_meta)
        reqs = collect_term_requests(q)
        hit = self._plan_from_cache(q, reqs)
        if hit is not None:
            outs = self._call("score_meta" if with_meta else "score", *hit, k)
        else:
            stats = self._global_stats()
            scorers = self._scorers()
            resolved = self._submit(scorers, "resolve", reqs)
            outs = self._gather([self._submit(
                scorers, "resolve_score", q, reqs, resolved, k,
                stats["n_docs"], stats["avgdl"], with_meta,
            )])[0]
            # every scorer merged the same integer sums; refill the driver's
            # plan caches from the first so the NEXT repeat plans resolve-free
            self._fill_plan_caches(reqs, outs[0][2], outs[0][3])
        docs = np.concatenate([o[0] for o in outs])
        scores = np.concatenate([o[1] for o in outs])
        docs, scores = top_k(docs, scores, k)
        # the metadata rows come last in score_meta's and resolve_score's output
        metas = [o[-1] for o in outs if o[-1] is not None] if with_meta else None
        return self._to_table(docs, scores, with_meta, metas=metas)

    def match_all(self, query: QueryLike, *, with_meta: bool = False) -> pa.Table:
        """Corpus filtering: EVERY matching doc with its BM25 score, sorted by
        doc_id — the 'keep all turns matching X' curation primitive (no top-k)."""
        q, reqs, ctx = self.plan(query)
        results = self._call("score", q, reqs, ctx, None)
        docs = np.concatenate([r[0] for r in results])
        scores = np.concatenate([r[1] for r in results])
        order = np.argsort(docs, kind="stable")
        docs, scores = docs[order], scores[order]
        if not with_meta:
            return pa.table(
                {"doc_id": pa.array(docs, pa.int64()), "score": pa.array(scores)}
            )
        return self._to_table(docs, scores, True)

    def warm(self, query: QueryLike = "the", k: int = 10) -> None:
        """:meth:`warm_many` on one cheap query: segment metadata, norms and
        caches load on EVERY scorer of every replica set before serving
        traffic — a plain ``search()`` warms only the one set the round-robin
        picks."""
        self.warm_many([query], k)

    def warm_many(self, queries: Sequence[QueryLike], k: int = 10) -> None:
        """Warm EVERY replica set on a whole batch's vocabulary: plan the batch
        once, then fan the full plan list to every scorer in every set.
        ``warm()`` with one term leaves the other sets' postings cold on the
        batch's actual terms — the first striped pass then pays R-1 sets of
        cold decodes (VERDICT r03 #1)."""
        if not _wants_rows(k):
            return
        items = [(q, reqs, ctx, k) for (q, reqs, ctx) in self.plan_many(queries)]
        self._gather(
            [self._submit(s, "score_many", items) for s in self._scorer_sets()]
        )

    def calibrate(self, queries: Sequence[QueryLike], k: int = 10,
                  passes: int = 2) -> str:
        """Benchmark-gate batch striping: time ``queries`` striped across all
        replica sets vs served by a single set (best-of-``passes`` each,
        interleaved) and keep the winner for subsequent ``search_many`` calls.
        Call after :meth:`warm_many`; answers are bit-identical either way
        (both modes score every segment), only the fan-out differs. One set
        (in-process, or ``replicas=1``) is "single" without timing."""
        import time as _time

        if len(self._scorer_sets()) == 1:
            self._mode = "single"
            return self._mode
        best = {"striped": float("inf"), "single": float("inf")}
        for _ in range(max(1, passes)):
            for mode in ("striped", "single"):
                self._mode = mode
                t0 = _time.perf_counter()
                self.search_many(queries, k)
                best[mode] = min(best[mode], _time.perf_counter() - t0)
        self._mode = "striped" if best["striped"] <= best["single"] else "single"
        return self._mode

    def match_all_stream(self, query: QueryLike, *, with_meta: bool = False):
        """Corpus filtering as a STREAMING ``ray.data.Dataset``: each scorer
        materializes its segments' matches as one Arrow table in the object
        store and the result is assembled with ``from_arrow_refs`` — the match
        set never lands on the driver. This is the 100-TB curation shape: feed
        the returned Dataset straight into ``map_batches`` / joins /
        ``write_parquet`` (``match_all`` gathers, so it is for small results)."""
        import ray.data as rd

        q, reqs, ctx = self.plan(query)
        tables = self._submit(
            self._scorers(), "match_all_table", q, reqs, ctx, with_meta
        )
        if self.parallel:
            return rd.from_arrow_refs(tables)
        return rd.from_arrow(tables)

    def suggest(self, query: QueryLike, k: int = 10, *, with_meta: bool = True) -> pa.Table:
        """Search-as-you-type: rewrite the last positional Term into
        ``Term OR Prefix`` (the reference's mapLastTerm use case,
        docs/index.md:67-96) and search the expanded query."""
        q = _as_query(query)
        expanded = q.map_last_term(
            lambda t: qn.Or(qn.Term(t.value), qn.Prefix(t.value))
        )
        return self.search(expanded, k, with_meta=with_meta)

    def search_many(
        self, queries: Sequence[QueryLike], k: int = 10
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batch scoring: one batched resolve round-trip + one score round-trip
        for the whole query set (not a driver round-trip per query). The
        batch is striped across the replica sets ("striped" mode: query i
        goes to set i % R, so the whole pool scores concurrently) or across
        the one set the round-robin picks ("single" mode, see
        :meth:`calibrate`). ``k=0`` answers no rows for every query."""
        parsed = [_as_query(q) for q in queries]
        if not _wants_rows(k):
            return [_no_rows() for _ in parsed]
        plans = self.plan_many(parsed)
        sets = self._scorer_sets() if self._mode == "striped" else [self._scorers()]
        nr = len(sets)
        # stripe r is plans[r::nr]; only trailing stripes can be empty
        results = self._gather([
            self._submit(s, "score_many",
                         [(q, reqs, ctx, k) for (q, reqs, ctx) in plans[r::nr]])
            for r, s in enumerate(sets) if r < len(plans)
        ])
        out: List[Optional[tuple]] = [None] * len(plans)
        for r, per_scorer in enumerate(results):
            for li in range(len(per_scorer[0])):
                docs = np.concatenate([res[li][0] for res in per_scorer])
                scores = np.concatenate([res[li][1] for res in per_scorer])
                out[r + li * nr] = top_k(docs, scores, k)
        return out  # type: ignore[return-value]

    def _to_table(
        self, docs: np.ndarray, scores: np.ndarray, with_meta: bool,
        metas: Optional[List[pa.Table]] = None,
    ):
        base = pa.table(
            {"doc_id": pa.array(docs, pa.int64()), "score": pa.array(scores)}
        )
        if not with_meta:
            return base
        if docs.size == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "conv_id": pa.array([], pa.string()),
                    "turn_idx": pa.array([], pa.int32()),
                    "score": pa.array([], pa.float64()),
                }
            )
        if metas is None:
            metas = self._call("doc_meta", docs)
        import pyarrow.compute as pc

        meta = pa.concat_tables(metas)
        joined = base.join(meta, keys="doc_id", join_type="left outer")
        order = pc.sort_indices(
            joined,
            sort_keys=[("score", "descending"), ("doc_id", "ascending")],
        )
        joined = joined.take(order)
        return joined.select(["doc_id", "conv_id", "turn_idx", "score"])

    def cache_stats(self) -> List[Dict[str, dict]]:
        """{segment dir: ``ReaderCache.stats()`` pools and ``postings_read``}
        per scorer of every replica set, in set order, read inside the scorer
        actors when parallel."""
        fanouts = [self._submit(s, "cache_stats") for s in self._scorer_sets()]
        return [st for fan in self._gather(fanouts) for st in fan]

    def shutdown(self) -> None:
        if self._actors:
            import ray

            for a in self._actors:
                ray.kill(a)
            self._actors = None
            self._sets = None
