"""Deduplication operators for large-scale training-data pipelines.

All operators are Ray-Data-first: per-batch vectorized signature computation in
``map_batches`` (Arrow/numpy — no per-row Python in hot paths beyond C-speed
hashing), followed by a single hash ``groupby`` shuffle whose key cardinality is
chosen so no group materializes more than a bucket of candidates.

* :func:`exact_dedup` — md5(content) hash-partition + per-group min/count.
* :func:`minhash_signatures` / :func:`minhash_dedup` — token-shingle MinHash with
  banded LSH: signature rows shuffle on ``(band, bucket)``; only same-bucket
  candidates are pairwise-verified (estimated Jaccard from signature agreement).
* :func:`simhash_signatures` — 64-bit SimHash over token multisets; near-dup pairs
  via rotation-banding on the same groupby machinery.
* :func:`ngram_jaccard_pairs` — exact token-n-gram Jaccard verification for a
  candidate pair list (the post-LSH confirm step).

At 100 TB the only all-to-all is the (band, bucket) / hash groupby; signatures are
a few hundred bytes per doc, so the shuffle moves ~1% of input volume.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import arrow_tokenize

_MERSENNE = (1 << 61) - 1


def _md5_hex(values: Sequence[str]) -> List[str]:
    return [hashlib.md5((v or "").encode()).hexdigest() for v in values]


def exact_dedup(ds, key: str = "text", id_col: str = "doc_id"):
    """One row per distinct content hash: (h, keep_id=min id, dup_count)."""
    from ray.data.aggregate import Count, Min

    def add_hash(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "h": pa.array(_md5_hex(batch[key].to_pylist())),
                id_col: batch[id_col],
            }
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    out = hashed.groupby("h").aggregate(Min(id_col), Count())
    return out


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------
#
# Hash contract (EXACT integer math, reproducible in both numpy and DuckDB SQL,
# which is what turns the LSH pipeline into a driver-checked entry):
#
#   u(token)       = md5_number_lower(token) % P        (P = 2^31 - 1)
#                    where md5_number_lower is DuckDB's: the little-endian
#                    integer of md5-digest bytes [8:16]
#   shingle s      = fold over the window's tokens: cur = (cur*C + u) % P
#   perm h_i(s)    = (a_i * s + b_i) % P,  a_i,b_i < P seeded constants
#   sig_i          = min over shingles of h_i  (P when the doc has no tokens)
#   bucket(band)   = fold over the band's sig rows: cur = (cur*C + sig) % P
#
# Every intermediate is < 2^31, every product < 2^62 — exact in both int64/
# uint64 numpy and DuckDB BIGINT. See oracle_sql.minhash_sql for the SQL twin.

P31 = 2147483647  # 2^31 - 1
FOLD_C = 1000003


def _md5_low_mod(tokens: Sequence[str], mod: Optional[int] = P31) -> np.ndarray:
    """md5_number_lower per token (optionally mod P31) — C-speed hashlib, called
    only over the batch's UNIQUE tokens."""
    if mod is None:
        return np.fromiter(
            (
                int.from_bytes(hashlib.md5(t.encode()).digest()[8:], "little")
                for t in tokens
            ),
            dtype=np.uint64,
            count=len(tokens),
        )
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(t.encode()).digest()[8:], "little") % mod
            for t in tokens
        ),
        dtype=np.uint64,
        count=len(tokens),
    )


def _flat_token_us(batch_col) -> Tuple[np.ndarray, np.ndarray]:
    """Tokenize a string column -> (flat token u-values, tokens-per-doc counts).
    md5 runs once per unique token of the batch (vocab), then fans out by code."""
    toks = arrow_tokenize(batch_col)
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    counts = np.nan_to_num(counts, nan=0).astype(np.int64)
    flat = toks.flatten()
    if len(flat) == 0:
        return np.empty(0, np.uint64), counts
    denc = flat.dictionary_encode()
    vocab = denc.dictionary.to_pylist()
    u_vocab = _md5_low_mod(vocab)
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return u_vocab[codes], counts


def _shingle_folds(us: np.ndarray, counts: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """All k-token shingle hashes, vectorized over the whole batch.

    Docs with >= k tokens contribute n-k+1 windows; shorter non-empty docs
    contribute ONE shingle folding all their tokens. Returns (shingle values,
    shingles-per-doc counts); values are grouped by doc in doc order."""
    n_docs = counts.size
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    doc_of_tok = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    C = np.uint64(FOLD_C)
    P = np.uint64(P31)

    # long docs: every start p with p..p+k-1 inside one doc
    long_vals = np.empty(0, np.uint64)
    long_doc = np.empty(0, np.int64)
    if total >= k:
        starts = np.arange(total - k + 1, dtype=np.int64)
        valid = doc_of_tok[starts] == doc_of_tok[starts + k - 1]
        starts = starts[valid]
        if starts.size:
            s = np.zeros(starts.size, dtype=np.uint64)
            for j in range(k):
                s = (s * C + us[starts + j]) % P
            long_vals, long_doc = s, doc_of_tok[starts]

    # short docs (0 < n < k): one fold over all their tokens
    short_mask = (counts > 0) & (counts < k)
    short_vals = np.empty(0, np.uint64)
    short_doc = np.empty(0, np.int64)
    if short_mask.any():
        sdocs = np.flatnonzero(short_mask)
        s = np.zeros(sdocs.size, dtype=np.uint64)
        base = offsets[sdocs]
        ln = counts[sdocs]
        for j in range(k - 1):
            live = ln > j
            s[live] = (s[live] * C + us[base[live] + j]) % P
        short_vals, short_doc = s, sdocs

    vals = np.concatenate([long_vals, short_vals])
    docs = np.concatenate([long_doc, short_doc])
    order = np.argsort(docs, kind="stable")
    vals, docs = vals[order], docs[order]
    per_doc = np.zeros(n_docs, dtype=np.int64)
    if docs.size:
        uniq, cnt = np.unique(docs, return_counts=True)
        per_doc[uniq] = cnt
    return vals, per_doc


def minhash_params(num_perm: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded (a, b) permutation constants < P31 — shared with the SQL oracle."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, P31, num_perm, dtype=np.int64)
    b = rng.integers(0, P31, num_perm, dtype=np.int64)
    return a, b


class MinHasher:
    """Stateful map_batches callable: permutation parameters built once per actor.
    Fully vectorized: md5 once per unique batch token, numpy folds for shingles,
    one (num_perm)-loop of whole-batch universal hashing + segmented min."""

    def __init__(
        self,
        num_perm: int = 64,
        shingle_k: int = 3,
        bands: int = 16,
        text_col: str = "text",
        id_col: str = "doc_id",
        seed: int = 42,
    ):
        assert num_perm % bands == 0
        a, b = minhash_params(num_perm, seed)
        self.a = a.astype(np.uint64)
        self.b = b.astype(np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col

    def _sig_matrix(self, vals: np.ndarray, per_doc: np.ndarray) -> np.ndarray:
        """(n_docs, num_perm) signature matrix from doc-grouped shingle values."""
        n_docs = per_doc.size
        sigs = np.full((n_docs, self.num_perm), P31, dtype=np.uint64)
        nz = per_doc > 0
        if not nz.any():
            return sigs
        seg_starts = np.zeros(per_doc.size, dtype=np.int64)
        np.cumsum(per_doc[:-1], out=seg_starts[1:])
        starts_nz = seg_starts[nz]
        P = np.uint64(P31)
        for i in range(self.num_perm):
            h = (self.a[i] * vals + self.b[i]) % P
            sigs[nz, i] = np.minimum.reduceat(h, starts_nz)
        return sigs

    def signature(self, tokens: List[str]) -> np.ndarray:
        """Signature of one token list (test/verification helper)."""
        us = (
            _md5_low_mod(tokens)
            if tokens
            else np.empty(0, np.uint64)
        )
        vals, per_doc = _shingle_folds(us, np.array([len(tokens)], np.int64), self.k)
        return self._sig_matrix(vals, per_doc)[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        us, counts = _flat_token_us(batch[self.text_col])
        vals, per_doc = _shingle_folds(us, counts, self.k)
        sigs = self._sig_matrix(vals, per_doc)
        n = len(ids)
        # one row per (doc, band): bucket = fold of the band's signature rows
        band_ids = np.tile(np.arange(self.bands, dtype=np.int32), n)
        doc_rep = np.repeat(ids, self.bands)
        buckets = np.empty(n * self.bands, dtype=np.uint64)
        r = self.rows_per_band
        C = np.uint64(FOLD_C)
        P = np.uint64(P31)
        for bi in range(self.bands):
            sl = sigs[:, bi * r : (bi + 1) * r]
            acc = np.zeros(n, dtype=np.uint64)
            for j in range(r):
                acc = (acc * C + sl[:, j]) % P
            buckets[bi::self.bands] = acc
        return pa.table(
            {
                "doc_id": pa.array(doc_rep.astype(np.int64)),
                "band": pa.array(band_ids),
                "bucket": pa.array(buckets.astype(np.int64)),
                "signature": pa.FixedSizeListArray.from_arrays(
                    pa.array(np.repeat(sigs, self.bands, axis=0).reshape(-1).astype(np.int64)),
                    self.num_perm,
                ),
            }
        )


def minhash_signatures(ds, **kw):
    """Dataset of (doc_id, band, bucket, signature) rows — the LSH shuffle input."""
    return ds.map_batches(
        MinHasher, fn_constructor_kwargs=kw, batch_format="pyarrow", concurrency=(1, 4)
    )


#: above this bucket size, pair enumeration switches from all-pairs (O(n^2)) to
#: star pairing against the bucket's smallest doc id — keeps the near-dup graph
#: CONNECTED inside the bucket (what cluster-then-keep-one dedup needs) at O(n)
#: rows, so one adversarial hash bucket can't blow up a task
MAX_BUCKET_FULL_PAIRS = 256


def _bucket_pairs(group) -> "pa.Table":
    """Within one (band, bucket): candidate pairs with estimated Jaccard
    (signature agreement), fully vectorized."""
    ids = group["doc_id"].to_numpy(zero_copy_only=False)
    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64()),
        }
    )
    if ids.size < 2:
        return empty
    col = group["signature"].combine_chunks()
    num_perm = col.type.list_size
    sigs = col.flatten().to_numpy(zero_copy_only=False).reshape(-1, num_perm)
    order = np.argsort(ids, kind="stable")
    ids, sigs = ids[order], sigs[order]
    n = ids.size
    if n <= MAX_BUCKET_FULL_PAIRS:
        ai, bj = np.triu_indices(n, k=1)
    else:
        ai = np.zeros(n - 1, dtype=np.int64)
        bj = np.arange(1, n, dtype=np.int64)
    keep = ids[ai] != ids[bj]
    ai, bj = ai[keep], bj[keep]
    if not ai.size:
        return empty
    sim = (sigs[ai] == sigs[bj]).mean(axis=1)
    return pa.table(
        {
            "a": pa.array(ids[ai].astype(np.int64)),
            "b": pa.array(ids[bj].astype(np.int64)),
            "est_jaccard": pa.array(sim.astype(np.float64)),
        }
    )


def minhash_dedup(ds, threshold: float = 0.8, **kw):
    """Near-duplicate pairs (a < b, est_jaccard >= threshold), deduplicated."""
    sigs = minhash_signatures(ds, **kw)
    pairs = sigs.groupby(["band", "bucket"]).map_groups(
        _bucket_pairs, batch_format="pyarrow"
    )
    pairs = pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(t["est_jaccard"], threshold)),
        batch_format="pyarrow",
    )
    # same pair may surface from several bands -> keep one
    from ray.data.aggregate import Max

    return pairs.groupby(["a", "b"]).aggregate(Max("est_jaccard"))


def dedup_components(pairs, *, max_iter: int = 50, num_partitions=None,
                     small_graph_edges: int = 1_000_000):
    """Connected components over a near-dup pair graph — the canonical-doc
    finishing step of a dedup sweep: every doc in a duplicate cluster gets the
    cluster's minimum doc id as its ``component`` label, so "keep one per
    cluster" is then a trivial ``doc_id == component`` filter.

    Distributed ITERATIVE min-label propagation, all Dataset-native:

    * ``edges`` holds both directions of every pair; ``labels`` starts as
      (node, label=node) via one groupby over edge sources.
    * Each round: hash-``join`` labels onto edge sources, per-batch partial
      min combiner, ``groupby(dst).min`` for each node's best neighbor label,
      then a join back onto ``labels`` taking the elementwise min. Labels
      only ever decrease, so ``sum(label)`` strictly decreases until the
      fixpoint — one tiny aggregate per round decides convergence.
    * Rounds needed = component DIAMETER (near-dup clusters are shallow;
      a 100 TB sweep's clusters converge in a handful of rounds). Each round
      materializes, so lineage stays bounded.
    * Small-graph fast path: each distributed round costs two hash joins plus
      a groupby of FIXED overhead, so a graph whose edge list fits on the
      driver (``<= small_graph_edges`` edges, 16 bytes/edge) runs the same
      min-label fixpoint as one vectorized numpy loop instead — identical
      labels, none of the per-round exchange cost. This is the broadcast-
      small-side principle applied to the finishing step: dedup PAIR sets are
      tiny relative to the corpus even at 100 TB; the distributed path
      remains for graphs that aren't.

    ``pairs`` needs columns ``a``/``b``; returns ``(doc_id, component)`` for
    every doc that appears in at least one pair.
    """
    from ray.data.aggregate import Min, Sum

    if num_partitions is None:
        from .joins import auto_num_partitions

        num_partitions = auto_num_partitions(max_parts=8)

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "s": pa.array(np.concatenate([a, b])),
                "d": pa.array(np.concatenate([b, a])),
            }
        )

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "component": pa.array([], pa.int64()),
                }
            )
        )
    if n_edges <= small_graph_edges:
        import ray

        tables = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        e = pa.concat_tables(tables)
        s = e["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = e["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes, s_idx = np.unique(s, return_inverse=True)  # every node is a src
        d_idx = np.searchsorted(nodes, d)
        labels = nodes.copy()
        for _ in range(max_iter):
            prev = labels.copy()
            np.minimum.at(labels, d_idx, labels[s_idx])
            if np.array_equal(labels, prev):
                break
        import ray.data

        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array(nodes), "component": pa.array(labels)})
        )

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["s"], "label": t["s"]})

    labels = (
        edges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label"))
        .map_batches(
            lambda t: pa.table({"node": t["node"], "label": t["min(label)"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def min_by_dst(t: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(t.select(["d", "label"]))
            .group_by("d")
            .agg(pl.col("label").min())
            .to_arrow()
        )

    def merge_min(t: pa.Table) -> pa.Table:
        old = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        new = t["min(label)"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"node": t["node"], "label": pa.array(np.minimum(old, new))}
        )

    prev_sum = labels.aggregate(Sum("label"))["sum(label)"]
    for _ in range(max_iter):
        j = edges.join(
            labels, join_type="inner", num_partitions=num_partitions,
            on=("s",), right_on=("node",),
        )
        neigh = (
            j.map_batches(min_by_dst, batch_format="pyarrow")
            .groupby("d")
            .aggregate(Min("label"))
        )
        # every node of the undirected edge set appears as a dst, so the
        # inner join keeps the full label table
        labels = (
            labels.join(
                neigh, join_type="inner", num_partitions=num_partitions,
                on=("node",), right_on=("d",),
            )
            .map_batches(merge_min, batch_format="pyarrow")
            .materialize()
        )
        cur_sum = labels.aggregate(Sum("label"))["sum(label)"]
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "component": t["label"]}),
        batch_format="pyarrow",
    )


class _ShingleSets:
    """map_batches callable: (id, distinct sorted shingle-hash set) per doc,
    using the same P31 fold hashes as MinHasher (so the SQL twin matches)."""

    def __init__(self, shingle_k: int = 3, text_col: str = "text", id_col: str = "doc_id"):
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        us, counts = _flat_token_us(batch[self.text_col])
        vals, per_doc = _shingle_folds(us, counts, self.k)
        offs = np.zeros(per_doc.size + 1, dtype=np.int64)
        np.cumsum(per_doc, out=offs[1:])
        # packed as BINARY (sorted int64 LE bytes): Arrow's hash join does not
        # accept list-typed payload columns, binary passes through fine
        sets = [
            np.unique(vals[offs[i]: offs[i + 1]]).astype(np.int64).tobytes()
            for i in range(per_doc.size)
        ]
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "shingles": pa.array(sets, pa.binary()),
            }
        )


def _jaccard_of_sets(sa, sb) -> np.ndarray:
    """Exact distinct-shingle Jaccard per pair; both-empty defines 1.0."""
    jac = np.empty(len(sa), dtype=np.float64)
    for i in range(len(sa)):
        x = np.frombuffer(sa[i] or b"", dtype=np.int64)
        y = np.frombuffer(sb[i] or b"", dtype=np.int64)
        if not x.size and not y.size:
            jac[i] = 1.0
            continue
        inter = np.intersect1d(x, y, assume_unique=True).size
        jac[i] = inter / (x.size + y.size - inter)
    return jac


def minhash_dedup_verified(
    ds,
    est_threshold: float = 0.3,
    jaccard_threshold: float = 0.5,
    *,
    num_partitions: int = 8,
    small_pairs: int = 100_000,
    **kw,
):
    """The full LSH dedup pipeline: banded-LSH candidate pairs (recall stage)
    verified by EXACT distinct-shingle Jaccard (precision stage), keeping pairs
    with jaccard >= jaccard_threshold.

    Distributed shape: candidate pairs are tiny relative to the corpus; each
    side's shingle set arrives via a hash `join` against the per-doc shingle
    table (no driver materialization of texts). Both-empty docs define
    jaccard = 1.0 (identical) — the SQL twin mirrors every rule.

    Small-pairs fast path: a candidate set of ``<= small_pairs`` pairs
    broadcasts its needed doc-id set instead of paying two chained hash joins
    (each an actor-pool exchange of fixed overhead) — the shingle pass filters
    to the pair docs in-flight and the bounded verification runs on the
    driver. Identical output; the join path remains for pair sets past the
    bound."""
    cands = minhash_dedup(ds, threshold=est_threshold, **kw)
    sh_kw = {k: v for k, v in kw.items() if k in ("shingle_k", "text_col", "id_col")}
    shingles = ds.map_batches(
        _ShingleSets, fn_constructor_kwargs=sh_kw, batch_format="pyarrow",
        concurrency=(1, 4),
    )

    import ray
    import ray.data

    from .joins import drop_empty_blocks

    cands = drop_empty_blocks(cands.materialize())
    if cands.count() <= small_pairs:
        id_col = sh_kw.get("id_col", "doc_id")
        tabs = [t for t in ray.get(cands.to_arrow_refs()) if t.num_rows]
        out_schema = pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
        )
        if not tabs:
            return ray.data.from_arrow(out_schema.empty_table())
        pairs_t = pa.concat_tables(tabs)
        a_ids = pairs_t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b_ids = pairs_t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        need = np.unique(np.concatenate([a_ids, b_ids]))
        need_ref = ray.put(need)

        def keep_needed(t: pa.Table) -> pa.Table:
            needed = ray.get(need_ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            idx = np.clip(np.searchsorted(needed, ids), 0, needed.size - 1)
            return t.filter(pa.array(needed[idx] == ids))

        sh_tabs = [
            t for t in ray.get(
                shingles.map_batches(
                    keep_needed, batch_format="pyarrow"
                ).materialize().to_arrow_refs()  # no Limit[1] schema probe
            )
            if t.num_rows
        ]
        sh_t = pa.concat_tables(sh_tabs)
        sh_ids = sh_t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(sh_ids, kind="stable")
        sh_ids = sh_ids[order]
        sh_sets = sh_t["shingles"].take(pa.array(order)).to_pylist()
        sa = [sh_sets[j] for j in np.searchsorted(sh_ids, a_ids)]
        sb = [sh_sets[j] for j in np.searchsorted(sh_ids, b_ids)]
        jac = _jaccard_of_sets(sa, sb)
        keep = jac >= jaccard_threshold
        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array(a_ids[keep]),
                    "b": pa.array(b_ids[keep]),
                    "jaccard": pa.array(jac[keep]),
                },
                schema=out_schema,
            )
        )

    def rename(col):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([col, f"sh_{col}"])

        return fn

    a_side = shingles.map_batches(rename("a"), batch_format="pyarrow")
    b_side = shingles.map_batches(rename("b"), batch_format="pyarrow")
    j1 = cands.join(
        a_side, join_type="inner", num_partitions=num_partitions, on=("a",)
    )
    # a join's own zero-row output partitions are column-less too — strip
    # them before they become the next join's left side
    j1 = drop_empty_blocks(j1.materialize())
    joined = j1.join(
        b_side, join_type="inner", num_partitions=num_partitions, on=("b",)
    )

    def verify(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        jac = _jaccard_of_sets(t["sh_a"].to_pylist(), t["sh_b"].to_pylist())
        keep = jac >= jaccard_threshold
        return pa.table(
            {
                "a": pa.array(a[keep]),
                "b": pa.array(b[keep]),
                "jaccard": pa.array(jac[keep]),
            }
        )

    return joined.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


SIMHASH_BITS = 32


class SimHasher:
    """SimHash over the token multiset — fully vectorized (md5 once per unique
    batch token; segmented bit-vote sums via np.add.reduceat).

    32 bits so the token hash (md5_number_lower, the DuckDB-reproducible
    contract shared with oracle_sql.simhash_sql) covers every bit position with
    plain integer shifts on both sides."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = arrow_tokenize(batch[self.text_col])
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        counts = np.nan_to_num(counts, nan=0).astype(np.int64)
        n_docs = counts.size
        out = np.zeros(n_docs, dtype=np.int64)
        flat = toks.flatten()
        if len(flat):
            denc = flat.dictionary_encode()
            vocab = denc.dictionary.to_pylist()
            u_vocab = _md5_low_mod(vocab, mod=None)
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            shifts = np.arange(SIMHASH_BITS, dtype=np.uint64)
            contrib_vocab = (
                ((u_vocab[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
                * 2
                - 1
            )  # (n_vocab, bits) in {-1, +1}
            contrib = contrib_vocab[codes]
            nz = counts > 0
            seg_starts = np.zeros(n_docs, dtype=np.int64)
            np.cumsum(counts[:-1], out=seg_starts[1:])
            votes = np.add.reduceat(contrib, seg_starts[nz], axis=0)
            weights = np.int64(1) << np.arange(SIMHASH_BITS, dtype=np.int64)
            out[nz] = ((votes > 0).astype(np.int64) * weights[None, :]).sum(axis=1)
        return pa.table(
            {
                "doc_id": batch[self.id_col],
                "simhash": pa.array(out),
            }
        )


def simhash_signatures(ds, **kw):
    return ds.map_batches(
        SimHasher, fn_constructor_kwargs=kw, batch_format="pyarrow", concurrency=(1, 4)
    )


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard (verification)
# ---------------------------------------------------------------------------


def ngram_jaccard(tokens_a: List[str], tokens_b: List[str], k: int = 3) -> float:
    def sh(toks):
        if len(toks) < k:
            return {" ".join(toks)} if toks else set()
        return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}

    sa, sb = sh(tokens_a), sh(tokens_b)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)
