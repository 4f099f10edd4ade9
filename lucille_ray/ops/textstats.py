"""Text analysis operators: token counting, quality scoring, language ID,
document fingerprinting. All vectorized map_batches stages whose arithmetic is
deliberately *integer-exact* where a classification threshold is involved, so the
DuckDB oracle reproduces decisions bit-for-bit (no float boundary flakes).
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import arrow_tokenize

# tiny per-language stopword marker sets (heuristic language ID)
LANG_MARKERS = {
    "en": ("the", "a", "and", "of", "to"),
    "de": ("der", "die", "das", "und", "nicht"),
    "fr": ("le", "la", "les", "et", "des"),
    "es": ("el", "los", "las", "que", "una"),
}
EN_MARKERS_SQL = "('the','a','and','of','to')"


def token_counts(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_tokens) per document."""

    def fn(batch: pa.Table) -> pa.Table:
        toks = arrow_tokenize(batch[text_col])
        n = pc.fill_null(pc.list_value_length(toks), 0).cast(pa.int64())
        return pa.table({id_col: batch[id_col], "n_tokens": n})

    return ds.map_batches(fn, batch_format="pyarrow")


#: BPE-style pre-tokenizer (GPT-2-shaped, ASCII form): contraction suffixes,
#: space-prefixed letter runs, digit runs, punctuation runs, whitespace runs.
#: RE2 syntax on BOTH sides — pyarrow's count_substring_regex and DuckDB's
#: regexp_extract_all are each RE2, so counts agree exactly.
BPE_TOKEN_REGEX = r"'(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+|\s+"


def bpe_token_counts(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, n_bpe_tokens): subword-style token count via the BPE pre-tokenizer
    regex — the cheap proxy for 'how many LLM tokens is this corpus' that a
    training-data pipeline budgets with. One vectorized RE2 kernel per batch."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[text_col], "")
        n = pc.count_substring_regex(texts, BPE_TOKEN_REGEX).cast(pa.int64())
        return pa.table({id_col: batch[id_col], "n_bpe_tokens": n})

    return ds.map_batches(fn, batch_format="pyarrow")


def quality_scores(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc quality features: token count, char count, distinct-token count,
    and an integer quality bucket 0-3 (length + lexical diversity)."""

    def fn(batch: pa.Table) -> pa.Table:
        import polars as pl

        toks = arrow_tokenize(batch[text_col])
        n_tok = pc.fill_null(pc.list_value_length(toks), 0).cast(pa.int64())
        n_chars = pc.fill_null(
            pc.utf8_length(pc.fill_null(batch[text_col], "")), 0
        ).cast(pa.int64())
        n_uniq = (
            pl.from_arrow(pa.table({"t": toks}))["t"].list.n_unique()
        ).to_numpy().astype(np.int64)
        nt = n_tok.to_numpy(zero_copy_only=False)
        # integer-exact bucketing: length >= 20 tokens, diversity 2*uniq >= ntok
        bucket = (
            (nt >= 20).astype(np.int64)
            + (nt >= 5).astype(np.int64)
            + (2 * n_uniq >= nt).astype(np.int64)
        )
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": n_tok,
                "n_chars": n_chars,
                "n_uniq_tokens": pa.array(n_uniq),
                "quality_bucket": pa.array(bucket),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def lang_id(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Heuristic language ID: integer-threshold on English-marker density
    (100*hits > 8*n_tokens -> 'en', else 'other'); exact in SQL."""

    markers = set(LANG_MARKERS["en"])

    def fn(batch: pa.Table) -> pa.Table:
        toks_list = arrow_tokenize(batch[text_col])
        flat = toks_list.flatten()
        parents = pc.list_parent_indices(toks_list)
        is_marker = pc.is_in(flat, value_set=pa.array(sorted(markers)))
        n = len(batch)
        hits = np.zeros(n, dtype=np.int64)
        pk = parents.filter(is_marker).to_numpy(zero_copy_only=False)
        if len(pk):
            u, c = np.unique(pk, return_counts=True)
            hits[u] = c
        ntok = pc.fill_null(pc.list_value_length(toks_list), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        pred = np.where(100 * hits > 8 * ntok, "en", "other")
        return pa.table(
            {
                id_col: batch[id_col],
                "marker_hits": pa.array(hits),
                "n_tokens": pa.array(ntok),
                "lang_pred": pa.array(pred.astype(str)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def fingerprints(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Normalized-content fingerprint: md5 of the space-joined analyzed tokens
    (canonical form is whitespace/punctuation/case-insensitive); plus a rolling
    polynomial hash for cheap streaming comparison.

    The rolling hash uses the repo-wide integer hash contract (token u =
    md5_number_lower % P31, left fold (cur*C + u) % P31 — see ops/dedup.py), so
    md5 runs once per UNIQUE batch token and the fold is a segmented numpy
    pass; it is also exactly reproducible in SQL (oracle_sql / list_reduce)."""

    from .dedup import FOLD_C, P31, _flat_token_us

    def fn(batch: pa.Table) -> pa.Table:
        toks_arr = arrow_tokenize(batch[text_col])
        toks_col = toks_arr.to_pylist()
        md5s = [
            hashlib.md5(" ".join(toks or []).encode()).hexdigest()
            for toks in toks_col
        ]
        us, counts = _flat_token_us(batch[text_col])
        n = counts.size
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        rolls = np.zeros(n, dtype=np.uint64)
        C = np.uint64(FOLD_C)
        P = np.uint64(P31)
        max_len = int(counts.max()) if n else 0
        for j in range(max_len):  # passes = longest doc, each fully vectorized
            live = counts > j
            rolls[live] = (rolls[live] * C + us[offsets[:-1][live] + j]) % P
        return pa.table(
            {
                id_col: batch[id_col],
                "fingerprint_md5": pa.array(md5s),
                "rolling_hash": pa.array(rolls.astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def top_terms(ds, k: int = 20, *, text_col: str = "text",
              candidate_cap: Optional[int] = None):
    """Global term-frequency top-k — the wordcount scale pattern: per-batch
    token-count PARTIALS (one row per distinct term per batch, via Arrow
    tokenize + a polars explode-groupby) feed a ``groupby(term)`` Sum, so the
    shuffle moves vocabulary-bounded partial rows, never tokens; the final
    sort+limit runs over the (tiny) per-term aggregate with deterministic
    (count DESC, term ASC) tie-breaks.

    ``candidate_cap=None`` (default) is EXACT: every distinct (batch, term)
    partial shuffles — the right contract when the driver hash-checks values,
    but a web-scale junk vocabulary makes the groupby key set ~input-sized.
    Setting ``candidate_cap=M`` keeps only each batch's top-M partials
    (count DESC, term ASC — the same deterministic keys as the final cut), so
    the shuffle moves at most ``batches x M`` rows regardless of vocabulary.
    That cap is the grouped_topk heavy-hitter combiner and is APPROXIMATE by
    contract: a term must rank in some batch's top-M to be a candidate
    (guaranteed for any term that is frequent *somewhere*; a term uniformly
    diluted below rank M in every batch can be missed). Size M >> k."""
    import polars as pl

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        toks = arrow_tokenize(batch[text_col])
        flat = toks.flatten()
        if len(flat) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        g = (
            pl.from_arrow(pa.table({"term": flat}))
            .group_by("term")
            .agg(pl.len().cast(pl.Int64).alias("n"))
        )
        if candidate_cap is not None:
            g = g.sort(["n", "term"], descending=[True, False]).head(
                candidate_cap
            )
        return g.to_arrow()

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n"))
    )
    return (
        agg.map_batches(
            lambda t: pa.table(
                {"term": t["term"], "n": pc.cast(t["sum(n)"], pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .sort(["n", "term"], descending=[True, False])
        .limit(k)
    )


TOP_TERMS_SQL = """
SELECT term, CAST(count(*) AS BIGINT) AS n
FROM (SELECT unnest({tokens_expr}) AS term FROM {table})
GROUP BY term
ORDER BY n DESC, term ASC
LIMIT {k}
""".strip()


def tfidf_keywords(ds, k: int = 3, *, text_col: str = "text",
                   id_col: str = "doc_id", num_partitions=None,
                   df_broadcast_limit: int = 2_000_000):
    """Per-document TF-IDF keyword extraction — the canonical TWO-PASS
    corpus-statistics op: pass 1 derives per-(doc, term) tf partials and the
    vocabulary-bounded df table, pass 2 scores ``tf * ln(1 + N/df)`` and
    keeps each doc's top-k terms.

    Scale shape: tf rows come straight from one explode-groupby per batch
    (each doc lives in one row, so batch-local tf IS global tf) and are
    MATERIALIZED once (consumed by both the df groupby and the scorer); df is
    one vocabulary-bounded groupby. When the df table fits the
    ``df_broadcast_limit`` row bound it is broadcast (``ray.put`` once, read
    per task, vectorized ``pc.index_in`` lookup) — no second shuffle at all;
    past the bound tf ⋈ df falls back to a partitioned hash join whose sides
    are BOTH schema-pinned (typed empty blocks, plain-string keys — Acero
    rejects a key ref into an untyped empty partition). The final per-doc
    top-k reuses :func:`.relational.grouped_topk`'s candidate-combiner
    pattern with deterministic (score DESC, term ASC) ties.
    """
    import polars as pl
    import ray

    from ray.data.aggregate import Count

    from .joins import auto_num_partitions
    from .relational import grouped_topk

    if num_partitions is None:
        num_partitions = auto_num_partitions()

    def tf_partial(batch: pa.Table) -> pa.Table:
        toks = arrow_tokenize(batch[text_col])
        n_per = pc.fill_null(pc.list_value_length(toks), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        flat = toks.flatten()
        if len(flat) == 0:
            return pa.table(
                {id_col: pa.array([], batch[id_col].type),
                 "term": pa.array([], pa.string()),
                 "tf": pa.array([], pa.int64())}
            )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        g = (
            pl.from_arrow(
                pa.table(
                    {id_col: np.repeat(ids, n_per), "term": flat}
                )
            )
            .group_by([id_col, "term"])
            .agg(pl.len().cast(pl.Int64).alias("tf"))
            .to_arrow()
        )
        # polars emits large_string; Acero's hash join requires both sides'
        # key types to match the groupby side's plain string
        return g.cast(
            pa.schema([(id_col, g.schema.field(id_col).type),
                       ("term", pa.string()), ("tf", pa.int64())])
        )

    n_docs = ds.count()
    tf = ds.map_batches(tf_partial, batch_format="pyarrow").materialize()

    df_schema = pa.schema([("term", pa.string()), ("df", pa.int64())])

    def df_rename(t: pa.Table) -> pa.Table:
        # typed empties: a 32-partition groupby emits empty blocks whose
        # schema would otherwise reach the join untyped (r02 Acero flake)
        if t.num_rows == 0 or "term" not in t.schema.names:
            return df_schema.empty_table()
        return pa.table(
            {
                "term": pc.cast(t["term"], pa.string()),
                "df": pc.cast(t["count()"], pa.int64()),
            }
        )

    df = (
        tf.groupby("term")
        .aggregate(Count())
        .map_batches(df_rename, batch_format="pyarrow")
        .materialize()  # vocabulary-bounded by contract
    )

    if df.count() <= df_broadcast_limit:
        # broadcast path: ship the (term -> df) table to the object store ONCE
        # and resolve per batch with one vectorized Arrow index_in — no join
        parts = [t for t in ray.get(df.to_arrow_refs()) if t.num_rows]
        df_tab = pa.concat_tables(parts) if parts else df_schema.empty_table()
        lookup_ref = ray.put(
            (
                df_tab["term"].combine_chunks(),
                df_tab["df"].to_numpy(zero_copy_only=False).astype(np.float64),
            )
        )

        def score_broadcast(batch: pa.Table) -> pa.Table:
            terms_v, dfs_v = ray.get(lookup_ref)
            idx = pc.index_in(batch["term"], value_set=terms_v).to_numpy(
                zero_copy_only=False
            )
            tfv = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
            s = tfv * np.log(1.0 + float(n_docs) / dfs_v[idx])
            return pa.table(
                {id_col: batch[id_col], "term": batch["term"], "s": pa.array(s)}
            )

        scored = tf.map_batches(score_broadcast, batch_format="pyarrow")
    else:
        from .joins import drop_empty_blocks

        joined = tf.join(
            drop_empty_blocks(df), join_type="inner",
            num_partitions=num_partitions, on=("term",),
        )

        def score(batch: pa.Table) -> pa.Table:
            tfv = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
            dfv = batch["df"].to_numpy(zero_copy_only=False).astype(np.float64)
            s = tfv * np.log(1.0 + float(n_docs) / dfv)
            return pa.table(
                {id_col: batch[id_col], "term": batch["term"], "s": pa.array(s)}
            )

        scored = joined.map_batches(score, batch_format="pyarrow")

    top = grouped_topk(scored, k=k, key_col=id_col, val_col="s", id_col="term")

    def finish(t: pa.Table) -> pa.Table:
        term = t["term"]
        if pa.types.is_large_string(term.type):
            # polars tokenization upstream emits large_string; normalize to
            # plain string at the op boundary (CLAUDE.md dtype rule)
            term = pc.cast(term, pa.string())
        return pa.table(
            {
                id_col: t[id_col],
                "term": term,
                "rk": t["rk"],
                "score_r": pc.round(t["s"], 4),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


TFIDF_KEYWORDS_SQL = """
WITH tok AS (SELECT {id_col}, unnest({tokens_expr}) AS term FROM {table}),
tf AS (SELECT {id_col}, term, count(*) AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
sc AS (
  SELECT t.{id_col}, t.term,
         t.tf * ln(1.0 + (SELECT count(*) FROM {table}) * 1.0 / d.df) AS s
  FROM tf t JOIN df d USING (term)
),
r AS (
  SELECT {id_col}, term, s,
         row_number() OVER (
           PARTITION BY {id_col} ORDER BY s DESC, term ASC) AS rk
  FROM sc)
SELECT {id_col}, term, CAST(rk AS BIGINT) AS rk, round(s, 4) AS score_r
FROM r WHERE rk <= {k}
""".strip()


def pmi_collocations(ds, k: int = 20, min_count: int = 5, *,
                     text_col: str = "text", num_partitions=None):
    """Collocation mining: top-k within-document bigrams by pointwise mutual
    information, ``PMI = ln(p(w1,w2) / (p(w1) p(w2)))``.

    Scale shape: ONE tokenize pass emits unigram and bigram count PARTIALS
    into a single stream (unigrams ride with a ``w2 = ''`` sentinel — the
    analyzer never produces an empty token), so one vocabulary-bounded
    ``groupby`` sums both; a ``min_count`` support filter runs BEFORE the
    expensive part (rare pairs dominate the pair vocabulary); two partitioned
    hash joins attach c(w1) and c(w2); the PMI float expression is composed
    in the exact operation order of the SQL twin, so scores are
    bit-reproducible. Ties break on (w1, w2) ascending.
    """
    import polars as pl

    from ray.data.aggregate import Sum

    from .joins import auto_num_partitions

    if num_partitions is None:
        num_partitions = auto_num_partitions()

    count_schema = pa.schema(
        [("w1", pa.string()), ("w2", pa.string()), ("c", pa.int64())]
    )

    def counts_partial(batch: pa.Table) -> pa.Table:
        toks = arrow_tokenize(batch[text_col])
        n_per = pc.fill_null(pc.list_value_length(toks), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        flat = toks.flatten()
        if len(flat) == 0:
            return count_schema.empty_table()
        ends = np.cumsum(n_per)
        starts = ends - n_per
        keep_left = np.ones(len(flat), bool)
        keep_left[ends[n_per > 0] - 1] = False
        keep_right = np.ones(len(flat), bool)
        keep_right[starts[n_per > 0]] = False
        uni = pa.table(
            {
                "w1": flat,
                "w2": pa.nulls(len(flat), pa.string()).fill_null(""),
            }
        )
        bi = pa.table(
            {
                "w1": flat.filter(pa.array(keep_left)),
                "w2": flat.filter(pa.array(keep_right)),
            }
        )
        g = (
            pl.from_arrow(pa.concat_tables([uni, bi]))
            .group_by(["w1", "w2"]).agg(pl.len().cast(pl.Int64).alias("c"))
            .to_arrow()
        )
        return g.cast(count_schema)

    counts = (
        ds.map_batches(counts_partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("c"))
        .map_batches(
            lambda t: pa.table(
                {"w1": t["w1"], "w2": t["w2"],
                 "c": pc.cast(t["sum(c)"], pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()  # consumed three times below
    )
    # the groupby can emit column-less zero-row blocks that would poison the
    # two hash joins below (see joins.drop_empty_blocks) — strip them once here
    from .joins import drop_empty_blocks

    counts = drop_empty_blocks(counts)  # ref-backed: no recompute on reuse
    is_uni = lambda t: t.filter(pc.equal(t["w2"], ""))  # noqa: E731
    is_bi = lambda t: t.filter(pc.not_equal(t["w2"], ""))  # noqa: E731
    total_t = 0
    total_b = 0
    for tb in (counts.map_batches(
        lambda t: (lambda u, b: pa.table(
            {"t": pa.array([int(pc.sum(u["c"]).as_py() or 0)], pa.int64()),
             "b": pa.array([int(pc.sum(b["c"]).as_py() or 0)], pa.int64())}
        ))(is_uni(t), is_bi(t)),
        batch_format="pyarrow",
    ).materialize().to_arrow_refs()):  # materialized: no Limit[1] schema probe
        import ray

        tt = ray.get(tb)
        total_t += int(pc.sum(tt["t"]).as_py() or 0)
        total_b += int(pc.sum(tt["b"]).as_py() or 0)
    # the per-block filters below can leave blocks empty, the support filter
    # most of them, and so can the first join: every join input is
    # materialized without its zero-row blocks (see joins.drop_empty_blocks),
    # and no qualifying pair means no join
    uni = drop_empty_blocks(counts.map_batches(
        lambda t: (lambda u: pa.table({"w": u["w1"], "c": u["c"]}))(is_uni(t)),
        batch_format="pyarrow",
    ).materialize())
    bi = drop_empty_blocks(counts.map_batches(
        lambda t: (lambda b: pa.table(
            {"w1": b["w1"], "w2": b["w2"], "c12": b["c"]}
        ))(is_bi(t).filter(pc.greater_equal(is_bi(t)["c"], min_count))),
        batch_format="pyarrow",
    ).materialize())
    out_schema = pa.schema([("w1", pa.string()), ("w2", pa.string()),
                            ("c12", pa.int64()), ("pmi_r", pa.float64())])
    if bi.count() == 0:
        import ray.data

        return ray.data.from_arrow(out_schema.empty_table())
    u1 = uni.map_batches(
        lambda t: pa.table({"w1": t["w"], "c1": t["c"]}), batch_format="pyarrow"
    )
    u2 = uni.map_batches(
        lambda t: pa.table({"w2": t["w"], "c2": t["c"]}), batch_format="pyarrow"
    )
    j1 = drop_empty_blocks(bi.join(
        u1, join_type="inner", num_partitions=num_partitions, on=("w1",)
    ).materialize())
    joined = j1.join(u2, join_type="inner", num_partitions=num_partitions, on=("w2",))

    def score(t: pa.Table) -> pa.Table:
        c12 = t["c12"].to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = t["c1"].to_numpy(zero_copy_only=False).astype(np.float64)
        c2 = t["c2"].to_numpy(zero_copy_only=False).astype(np.float64)
        # EXACT operation order of the SQL twin: ((((c12*T)/B)*T)/c1)/c2
        x = c12 * float(total_t)
        x = x / float(total_b)
        x = x * float(total_t)
        x = x / c1
        x = x / c2
        return pa.table(
            {
                "w1": t["w1"], "w2": t["w2"], "c12": t["c12"],
                "pmi": pa.array(np.log(x)),
            }
        )

    top = (
        joined.map_batches(score, batch_format="pyarrow")
        .sort(["pmi", "w1", "w2"], descending=[True, False, False])
        .limit(k)
    )
    return top.map_batches(
        lambda t: pa.table(
            {"w1": t["w1"], "w2": t["w2"], "c12": t["c12"],
             "pmi_r": pc.round(t["pmi"], 4)}
        ),
        batch_format="pyarrow",
    )


PMI_COLLOCATIONS_SQL = """
WITH arr AS (SELECT {id_col}, {tokens_expr} AS a FROM {table}),
tok AS (
  SELECT {id_col}, unnest(a) AS term, generate_subscripts(a, 1) AS pos
  FROM arr
),
big AS (
  SELECT term AS w1,
         lead(term) OVER (PARTITION BY {id_col} ORDER BY pos) AS w2
  FROM tok
),
bi AS (
  SELECT w1, w2, count(*) AS c12 FROM big WHERE w2 IS NOT NULL GROUP BY 1, 2
),
uni AS (SELECT term AS w, count(*) AS c FROM tok GROUP BY 1),
tot AS (
  SELECT (SELECT sum(c) FROM uni) AS t,
         (SELECT sum(c12) FROM bi) AS b
),
sc AS (
  SELECT bi.w1, bi.w2, bi.c12,
         ln(bi.c12 * ((SELECT t FROM tot) * 1.0) / (SELECT b FROM tot)
            * (SELECT t FROM tot) / u1.c / u2.c) AS pmi
  FROM bi JOIN uni u1 ON bi.w1 = u1.w JOIN uni u2 ON bi.w2 = u2.w
  WHERE bi.c12 >= {min_count}
)
SELECT w1, w2, CAST(c12 AS BIGINT) AS c12, round(pmi, 4) AS pmi_r
FROM sc
ORDER BY pmi DESC, w1 ASC, w2 ASC
LIMIT {k}
""".strip()
