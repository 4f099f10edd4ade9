"""Deterministic sampling and mergeable distinct-count sketches.

Both ops ride the repo's exact integer hash contract (DuckDB's
``md5_number_lower`` = little-endian int of md5 digest bytes [8:16], folded
mod P31 — see ops/dedup.py), so their outputs are bit-reproducible in SQL and
across any partitioning/order of the input:

* :func:`hash_sample` — hash-based row sampling (the train/eval-split
  primitive): a row's fate depends only on its key, never on partitioning,
  so a re-run, a resumed run, and a differently-sharded run all select the
  SAME sample.
* :func:`kmv_distinct` — K-Minimum-Values distinct-count sketch per group.
  The mergeable-sketch pattern for distributed COUNT(DISTINCT): each batch
  contributes its k smallest distinct key hashes (shuffle volume is
  O(groups x k) per batch, never the key set), partials union losslessly,
  and the estimate ``(k-1) / kth_min_normalized`` is deterministic — unlike
  probabilistic HLL implementations, every intermediate here is an exact
  integer, which is what makes the driver's bit-exact SQL check possible.
  Groups with fewer than k distinct keys degrade to the EXACT count (the
  unioned partials then contain every distinct hash).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import P31, _md5_low_mod


def hash_sample(ds, pct: int = 10, *, key_col: str = "doc_id", mod: int = 100):
    """Keep rows whose ``md5_number_lower(str(key)) % mod < pct`` —
    a deterministic, partition-independent ``pct/mod`` sample."""

    def filt(batch: pa.Table) -> pa.Table:
        keys = [str(v) for v in batch[key_col].to_pylist()]
        hv = _md5_low_mod(keys, mod=None) % np.uint64(mod)
        return batch.filter(pa.array(hv < np.uint64(pct)))

    return ds.map_batches(filt, batch_format="pyarrow")


def hash_sample_sql(
    pct: int = 10, *, table: str = "documents", key_col: str = "doc_id",
    mod: int = 100, columns: str = "*",
) -> str:
    return (
        f"SELECT {columns} FROM {table} "
        f"WHERE md5_number_lower(CAST({key_col} AS VARCHAR)) % {mod} < {pct}"
    )


def kmv_distinct(ds, k: int = 64, *, group_col: str = "event_type",
                 key_col: str = "user_id"):
    """Per-group KMV distinct-count sketch over ``key_col``.

    Output: ``(group_col, kth_hash, est_distinct_r)`` — the k-th smallest
    distinct key hash and the rounded estimate ``(k-1) * P31 / (kth + 1)``
    (exact count when a group has fewer than k distinct keys).
    """

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        t = (
            pl.from_arrow(batch.select([group_col, key_col]))
            .unique(maintain_order=False)
        )
        keys = [str(v) for v in t[key_col].to_list()]
        uniq, inv = np.unique(np.asarray(keys, dtype=object), return_inverse=True)
        hv = _md5_low_mod(list(uniq), mod=P31).astype(np.int64)[inv]
        return (
            pl.DataFrame({group_col: t[group_col], "hv": hv})
            .unique()  # two keys in a group may collide to one hash
            .sort([group_col, "hv"])
            .group_by(group_col, maintain_order=True)
            .head(k)
            .to_arrow()
        )

    def finish(g: pa.Table) -> pa.Table:
        # Arrow-native (no per-group pandas conversion): union the partial
        # sketches with one np.unique, read the k-th smallest hash.
        hv = np.unique(g["hv"].to_numpy(zero_copy_only=False).astype(np.int64))
        m = min(k, hv.size)
        kth = int(hv[m - 1])
        if m < k:
            est = float(hv.size)
        else:
            est = (k - 1) * float(P31) / (kth + 1)
        return pa.table(
            {
                group_col: g[group_col].slice(0, 1),
                "kth_hash": pa.array([kth], pa.int64()),
                "est": pa.array([est], pa.float64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(finish, batch_format="pyarrow")
    )

    def round4(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = t[group_col]
        if pa.types.is_large_string(key.type):
            # polars-produced partials carry large_string through the groupby;
            # driver gate + joins expect plain string (CLAUDE.md dtype rule)
            key = pc.cast(key, pa.string())
        return pa.table(
            {
                group_col: key,
                "kth_hash": t["kth_hash"],
                "est_distinct_r": pc.round(t["est"], 4),
            }
        )

    return out.map_batches(round4, batch_format="pyarrow")


def kmv_distinct_sql(
    k: int = 64, *, table: str = "events", group_col: str = "event_type",
    key_col: str = "user_id",
) -> str:
    return f"""WITH h AS (
  SELECT DISTINCT {group_col},
         CAST(md5_number_lower(CAST({key_col} AS VARCHAR)) % {P31} AS BIGINT) AS hv
  FROM {table}
),
r AS (
  SELECT {group_col}, hv,
         row_number() OVER (PARTITION BY {group_col} ORDER BY hv) AS rn,
         count(*) OVER (PARTITION BY {group_col}) AS nd
  FROM h
)
SELECT {group_col},
       CAST(max(hv) AS BIGINT) AS kth_hash,
       round(CASE WHEN count(*) < {k} THEN CAST(max(nd) AS DOUBLE)
                  ELSE ({k} - 1) * {float(P31)!r} / (max(hv) + 1) END, 4)
         AS est_distinct_r
FROM r WHERE rn <= {k}
GROUP BY {group_col}"""


def stratified_sample(ds, rates: dict, default_pct: int = 5, *,
                      group_col: str = "event_type", key_col: str = "event_id",
                      mod: int = 100):
    """Per-stratum deterministic hash sampling — downsample over-represented
    strata while keeping rare ones (the class-rebalancing primitive): a row
    survives iff ``hash(key) % mod < rates.get(its group, default_pct)``.
    Same partition-independence guarantee as :func:`hash_sample`; the rate
    lookup is vectorized over the batch."""

    def filt(batch: pa.Table) -> pa.Table:
        keys = [str(v) for v in batch[key_col].to_pylist()]
        hv = _md5_low_mod(keys, mod=None) % np.uint64(mod)
        groups = batch[group_col].to_pylist()
        pct = np.fromiter(
            (rates.get(g, default_pct) for g in groups), np.uint64, len(groups)
        )
        return batch.filter(pa.array(hv < pct))

    return ds.map_batches(filt, batch_format="pyarrow")


def stratified_sample_sql(rates: dict, default_pct: int = 5, *,
                          table: str = "events", group_col: str = "event_type",
                          key_col: str = "event_id", mod: int = 100,
                          columns: str = "*") -> str:
    whens = " ".join(
        f"WHEN '{g}' THEN {p}" for g, p in sorted(rates.items())
    )
    return (
        f"SELECT {columns} FROM {table} "
        f"WHERE md5_number_lower(CAST({key_col} AS VARCHAR)) % {mod} "
        f"< CASE {group_col} {whens} ELSE {default_pct} END"
    )


def cms_frequencies(ds, query_terms, *, width: int = 1024, depth: int = 4,
                    seed: int = 17, text_col: str = "text"):
    """Count-Min-Sketch term-frequency estimation — the second mergeable
    sketch (with :func:`kmv_distinct`): estimate any term's corpus frequency
    from a fixed ``depth x width`` table of counters instead of the full
    (unbounded) vocabulary.

    Scale shape: each batch tokenizes once and emits at most ``depth*width``
    partial rows (row, cell, count) regardless of batch vocabulary; the
    single ``groupby(row, cell)`` Sum merges sketches EXACTLY (CMS is a
    linear sketch — cell-wise addition IS the merge); the driver then reads
    only the ``depth * len(query_terms)`` cells the queries hash to. Every
    hash is the repo's exact integer contract (``(a_r * u(t) + b_r) % P31 %
    width`` over ``u(t) = md5_number_lower(t) % P31``), so estimates are
    bit-reproducible in SQL. CMS guarantees est >= true count; overestimates
    are bounded by collisions with other terms' mass.
    """
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .dedup import minhash_params

    a, b = minhash_params(depth, seed)
    P = np.int64(P31)
    W = np.int64(width)

    def partial(batch: pa.Table) -> pa.Table:
        from ..analysis import arrow_tokenize

        toks = arrow_tokenize(batch[text_col]).flatten()
        if len(toks) == 0:
            return pa.table(
                {"r": pa.array([], pa.int64()), "cell": pa.array([], pa.int64()),
                 "c": pa.array([], pa.int64())}
            )
        uniq, counts = np.unique(
            np.asarray(toks.to_pylist(), dtype=object), return_counts=True
        )
        u = _md5_low_mod(list(uniq), mod=P31).astype(np.int64)
        rows_out, cells_out, c_out = [], [], []
        for r in range(depth):
            cell = ((a[r] * u) + b[r]) % P % W
            # several tokens may share a cell within the batch: pre-sum
            order = np.argsort(cell, kind="stable")
            cs, idx = np.unique(cell[order], return_index=True)
            sums = np.add.reduceat(counts[order], idx)
            rows_out.append(np.full(cs.size, r, np.int64))
            cells_out.append(cs)
            c_out.append(sums.astype(np.int64))
        return pa.table(
            {
                "r": pa.array(np.concatenate(rows_out)),
                "cell": pa.array(np.concatenate(cells_out)),
                "c": pa.array(np.concatenate(c_out)),
            }
        )

    sketch = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["r", "cell"])
        .aggregate(Sum("c"))
    )
    # the queries touch depth * |terms| cells — filter those, read only them
    q = sorted(set(query_terms))
    qu = _md5_low_mod(q, mod=P31).astype(np.int64)
    want = {}
    for r in range(depth):
        cells = ((a[r] * qu) + b[r]) % P % W
        for t, cell in zip(q, cells):
            want.setdefault((r, int(cell)), []).append(t)
    keys = pa.array([r * width + c for r, c in sorted(want)], pa.int64())

    def prune(t: pa.Table) -> pa.Table:
        k = pc.add(pc.multiply(t["r"], width), t["cell"])
        return t.filter(pc.is_in(k, value_set=keys))

    import ray

    cells_tbl = pa.concat_tables(
        [tb for tb in ray.get(
            # materialized: no Limit[1] schema probe
            sketch.map_batches(prune, batch_format="pyarrow").materialize()
            .to_arrow_refs()
        ) if tb.num_rows]
    )
    lookup = {
        (int(r), int(c)): int(v)
        for r, c, v in zip(
            cells_tbl["r"].to_pylist(), cells_tbl["cell"].to_pylist(),
            cells_tbl["sum(c)"].to_pylist(),
        )
    }
    terms_out, est_out = [], []
    for t, uh in zip(q, qu):
        ests = []
        for r in range(depth):
            cell = int(((a[r] * uh) + b[r]) % P % W)
            ests.append(lookup.get((r, cell), 0))
        terms_out.append(t)
        est_out.append(min(ests))
    return pa.table(
        {"term": pa.array(terms_out, pa.string()),
         "est_count": pa.array(est_out, pa.int64())}
    )


def cms_frequencies_sql(query_terms, *, width: int = 1024, depth: int = 4,
                        seed: int = 17, table: str = "documents",
                        tokens_expr: str = None) -> str:
    from .dedup import minhash_params

    a, b = minhash_params(depth, seed)
    params = ", ".join(
        f"({r}, {int(a[r])}, {int(b[r])})" for r in range(depth)
    )
    q = sorted(set(query_terms))
    qvals = ", ".join(f"('{t}')" for t in q)
    return f"""WITH tok AS (
  SELECT unnest({tokens_expr}) AS t FROM {table}
),
prm(r, pa, pb) AS (VALUES {params}),
cells AS (
  SELECT p.r,
         ((p.pa * (md5_number_lower(tok.t) % {P31})) + p.pb) % {P31} % {width}
           AS cell,
         count(*) AS c
  FROM tok CROSS JOIN prm p
  GROUP BY 1, 2
),
qt(term) AS (VALUES {qvals}),
qcell AS (
  SELECT qt.term, p.r,
         ((p.pa * (md5_number_lower(qt.term) % {P31})) + p.pb) % {P31} % {width}
           AS cell
  FROM qt CROSS JOIN prm p
)
SELECT qc.term, CAST(min(coalesce(c.c, 0)) AS BIGINT) AS est_count
FROM qcell qc LEFT JOIN cells c ON c.r = qc.r AND c.cell = qc.cell
GROUP BY qc.term
ORDER BY qc.term"""
