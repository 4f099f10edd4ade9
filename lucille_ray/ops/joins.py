"""Ordered join operators the Dataset API lacks: per-key AS-OF (previous-event)
join and bounded interval (range) join.

Both are expressed as ``groupby(key).map_groups`` with a vectorized in-group
kernel — the same partitioning contract as :mod:`.sessions`: ONE group sees all
rows of a key (Ray's groupby shuffle guarantees it), so correctness needs no
global sort, and the per-group kernel is ``searchsorted``/``shift`` over numpy
arrays, never a Python row loop. Skew is bounded by per-key row counts, not
corpus size; a pathological key can be salted upstream by windowing time.

At a 100 TB event stream the same kernels apply unchanged: the groupby is the
single all-to-all, moving only the projected join columns (prune at read).
"""

from __future__ import annotations

import numpy as np


def asof_prev_event(ds, *, key_col: str = "user_id", ts_col: str = "ts"):
    """AS-OF self-join: each event matched with the same user's most recent
    STRICTLY earlier event (inner semantics: a user's first event emits no row).

    Output: (event_id, user_id, ts, prev_event_id, prev_ts, prev_type, gap_us)
    with ``gap_us`` the exact int64 microsecond gap. Ties are impossible under
    the (user, ts)-unique events contract; order within a user is (ts, event_id)
    like the SQL oracle's ASOF JOIN.
    """

    import pyarrow as pa
    import pyarrow.compute as pc

    def per_key(g: pa.Table) -> pa.Table:
        # Arrow-native shift: sort once, pair row i with row i-1 via slices
        order = pc.sort_indices(
            g, sort_keys=[(ts_col, "ascending"), ("event_id", "ascending")]
        )
        g = g.take(order)
        n = g.num_rows
        ts = g[ts_col].combine_chunks().cast(pa.timestamp("us"))
        ts_np = ts.to_numpy(zero_copy_only=False)
        ids = g["event_id"].combine_chunks().cast(pa.int64())
        return pa.table(
            {
                "event_id": ids.slice(1),
                key_col: g[key_col].combine_chunks().slice(1),
                ts_col: ts.slice(1),
                "prev_event_id": ids.slice(0, n - 1),
                "prev_ts": ts.slice(0, n - 1),
                "prev_type": g["event_type"].combine_chunks().slice(0, n - 1),
                "gap_us": pa.array((ts_np[1:] - ts_np[:-1]).astype(np.int64)),
            }
        )

    return ds.groupby(key_col).map_groups(per_key, batch_format="pyarrow")


def range_count_nearby(
    ds, window_seconds: int = 21_600, *, key_col: str = "user_id",
    ts_col: str = "ts",
):
    """Bounded interval (range) self-join: for every event, the count of the
    same user's events within ``±window_seconds`` (inclusive, self included).

    The in-group kernel is two ``searchsorted`` calls over the user's sorted
    timestamps — O(n log n) per group versus the O(n²) pair blow-up a naive
    range join materializes.
    """
    w = np.timedelta64(int(window_seconds), "s").astype("timedelta64[us]")

    import pyarrow as pa

    def per_key(g: pa.Table) -> pa.Table:
        mine = (
            g[ts_col].combine_chunks().cast(pa.timestamp("us"))
            .to_numpy(zero_copy_only=False)
        )
        ts = np.sort(mine)
        n = (
            np.searchsorted(ts, mine + w, side="right")
            - np.searchsorted(ts, mine - w, side="left")
        )
        return pa.table(
            {
                "event_id": g["event_id"].combine_chunks().cast(pa.int64()),
                "n_nearby": pa.array(n.astype(np.int64)),
            }
        )

    return ds.groupby(key_col).map_groups(per_key, batch_format="pyarrow")


def drop_empty_blocks(ds):
    """Rebuild a dataset from its non-empty block refs (metadata-only; block
    payloads never touch the driver).

    Why: Ray's hash-shuffle groupby emits zero-row partitions as COLUMN-LESS
    tables (``pa.table({})``), and ``map_batches`` forwards empty blocks
    without invoking the fn — so typed-empty returns can't repair them. One
    such block hash-partitioned into a ``Dataset.join`` poisons that
    partition's Arrow block builder and Acero rejects the key field ref
    (the r02 ``tfidf_keywords`` flake at 32 cpus). Call this on any
    groupby-derived input to a join. Consumes/extends the plan, so pass a
    materialized dataset when the lineage is expensive.

    Zero-row TYPED blocks poison a join too (Ray 2.49,
    ``execution/operators/hash_shuffle.py``): the shuffle sends an input's
    schema to every join aggregator only with that input's FIRST block, and
    ``_shuffle_block`` returns before its fan-out when that block has no
    rows. So when an input's first block is empty, each partition that then
    gets no rows from that input joins a column-less table
    (``join.py::JoiningShuffleAggregation.finalize``) and Acero raises the
    same key-field error — the ``pmi_collocations`` flake, where a support
    filter leaves most blocks empty. Dropping them here (``num_rows == 0``)
    covers both faults, provided the input has rows at all: an all-empty
    input keeps one empty block and still fails, so check ``count()``
    first."""
    import ray.data

    refs = [
        block_ref
        for bundle in ds.iter_internal_ref_bundles()
        for block_ref, meta in bundle.blocks
        if meta.num_rows is None or meta.num_rows > 0
    ]
    if not refs:  # all-empty input: keep one block so the schema survives
        return ds
    return ray.data.from_arrow_refs(refs)


def auto_num_partitions(max_parts: int = 16) -> int:
    """CPU-aware hash-join partition count: each ``Dataset.join`` schedules
    ``num_partitions`` one-CPU aggregator ACTORS, so chained joins sized past
    the cluster's CPUs deadlock actor placement. On a real cluster pass the
    data-sized partition count explicitly."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(2, min(max_parts, cpus // 2))


def revenue_by_nation(lineitem, orders, customer, nation_table, *, num_partitions=None):
    """TPC-H Q5-shaped multi-way join: revenue per nation from
    lineitem ⋈ orders ⋈ customer ⋈ nation.

    The scale architecture, stage by stage:

    * **Combine before every shuffle.** Each fact-side ``map_batches`` first
      pre-aggregates within the batch (by ``l_orderkey``, then by
      ``o_custkey``), so the hash joins and the final groupby move partial
      rows, not the raw table.
    * **Fact ⋈ fact is a real hash join** (``Dataset.join``, Ray's
      partitioned shuffle join) — done twice: lineitem-partials ⋈ orders on
      orderkey, then custkey-partials ⋈ customer. Neither side is ever
      collected to the driver.
    * **The 25-row nation dimension rides in the task closure** (tiny,
      serialized once per task spec — broadcast via ``ray.put`` would be
      overkill at this size) and resolves with a vectorized ``searchsorted``.
    * **Money is integer-exact**: TPC-H prices/discounts are 2-decimal, so
      ``round(price*100) * (100 - round(disc*100))`` is an exact int64 in
      units of 1e-4; cross-partial sums ride (hi, lo) limbs like
      :func:`.relational.pricing_summary`, matching DuckDB's HUGEINT sum
      bit-for-bit at any row count.

    Output: ``(n_name, revenue_e4, n_items)`` sorted by nation name.
    """
    import pyarrow as pa

    from .relational import _combine_limbs, _split_limbs

    if num_partitions is None:
        num_partitions = auto_num_partitions()

    def li_partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        ep_c = np.rint(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        d_c = np.rint(
            batch["l_discount"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "rev": pa.array(ep_c * (100 - d_c)),
                "n": pa.array(np.ones(len(batch), np.int64)),
            }
        )
        return (
            pl.from_arrow(t)
            .group_by("l_orderkey")
            .agg(pl.col("rev").sum(), pl.col("n").sum())
            .to_arrow()
        )

    def cust_partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        t = batch.select(["o_custkey", "rev", "n"])
        return (
            pl.from_arrow(t)
            .group_by("o_custkey")
            .agg(pl.col("rev").sum(), pl.col("n").sum())
            .to_arrow()
        )

    nat = nation_table.sort_by("n_nationkey")
    nat_keys = nat["n_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    nat_names = np.asarray(nat["n_name"].to_pylist(), dtype=object)

    def nation_partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(nat_keys, nk)
        t = pa.table(
            {
                "n_name": pa.array(nat_names[idx], pa.string()),
                "rev": batch["rev"],
                "n": batch["n"],
            }
        )
        g = (
            pl.from_arrow(t)
            .group_by("n_name")
            .agg(pl.col("rev").sum(), pl.col("n").sum())
            .to_arrow()
        )
        rev = g["rev"].to_numpy(zero_copy_only=False).astype(np.int64)
        hi, lo = _split_limbs(rev)
        return pa.table(
            {"n_name": g["n_name"], "rev_hi": hi, "rev_lo": lo, "n": g["n"]}
        )

    from ray.data.aggregate import Sum

    li_agg = lineitem.map_batches(li_partial, batch_format="pyarrow")
    joined = li_agg.join(
        orders, join_type="inner", num_partitions=num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    by_cust = joined.map_batches(cust_partial, batch_format="pyarrow")
    j2 = by_cust.join(
        customer, join_type="inner", num_partitions=num_partitions,
        on=("o_custkey",), right_on=("c_custkey",),
    )
    out = (
        j2.map_batches(nation_partial, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("rev_hi"), Sum("rev_lo"), Sum("n"))
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rev = _combine_limbs(t, "rev")
        return pa.table(
            {
                "n_name": t["n_name"],
                "revenue_e4": pa.array([int(v) for v in rev], pa.int64()),
                "n_items": pc.cast(t["sum(n)"], pa.int64()),
            }
        ).sort_by("n_name")

    return out.map_batches(finish, batch_format="pyarrow")


REVENUE_BY_NATION_SQL = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT)
         AS revenue_e4,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
JOIN orders   ON l_orderkey  = o_orderkey
JOIN customer ON o_custkey   = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
GROUP BY n_name
ORDER BY n_name
""".strip()


ASOF_PREV_EVENT_SQL = """
SELECT a.event_id, a.user_id, a.ts,
       b.event_id AS prev_event_id, b.ts AS prev_ts, b.event_type AS prev_type,
       CAST(date_diff('microsecond', b.ts, a.ts) AS BIGINT) AS gap_us
FROM events a ASOF JOIN events b
  ON a.user_id = b.user_id AND b.ts < a.ts
""".strip()


RANGE_COUNT_NEARBY_SQL = """
SELECT a.event_id, CAST(count(*) AS BIGINT) AS n_nearby
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND b.ts BETWEEN a.ts - INTERVAL {w} SECOND AND a.ts + INTERVAL {w} SECOND
GROUP BY a.event_id
""".strip()
