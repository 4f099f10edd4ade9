"""The postings writer: one Parquet layout for build, append and compaction.

Term lookups prune at ROW GROUP granularity on the (field, term) min/max
statistics (``SegmentReader._read_postings_rows``), so a row group is the unit
a cold lookup decodes. Groups are cut by payload, not by a fixed row count:

- a group closes at :data:`ROW_GROUP_ROWS` rows, or before a row would push its
  blob payload (the ``docs`` + ``tfs`` + ``pos`` bytes of its blocks) past
  :data:`ROW_GROUP_BYTES`, whichever comes first. A hot row therefore sits
  alone in its group (a lookup of a rare neighbour never decodes it), and rare
  rows pack ``ROW_GROUP_ROWS`` to a group (Parquet framing stays small next to
  the data; see "Why 256 rows" below);
- a group also closes where ``field`` changes, so every group holds one field
  and is term-prunable (the reader cannot prune a group spanning two fields by
  term, so every lookup of either field would read it);
- statistics are written only on ``field`` and ``term`` (the only columns the
  reader prunes on) and dictionary encoding only on ``field``;
- each column has its own codec (:data:`COLUMN_COMPRESSION`; see "Why ZSTD
  on five columns" below);
- rows arrive packed (``codec.pack_rows``): a row's blocks are one varint
  header ``hdr`` and its ``docs``/``tfs``/``pos`` payloads end to end, so
  the block metadata costs a few bytes per row, not a column chunk per
  leaf; a one-posting row is stored without its header;
- the stored columns are ``field``, ``term``, ``df``, ``hdr``, ``docs``,
  ``tfs`` and ``pos``: a block's first doc lives only in its ``docs``
  payload, so a row's bucket (its block 0's first doc) is not stored;
- ``df`` is delta-encoded (:data:`COLUMN_ENCODING`: Parquet's
  DELTA_BINARY_PACKED, small values that bit-pack to a few bits each), the
  sorted ``term`` column is DELTA_BYTE_ARRAY (shared prefixes stored once),
  and the ``docs``/``tfs``/``pos`` payloads are DELTA_LENGTH_BYTE_ARRAY
  (their lengths one bit-packed run ahead of the bytes, not a 4-byte length
  before each value); ``hdr`` stays PLAIN (see "Why ZSTD" below);
- the footer holds no copy of the Arrow schema (``store_schema=False``):
  every column reads back as its stored Parquet type, which is the schema
  (``field`` a dictionary-encoded ``string``).

Why 256 rows: a row group costs about 2.3 KB of fixed Parquet framing --
about 0.8 KB of footer metadata plus about 1.5 KB of page, delta and
dictionary headers over its column chunks (13 when this was measured, 9
since the block metadata is packed) -- while 64 rare rows carry only
about 1.5 KB of ``docs``/``tfs``/``pos`` payload. Rewriting the compacted
seed-1 serve index of the benchmark (3,536 turns) at each cap:

    cap  row groups  B/turn  cold lookup  touched by 200 terms  reader open
    ---  ----------  ------  -----------  --------------------  -----------
     64         209   267.8      1.14 ms                557 KB       5.1 ms
    128         107   203.0      1.08 ms                987 KB       3.5 ms
    256          56   169.3      1.17 ms               1.82 MB       2.7 ms
    512          32   153.1      1.24 ms               3.46 MB       2.5 ms

(one cold lookup of a random ``text`` term through a fresh reader, median of
6 alternating runs on one vCPU; "touched" is the compressed bytes of the row
groups the statistics select). At 256 a cold rare-term lookup decodes a group
of about 9 KB compressed instead of about 2.8 KB, far under one 128 KiB
readahead window, and the per-call floor of about 1.1 ms hides the
difference. 512 saves another 10% of bytes but doubles the bytes touched
again. The byte cap, not the row cap, bounds a group of medium rows, so the
worst-case group is the same at any row cap.

Why ZSTD on five columns: snappy barely shrinks the varint payloads, which
are most of the postings bytes, while the delta-bit-packed integers are
already near their entropy. Compressed bytes per column of the compacted
seed-1 serve index of the benchmark (3,536 turns, 2 segments), snappy against
ZSTD at Arrow's default level, when each block still stored its metadata in
five integer columns of its own:

    column            snappy     ZSTD
    ----------------  -------  -------
    docs              123,197   97,223
    pos               117,187   74,408
    term               59,198   44,736
    tfs                42,524   29,235

ZSTD on these four took the index from 168.6 to 141.3 B/turn (-16.2%); ZSTD on
every column gave 141.7, because the delta-bit-packed integer columns and
``field`` grow 0-20% under ZSTD. Packing the five block-metadata columns into
``hdr`` then cut the postings another 16.9% (477,726 to 396,950 B at the same
row groups; 141.3 to 118.4 B/turn); with ``hdr`` under snappy the cut was
13.9%, so ``hdr`` is ZSTD too. Storing each block's first doc once, in
``docs`` (no ``bucket`` column, no first-doc deltas in ``hdr``), dropping
the unread per-row sum of the tfs and the footer's Arrow schema cut them
another 13.5% (393,997 to 340,843 B at the same 56 row groups: ``bucket``
held 22,120 B, the tf sums 16,314 B, and ``hdr`` fell from 43,143 to 40,336
B; the benchmark's serve index 117.9 to 102.7 B/turn, medians of 10 pairs).
ZSTD decodes slower: 300 random ``text`` lookups over both segments of that
index, row groups picked by the statistics alone, took p50 1.04 ms against
0.96 ms all-snappy (8 alternating processes, one vCPU). The reader reads no
group for a term the segment's dictionary lacks
(``SegmentReader.raw_blocks_many``), which is 39% of the cold lookups of the
benchmark's serve traffic and 49% of its churn traffic. There cold lookups
read 30-32% fewer row groups and 44-45% fewer compressed bytes than all-snappy
without the check, and the p50 of first answers moved +0.5% (serve) and -1.3%
(churn), within run-to-run spread (10 traced pairs each).

Format v8 then cut that index's postings again (340,843 to 323,843 B).
One-posting rows (7,776 of its 13,003 rows) store an empty ``hdr``
(``codec.pack_rows``; ``hdr`` 40,336 to 31,928 B), and the three payloads
went from PLAIN to DELTA_LENGTH_BYTE_ARRAY, which stores the value lengths
as one bit-packed delta run ahead of the bytes instead of a 4-byte length
before each value, so the page ZSTD compresses holds the payloads unbroken
(``docs`` + ``tfs`` + ``pos`` 195,086 to 186,529 B; at 100k turns, 2
segments compacted, 3,988,481 to 3,898,489 B). Measured on the v8 files and
left out:

    variant                          serve postings   100k postings   term+df read
    -------------------------------  --------------   -------------   ------------
    DELTA_LENGTH_BYTE_ARRAY on hdr   hdr -3.1%        hdr +9.1%       --
    df PLAIN under ZSTD              -1.15%           -0.20%          +22-31%

(the term+df read is every ``term``/``df`` of both segments' files, the
columns a term-dictionary load reads: 2.1 against 2.7 ms on serve, 6.7-7.1
against 8.7-8.8 ms at 100k, best of 7, one vCPU).

Invariant (checked by the tests and by ``verify.verify_index``): every row
group holds at most ``ROW_GROUP_ROWS`` rows of one field, and a group whose
payload exceeds ``ROW_GROUP_BYTES`` holds exactly one row. Readers need the
(field, term) statistics and ``codec.unpack_rows``; an index written in any
earlier layout is refused at open (``commit.INDEX_FORMAT_VERSION``) and
rebuilt, not read.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Datasink
from ray.data.block import Block, BlockAccessor

from .codec import seg_parts, strip_one_posting_headers

#: row cap of one postings row group
ROW_GROUP_ROWS = 256
#: blob payload (docs + tfs + pos bytes) at which a row group closes
ROW_GROUP_BYTES = 64 << 10
#: rows per postings file: the build's cap per file (a cold lookup opens
#: every file's footer, so fewer, larger files avoid per-file open cost; the
#: cap bounds one task's file). Compaction sizes its files by bytes
#: (``compact.RANGE_BYTES``)
ROWS_PER_FILE = 16384

_PAYLOAD_COLUMNS = ("docs", "tfs", "pos")

#: Parquet encoding of each postings column but the dictionary-encoded
#: ``field`` and the PLAIN ``hdr``
COLUMN_ENCODING = {
    "term": "DELTA_BYTE_ARRAY",
    "df": "DELTA_BINARY_PACKED",
    **{c: "DELTA_LENGTH_BYTE_ARRAY" for c in _PAYLOAD_COLUMNS},
}

#: compression codec of every postings column (a column missing here would
#: be written uncompressed): ZSTD on the columns it still shrinks, snappy on
#: the bit-packed ``df`` and the dictionary-encoded ``field``
COLUMN_COMPRESSION = {
    "field": "SNAPPY",
    "term": "ZSTD",
    "df": "SNAPPY",
    **{c: "ZSTD" for c in ("hdr", *_PAYLOAD_COLUMNS)},
}


def _blob_bytes(rows: pa.Table) -> np.ndarray:
    """Per-row blob payload (``docs`` + ``tfs`` + ``pos`` bytes) of packed
    postings rows."""
    return sum(
        pc.binary_length(rows[name]).to_numpy(zero_copy_only=False).astype(np.int64)
        for name in _PAYLOAD_COLUMNS
    )


def _row_group_bounds(payload: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Row offsets ``[0, ..., n]`` of the row groups for rows with the given
    blob ``payload``: greedy, each group as long as the row and byte caps allow
    (and at least one row), and a new group at every offset in ``breaks``
    (sorted)."""
    n = int(payload.size)
    cum = np.concatenate(([0], np.cumsum(payload, dtype=np.int64)))
    breaks = np.append(np.asarray(breaks, dtype=np.int64), n)
    bounds = [0]
    s = 0
    while s < n:
        fit = int(np.searchsorted(cum, cum[s] + ROW_GROUP_BYTES, side="right")) - 1
        brk = int(breaks[np.searchsorted(breaks, s, side="right")])
        s = min(max(s + 1, min(s + ROW_GROUP_ROWS, fit)), brk)
        bounds.append(s)
    return np.asarray(bounds, dtype=np.int64)


def _field_starts(field) -> np.ndarray:
    """Offsets of the rows whose ``field`` differs from the previous row's."""
    if len(field) < 2:
        return np.empty(0, dtype=np.int64)
    ne = pc.not_equal(field.slice(1), field.slice(0, len(field) - 1))
    return np.flatnonzero(ne.to_numpy(zero_copy_only=False)) + 1


def write_postings_file(table: pa.Table, path: str) -> None:
    """Write packed postings rows (``codec.pack_rows``) to one Parquet file
    in the layout above; the one place a one-posting row's header is
    dropped (``codec.strip_one_posting_headers``)."""
    table = strip_one_posting_headers(table)
    bounds = _row_group_bounds(_blob_bytes(table), _field_starts(table["field"]))
    with pq.ParquetWriter(
        path,
        table.schema,
        compression=COLUMN_COMPRESSION,
        use_dictionary=["field"],
        write_statistics=["field", "term"],
        column_encoding=COLUMN_ENCODING,
        store_schema=False,
    ) as w:
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            w.write_table(table.slice(lo, hi - lo), row_group_size=hi - lo)


class PostingsSink(Datasink):
    """``Dataset.write_datasink`` target for the postings rows of several
    segments, ``{segment: postings directory}``: every write task writes each
    segment's rows (its ``seg`` column, dropped on write) to
    ``<directory>/part-<task>-<file>.parquet`` through
    :func:`write_postings_file`, at most :data:`ROWS_PER_FILE` rows per file.
    The rows that ``staged`` (rows -> boolean mask) picks go the same way to
    the segment's directory in ``staging`` instead."""

    def __init__(self, paths: Dict[int, str], staging: Dict[int, str],
                 staged: Callable[[pa.Table], pa.ChunkedArray]):
        self.paths, self.staging, self.staged = paths, staging, staged

    def on_write_start(self) -> None:
        for path in (*self.paths.values(), *self.staging.values()):
            os.makedirs(path, exist_ok=True)

    def write(self, blocks: Iterable[Block], ctx) -> None:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return
        schema = pa.unify_schemas([t.schema for t in tables])
        table = pa.concat_tables(
            [t if t.schema.equals(schema) else t.cast(schema) for t in tables]
        )
        for seg, rows in seg_parts(table):
            rows = rows.drop_columns(["seg"])
            staged = self.staged(rows)
            for part, root in ((rows.filter(staged), self.staging[seg]),
                               (rows.filter(pc.invert(staged)), self.paths[seg])):
                for i, lo in enumerate(range(0, part.num_rows, ROWS_PER_FILE)):
                    write_postings_file(
                        part.slice(lo, ROWS_PER_FILE),
                        os.path.join(root, f"part-{ctx.task_idx:06d}-{i:06d}.parquet"),
                    )
