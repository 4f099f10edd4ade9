"""Immutable segment reader: postings / norms / stats access with lazy loading and
per-field term-dictionary caching.

A segment is a contiguous doc-id range in a write-once directory, named by the
write that created it (``commit.segment_name``: a build's segments are
``seg-00000``..., every later append or compaction takes the next number)::

    seg-00000/
      postings.parquet/   # a directory of piece files, rows (field, term,
                          # df, blocks) stored packed (codec.pack_rows)
      stats.json          # doc_base, doc_count, per-field total_dl (+ live
                          # stats after a compaction purged tombstones)
      convmap.parquet     # doc map, one file: one (conv_id, base, cnt) row
                          # per conversation, sorted by base
      MANIFEST.json       # lineage + completion marker (checkpoint/resume unit)
      deleted_<gen>.npy   # tombstones: sorted deleted doc ids, one file per
                          # delete generation; the commit names the live one
      purged.npy          # doc ids earlier compactions purged (compact.py)
      norms_<field>.npy   # per-doc field lengths, dense over the doc range,
                          # one per manifest field whose docs differ in
                          # length (a field of one length c has none: its
                          # stats.json entry holds "norm": c), written with
                          # the segment
    (result metadata and conversation deletes resolve through the doc map,
    doc_id = base + turn_idx; an empty segment holds its manifest alone; a
    reader adds nothing to a directory)

A non-empty segment in any other layout is refused at open
(:func:`check_layout`): rebuild the index.

Which directories and tombstones are live is the commit's business
(``commit.py``); a reader opens one directory and pins every file in it that
a later write's sweep may unlink (postings handles, the norms, the doc map,
the tombstone), so it keeps answering after that sweep.

Readers hold numpy norms arrays indexed by ``doc_id - doc_base`` (loaded at
open at their stored width, a constant field's a zero-memory broadcast of its
one value — designed to be pinned inside long-lived scorer actors) and fetch postings by
``(field, term)`` through parquet predicate pushdown, so a term lookup touches only
the row groups whose min/max term stats overlap. :meth:`SegmentReader.decode`
is the one place raw blocks become postings, and the one place tombstoned
docs are dropped: the plain evaluator and every block-max executor decode
through it. Everything a query derives and keeps for the next one lives in
the reader's one :class:`ReaderCache`.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import commit
from .build import CONVMAP_FILE, MANIFEST_FILE, _narrowest_uint, norms_file
from .codec import (BLOCK_COLUMNS, RawBlocks, encode_runs, int64_column, numeric_array,
                    row_order, sort_postings, unpack_rows)

#: byte budget of one reader's :class:`ReaderCache`, all pools together
READER_CACHE_BYTES = 384 << 20

#: bytes charged per entry for its Python objects, on top of its arrays, so
#: entries without array bytes (empty results, absent terms) stay bounded too
_ENTRY_BYTES = 512

_STAT_FIELDS = ("entries", "bytes", "hits", "misses", "evictions")


def _nbytes(value) -> int:
    """Bytes one cache entry holds: tuples sum their members; ndarrays, Arrow
    arrays and anything else with an ``nbytes`` property (``RawBlocks``,
    ``_StepMax``) count it; scalars and None count 0."""
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


class ReaderCache:
    """Every piece of derived query state one :class:`SegmentReader` keeps
    across queries: named pools in one LRU bounded by
    :data:`READER_CACHE_BYTES` (a hit moves its entry to the end; a put past
    the budget evicts from the front). Entries only skip work — every
    executor is exact with an empty cache, so eviction never changes a rank
    or a score. Norms, term dictionaries, the doc map and the postings file
    handles are loaded once per reader and pinned outside the budget.

    Pools by scope. **Segment** scope depends only on the segment's immutable
    files: ``raw`` (undecoded blocks) and ``phr_stepfn`` (max_tf step
    functions); the block-max executors read each block's bound inputs
    straight from ``raw``. **Commit**
    scope also depends on tombstones or on global idf/avgdl: ``post`` and
    ``pruned`` (decoded postings, whole or around a candidate set),
    ``score``, ``conj_stepfn``, ``match`` (complete match sets), ``term_topk``,
    ``wand_pruned`` and ``result``.

    Callers use the value they computed, never a re-read after their own
    ``put``: an entry larger than the whole budget is returned but not kept,
    and any later put may evict it. Code outside this class keeps no cache
    attributes on a reader."""

    def __init__(self):
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()  # -> (value, nbytes)
        self._bytes = 0
        self._counts: Dict[str, List[int]] = {}  # pool -> _STAT_FIELDS

    def get(self, pool: str, key):
        """The cached value, or None on a miss."""
        c = self._counts.setdefault(pool, [0] * 5)
        item = self._entries.get((pool, key))
        if item is None:
            c[3] += 1
            return None
        c[2] += 1
        self._entries.move_to_end((pool, key))
        return item[0]

    def put(self, pool: str, key, value):
        """Cache ``value`` (replacing any entry under ``key``) and return it.
        A value over the whole budget is not kept and counts as an eviction."""
        self.pop(pool, key)
        n = _nbytes(value) + _ENTRY_BYTES
        c = self._counts.setdefault(pool, [0] * 5)
        if n > READER_CACHE_BYTES:
            c[4] += 1
            return value
        self._entries[(pool, key)] = (value, n)
        self._bytes += n
        c[0] += 1
        c[1] += n
        while self._bytes > READER_CACHE_BYTES:
            (old, _k), (_v, m) = self._entries.popitem(last=False)
            self._drop(old, m)[4] += 1
        return value

    def pop(self, pool: str, key):
        """Remove and return the entry under ``key`` (None when absent)."""
        item = self._entries.pop((pool, key), None)
        if item is None:
            return None
        self._drop(pool, item[1])
        return item[0]

    def _drop(self, pool: str, n: int) -> List[int]:
        self._bytes -= n
        c = self._counts[pool]
        c[0] -= 1
        c[1] -= n
        return c

    def stats(self) -> Dict[str, Dict[str, int]]:
        """{pool: {entries, bytes, hits, misses, evictions}} for every pool
        touched so far."""
        return {p: dict(zip(_STAT_FIELDS, c)) for p, c in self._counts.items()}


class SegmentReader:
    """One segment directory, opened with the tombstone file its commit names
    (``tombstone``: a path, None without deletes)."""

    def __init__(self, seg_dir: str, tombstone: Optional[str] = None):
        self.seg_dir = seg_dir
        manifest_path = os.path.join(seg_dir, MANIFEST_FILE)
        with open(manifest_path) as f:
            self.manifest = json.load(f)
        if self.manifest.get("status") != "complete":
            raise ValueError(f"segment {seg_dir} is incomplete")
        self.empty = bool(self.manifest.get("empty"))
        if self.empty:
            self.stats = {"doc_base": 0, "doc_count": 0, "fields": {}}
        else:
            with open(os.path.join(seg_dir, "stats.json")) as f:
                self.stats = json.load(f)
        self.doc_base = int(self.stats["doc_base"])
        self.doc_count = int(self.stats["doc_count"])
        self._norms: Dict[str, np.ndarray] = {}
        self._term_dicts: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._conv_map: Optional[Tuple[pa.Array, np.ndarray, np.ndarray]] = None
        self._postings_pf_cache: Optional[list] = None
        self.cache = ReaderCache()
        #: what :meth:`_read_postings_rows` has read from the postings files:
        #: calls, row groups and their compressed bytes (column chunks,
        #: page headers included); cache hits read nothing, and neither do
        #: ``absent_terms``, the lookups :meth:`raw_blocks_many` answered
        #: empty from the term dictionary
        self.postings_read = {"calls": 0, "row_groups": 0,
                              "compressed_bytes": 0, "absent_terms": 0}
        # tombstones: sorted global doc ids marked deleted (the file the
        # caller's commit names, written by index.delete). Loaded once at
        # reader construction — readers opened after a delete see it (Lucene
        # reopen semantics). Postings are filtered in ``decode``;
        # df/norms/avgdl stats intentionally keep counting tombstoned docs
        # until a rewrite, exactly like Lucene's maxDoc-based stats before a
        # merge.
        self.deleted: Optional[np.ndarray] = None
        if tombstone is not None:
            try:
                arr = np.load(tombstone).astype(np.int64, copy=False)
                if arr.size:
                    self.deleted = arr
            except (OSError, ValueError):
                raise ValueError(f"unreadable tombstone file {tombstone}")
        if not self.empty:
            check_layout(seg_dir, self.manifest.get("fields", []), self.stats)
            # pin what a later write's sweep may unlink: open postings
            # handles survive it, and so do the loaded norms and doc map
            try:
                self._postings_files()
                self._load_norms()
                self.conv_map()
            except FileNotFoundError:
                if os.path.exists(manifest_path):
                    raise  # not a sweep: that removes the manifest first
        # a sweep removes the manifest before the rest of a directory: if it
        # is still here, everything above was read before any of it went
        if not os.path.exists(manifest_path):
            raise ValueError(
                f"segment {seg_dir} was removed by a later write while it "
                "opened; reopen the index"
            )

    # ---- stats ----

    def total_dl(self, field: str) -> int:
        return int(self.stats["fields"].get(field, {}).get("total_dl", 0))

    @property
    def live_docs(self) -> int:
        """numDocs for corpus-level stats: equals maxDoc (``doc_count``) until
        a compaction purge records the post-delete live count."""
        return int(self.stats.get("live_docs", self.doc_count))

    def live_total_dl(self, field: str) -> int:
        st = self.stats["fields"].get(field, {})
        return int(st.get("live_dl", st.get("total_dl", 0)))

    # ---- norms ----

    def norms(self, field: str) -> np.ndarray:
        """Per-doc token count for ``field``, indexed by ``doc_id - doc_base``,
        read-only at its stored width (uint8/16/32: gather, then compute in
        int64 or float64)."""
        return self._norms[field]

    def _load_norms(self) -> None:
        """Every manifest field's norms, as the build wrote them (dense over
        maxDoc, so tombstoned docs keep their lengths), loaded once and
        pinned at their stored width: its norms file, or for a field whose
        ``stats.json`` entry holds one ``norm``, that value broadcast over
        the segment's docs (no memory per doc)."""
        for field in self.manifest.get("fields", []):
            st = self.stats["fields"].get(field, {})
            if "norm" in st:
                c = _narrowest_uint(np.array([st["norm"]], np.int64))
                self._norms[field] = np.broadcast_to(c, (self.doc_count,))
                continue
            path = os.path.join(self.seg_dir, norms_file(field))
            arr = np.load(path)
            arr.flags.writeable = False
            if arr.size != self.doc_count:
                raise ValueError(
                    f"{path} holds {arr.size} norms, its segment {self.doc_count} docs"
                )
            self._norms[field] = arr

    # ---- term dictionary ----

    def term_dict(self, field: str) -> Tuple[np.ndarray, np.ndarray]:
        """(terms sorted unique, df per term) for one field (buckets aggregated)."""
        if field not in self._term_dicts:
            t = None
            if not self.empty:
                t = self._read_postings_rows(field, columns=("term", "df"))
            if t is None:
                self._term_dicts[field] = (
                    np.empty(0, dtype=object),
                    np.empty(0, dtype=np.int64),
                )
            else:
                # sort and sum runs in numpy: Table.group_by imports
                # pyarrow.acero, whose first import tries pandas three times
                t = t.take(pc.sort_indices(t["term"]))
                terms = np.asarray(t["term"].to_pylist(), dtype=object)
                first = np.ones(terms.size, dtype=bool)
                first[1:] = terms[1:] != terms[:-1]
                starts = np.flatnonzero(first)
                dfs = int64_column(t["df"].combine_chunks())
                self._term_dicts[field] = (
                    terms[starts],
                    np.add.reduceat(dfs, starts) if starts.size else dfs,
                )
        return self._term_dicts[field]

    def dfs(self, field: str, terms: Sequence[str]) -> Dict[str, int]:
        """df for specific terms (term-dict binary search; 0 when absent)."""
        dict_terms, dict_dfs = self.term_dict(field)
        out = {}
        for term in terms:
            i = np.searchsorted(dict_terms, term)
            if i < dict_terms.size and dict_terms[i] == term:
                out[term] = int(dict_dfs[i])
            else:
                out[term] = 0
        return out

    # ---- postings ----

    def postings_many(
        self,
        field: str,
        terms: Sequence[str],
        want_positions: bool = False,
        candidates: Optional[np.ndarray] = None,
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """:meth:`decode` of many terms' blocks from the ``raw`` pool (one
        predicate-pushdown read for the terms it misses); decoded lists are
        cached across queries (the readers live in pinned actors).

        ``candidates`` (a sorted doc-id array) enables exact conjunctive block
        pruning: blocks whose [first_doc, last_doc] range contains no candidate
        are skipped *before* decode (the block-max metadata's range half), in
        memory — a parquet read per pruned repeat was 77% of repeat
        conjunctive latency. Pruned results are cached in the ``pruned`` pool
        under a digest of ``candidates``."""
        if self.empty or not terms:
            return {}
        out: Dict[str, Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = {}
        cand_key = None
        if candidates is not None:
            cand_key = hashlib.md5(np.ascontiguousarray(candidates).tobytes()).hexdigest()[:16]
        missing = []
        for term in set(terms):
            hit = self.cache.get("post", (field, term, want_positions))
            if hit is None and cand_key is not None:
                hit = self.cache.get("pruned", (field, term, want_positions, cand_key))
            if hit is not None:
                out[term] = hit
            else:
                missing.append(term)
        for term, rb in self.raw_blocks_many(field, missing).items():
            keep = None
            if cand_key is not None:
                keep = _overlap_mask(rb.firsts, rb.lasts, candidates)
            if not len(rb) or (keep is not None and not keep.any()):
                continue
            out[term] = self.decode(rb, keep, want_positions)
            if cand_key is None:
                self.cache.put("post", (field, term, want_positions), out[term])
            else:
                self.cache.put("pruned", (field, term, want_positions, cand_key), out[term])
        return out

    def decode(
        self, rb: RawBlocks, keep: Optional[np.ndarray] = None,
        want_positions: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The one place raw blocks become postings: (doc_ids, tfs, flat
        positions|None) of all blocks of ``rb`` or the ``keep`` mask's, in doc
        order (uncompacted pieces can interleave), without this reader's
        tombstoned docs (Lucene's liveDocs: executors never special-case
        deletes). The block-max executors rely on these preconditions:

        * block ``n``, ``first_doc``, ``last_doc``, ``max_tf`` and ``min_dl``
          cover deleted docs too, so every bound stays an upper bound;
        * ``rb.ns`` sums are cost estimates, not live counts;
        * θ comes only from decoded, live docs (so the WAND bootstrap's
          ``seen_docs`` counts live docs);
        * df, N and avgdl keep maxDoc semantics until a purge;
        * commit-scope pool entries hold live docs only, exact because a
          reader's tombstone is fixed when it opens."""
        docs, tfs, pos = sort_postings(*rb.decode(want_positions, keep=keep))
        if self.deleted is None:
            return docs, tfs, pos
        live = live_mask(self.deleted, docs)
        if live.all():
            return docs, tfs, pos
        if pos is not None and pos.size:
            pos = pos[np.repeat(live, tfs)]
        return docs[live], tfs[live], pos

    def postings(
        self, field: str, term: str, want_positions: bool = False
    ) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        return self.postings_many(field, [term], want_positions).get(term)

    def raw_blocks_many(self, field: str, terms: Sequence[str]) -> Dict[str, RawBlocks]:
        """UNDECODED blocks per term (bucket order) as zero-copy
        :class:`RawBlocks` views, for metadata-guided selective decode
        (block-max WAND / conjunctive pruning). One predicate-pushdown read for
        all missing terms; cached like decoded postings.

        Missing terms are first looked up in ``field``'s term dictionary
        (loaded on first use; ``resolve`` usually has loaded it at plan time):
        a term it lacks gets the empty blocks with no Parquet read, counted in
        ``postings_read["absent_terms"]``; the statistics alone would select
        the row group whose (field, term) range covers it and decode it only
        to filter every row out."""
        if self.empty or not terms:
            return {}
        out: Dict[str, RawBlocks] = {}
        missing = []
        for term in set(terms):
            hit = self.cache.get("raw", (field, term))
            if hit is not None:
                out[term] = hit
            else:
                missing.append(term)
        if missing:
            dfs = self.dfs(field, missing)
            absent = [t for t in missing if not dfs[t]]
            for term in absent:
                out[term] = self._empty_raw(field, term)
            self.postings_read["absent_terms"] += len(absent)
            missing = [t for t in missing if dfs[t]]
        if missing:
            t = self._read_postings_rows(field, missing)
            if t is not None and t.num_rows:
                term = t["term"]  # increasing: one row a term, in (term, bucket) order
                if not pc.all(pc.greater(term[1:], term[:-1]), min_count=0).as_py():
                    t = t.take(row_order(t, ["term"]))
                t, blocks, loff = unpack_rows(t, {field: self._norms[field]},
                                              self.doc_base)
                terms_np = t["term"].to_pylist()
                i = 0
                while i < len(terms_np):
                    j = i
                    while j < len(terms_np) and terms_np[j] == terms_np[i]:
                        j += 1
                    out[terms_np[i]] = blocks.slice(int(loff[i]), int(loff[j]))
                    i = j
            for term in missing:
                if term in out:
                    self.cache.put("raw", (field, term), out[term])
                else:
                    out[term] = self._empty_raw(field, term)
        return out

    def _empty_raw(self, field: str, term: str) -> RawBlocks:
        """The cached empty blocks of a term this segment does not hold."""
        none = np.empty(0, np.int64)
        rb, _ = encode_runs(none, none, none)
        self.cache.put("raw", (field, term), rb)
        return rb

    def _postings_files(self) -> list:
        """(Parquet handle, per-row-group (field, term) min/max stats,
        per-row-group compressed bytes, path) of every postings piece file,
        parsed ONCE per reader (readers are pinned in long-lived scorer
        actors) and shared with compaction's range planning. The
        per-query ``pq.read_table(dir, filters=...)`` was paying dataset
        discovery + open + footer parse on EVERY cold (field, terms) miss — a
        ~12 ms floor per call even for absent terms (the dominant rep-1 cost
        of sequential serving).

        ``postings.parquet`` is a DIRECTORY of ``*.parquet`` piece files —
        the layout every writer here produces (``writer.PostingsSink`` in
        build and append, ``compact._merge_range`` in compaction); the reader
        refuses a single file at open (:func:`check_layout`). A file without
        (field, term) statistics gets ``None`` stats and is read whole."""
        if self._postings_pf_cache is not None:
            return self._postings_pf_cache
        root = os.path.join(self.seg_dir, "postings.parquet")
        entries = []
        for name in sorted(os.listdir(root)):
            if not name.endswith(".parquet"):
                continue
            path = os.path.join(root, name)
            pf = pq.ParquetFile(path)
            md = pf.metadata
            groups = [md.row_group(g) for g in range(md.num_row_groups)]
            group_bytes = np.array([
                sum(rg.column(i).total_compressed_size for i in range(rg.num_columns))
                for rg in groups
            ], dtype=np.int64)
            names = md.schema.names
            st = [[rg.column(names.index(c)).statistics for c in ("field", "term")]
                  for rg in groups] if {"field", "term"} <= set(names) else []
            stats = None  # no stats: read the file whole, filter exactly
            if st and all(x is not None and x.has_min_max for pair in st for x in pair):
                stats = tuple(np.array([getattr(pair[c], m) for pair in st])
                              for c in (0, 1) for m in ("min", "max"))
            entries.append((pf, stats, group_bytes, path))
        self._postings_pf_cache = entries
        return entries

    def _read_postings_rows(
        self,
        field: str,
        terms: Optional[Sequence[str]] = None,
        columns: Sequence[str] = ("term", *BLOCK_COLUMNS),
    ):
        """Stored ``columns`` of the ``postings.parquet`` rows matching (field, term
        in terms) — every row of ``field`` when ``terms`` is None — read
        through cached handles with row-group pruning on the writers' (field,
        term) min/max stats. Parquet stat truncation keeps min a prefix (a
        valid lower bound) and increments max's last byte (a valid upper
        bound), so pruning can only over-include — the exact filter below
        decides membership. Row groups spanning a field boundary skip the term
        test (term order restarts per field) and rely on the exact filter.
        The default ``columns`` are those ``codec.unpack_rows`` takes. Every
        call and the row groups it reads count in :attr:`postings_read`."""
        read_cols = list(dict.fromkeys(("field", "term", *columns)))
        if terms is not None:
            ms = sorted(set(terms))
            ms_np = np.array(ms)
            vs = pa.array(ms, pa.string())
        parts = []
        self.postings_read["calls"] += 1
        for pf, stats, group_bytes, _ in self._postings_files():
            if stats is None:
                gs = np.arange(group_bytes.size)
                t = pf.read(columns=read_cols)
            else:
                fmin, fmax, tmin, tmax = stats
                hit = (fmin <= field) & (field <= fmax)
                pure = hit & (fmin == fmax)  # single-field groups: term-prunable
                if terms is not None and pure.any():
                    # first wanted term >= tmin must be <= tmax for overlap
                    first = np.searchsorted(ms_np, tmin[pure])
                    sub = np.zeros(int(pure.sum()), dtype=bool)
                    inb = first < ms_np.size
                    sub[inb] = ms_np[first[inb]] <= tmax[pure][inb]
                    keep = hit.copy()
                    keep[np.flatnonzero(pure)] = sub
                    hit = keep
                gs = np.flatnonzero(hit)
                if gs.size == 0:
                    continue
                t = pf.read_row_groups(gs.tolist(), columns=read_cols)
            self.postings_read["row_groups"] += int(gs.size)
            self.postings_read["compressed_bytes"] += int(group_bytes[gs].sum())
            keep = pc.equal(t["field"], pa.scalar(field, pa.string()))
            if terms is not None:
                keep = pc.and_(keep, pc.is_in(t["term"], value_set=vs))
            t = t.filter(keep)
            if t.num_rows:
                parts.append(t)
        if not parts:
            return None
        t = pa.concat_tables(parts) if len(parts) > 1 else parts[0]
        return t.select(list(columns))

    # ---- doc metadata (conv_id, turn_idx) for result rows ----

    def conv_map(self) -> Tuple[pa.Array, np.ndarray, np.ndarray]:
        """(conv_id, base, cnt) of this segment's conversations, ascending base:
        conversation ``i`` holds docs ``[base[i], base[i] + cnt[i])`` (doc_id =
        base + turn_idx by construction). Read once from the segment's
        ``convmap.parquet`` as its writer left it: sorted by base and covering
        exactly the segment. ``ParquetFile``, not ``pq.read_table``, which
        imports ``pyarrow.dataset``, whose first import tries pandas three
        times (refused in a scorer actor, search/engine.py)."""
        if self._conv_map is None:
            t = pq.ParquetFile(os.path.join(self.seg_dir, CONVMAP_FILE)).read(
                columns=["conv_id", "base", "cnt"]
            )
            self._conv_map = (
                t["conv_id"].combine_chunks(),
                int64_column(t["base"].combine_chunks()),
                int64_column(t["cnt"].combine_chunks()),
            )
        return self._conv_map

    def doc_meta(self, doc_ids: np.ndarray) -> pa.Table:
        """(doc_id, conv_id, turn_idx) of ``doc_ids`` (all in this segment):
        one searchsorted over the doc map's bases."""
        convs, bases, _ = self.conv_map()
        ids = np.asarray(doc_ids, dtype=np.int64)
        idx = np.searchsorted(bases, ids, side="right") - 1
        return pa.table(
            {
                "doc_id": numeric_array(ids),
                "conv_id": convs.take(numeric_array(idx)),
                "turn_idx": numeric_array((ids - bases[idx]).astype(np.int32)),
            }
        )

    def conv_docs(self, conv_ids: pa.Array) -> np.ndarray:
        """Doc ids of every turn of the conversations ``conv_ids`` (plain string
        array) that live in this segment, ascending."""
        convs, bases, cnts = self.conv_map()
        hit = pc.is_in(convs, value_set=conv_ids).to_numpy(zero_copy_only=False)
        b, n = bases[hit], cnts[hit]
        start = np.cumsum(n) - n
        return np.repeat(b - start, n) + np.arange(int(n.sum()), dtype=np.int64)


def check_layout(seg_dir: str, fields: Sequence[str],
                 stats: Optional[dict] = None) -> None:
    """Raise the rebuild error (``commit.rebuild_error``) unless the non-empty
    segment ``seg_dir`` has today's layout: ``postings.parquet`` a directory
    of piece files, ``convmap.parquet`` one file and, for each of ``fields``
    (its manifest's), a norms file or a constant ``norm`` in ``stats``
    (its ``stats.json``, read here when not given and a file is missing).
    File stats and that one small read, so the engine checks every
    committed segment before any scorer opens one."""
    if not os.path.isdir(os.path.join(seg_dir, "postings.parquet")):
        raise commit.rebuild_error(seg_dir, "postings.parquet is not a directory")
    if not os.path.isfile(os.path.join(seg_dir, CONVMAP_FILE)):
        raise commit.rebuild_error(seg_dir, f"{CONVMAP_FILE} is not one file")
    for field in fields:
        if os.path.isfile(os.path.join(seg_dir, norms_file(field))):
            continue
        if stats is None:
            with open(os.path.join(seg_dir, "stats.json")) as f:
                stats = json.load(f)
        if "norm" not in stats["fields"].get(field, {}):
            raise commit.rebuild_error(
                seg_dir, f"{norms_file(field)} is missing and stats.json holds "
                f"no constant norm of {field}")


def live_mask(deleted: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """True for each doc of ``docs`` that the sorted tombstone array
    ``deleted`` (non-empty) does not name: the one tombstone filter, used by
    :meth:`SegmentReader.decode` and by compaction's purge."""
    hit = np.clip(np.searchsorted(deleted, docs), 0, deleted.size - 1)
    return deleted[hit] != docs


def _overlap_mask(
    firsts: np.ndarray, lasts: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """True for blocks whose doc range contains at least one candidate doc."""
    lo = np.searchsorted(candidates, firsts, side="left")
    hi = np.searchsorted(candidates, lasts, side="right")
    return hi > lo


def load_segments(index_dir: str) -> List[SegmentReader]:
    """Readers for the segments of the current commit; uncommitted leftovers
    from a failed write are ignored."""
    c = commit.read(index_dir)
    return [
        SegmentReader(commit.segment_dir(index_dir, s.name),
                      commit.tombstone_path(index_dir, s))
        for s in c["segments"]
    ]
