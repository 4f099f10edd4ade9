"""Structured build/index report: one JSON-able dict aggregating everything
the build and compaction record about an index — metadata, per-phase wall
times, per-segment manifests and live stats, on-disk footprint by component
(postings, norms files, doc maps, everything else), each field's norms form
(a file's bytes, or ``"constant"``), postings layout (row groups, footer
bytes, compressed bytes per Parquet leaf column, one-posting rows), lifecycle
state (tombstones, purges, appends).

This is the metrics/lineage surface: scaling and health claims should be
corroborated by these per-stage numbers (plus each segment's Ray Data
``stage_stats.txt``, written into the first segment each Ray Data execution
wrote, so that execution's operators count once), not only end-to-end wall
clock.
"""

from __future__ import annotations

import json
import os
import re
from typing import Optional

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import commit
from .build import norms_file

_TIME_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}

_OP_RE = re.compile(
    r"^Operator \d+ (?P<name>.+?): (?P<tasks>\d+) tasks executed, "
    r"(?P<blocks>\d+) blocks produced in (?P<wall>[\d.]+)(?P<unit>us|ms|s)$"
)
#: an all-to-all operator (sort, shuffle): its wall clock on this line, its
#: tasks on the Suboperator lines below it
_ALL_TO_ALL_RE = re.compile(
    r"^Operator \d+ (?P<name>.+?): executed in (?P<wall>[\d.]+)(?P<unit>us|ms|s)$"
)
_SUBOP_RE = re.compile(
    r"^Suboperator \d+ .+?: (?P<tasks>\d+) tasks executed, "
    r"(?P<blocks>\d+) blocks produced$"
)
_TOTAL_RE = re.compile(
    r"^\* (?P<what>Remote wall time|Remote cpu time|UDF time): .*?"
    r"(?P<total>[\d.]+)(?P<unit>us|ms|s) total$"
)
_ROWS_RE = re.compile(r"^\* Output num rows per block: .* (?P<total>\d+) total$")
_BYTES_RE = re.compile(r"^\* Output size bytes per block: .* (?P<total>\d+) total$")
_THROUGHPUT_RE = re.compile(r"^\* Ray Data throughput: (?P<v>[\d.eE+-]+) rows/s$")

_TOTAL_KEY = {
    "Remote wall time": "remote_wall_sec",
    "Remote cpu time": "remote_cpu_sec",
    "UDF time": "udf_sec",
}


def parse_stage_stats(text: str) -> list[dict]:
    """Parse Ray Data's ``ds.stats()`` text into one structured dict per
    operator: task/block counts, operator wall clock, total remote wall/cpu/
    UDF seconds, output rows/bytes, throughput, and the derived
    ``effective_parallelism`` (total remote wall / operator wall — the
    per-stage number scaling claims should cite). An all-to-all operator
    (a sort) is one dict: its sub-operators' tasks and remote times add up,
    its blocks and output are the last sub-operator's."""
    ops: list[dict] = []
    cur: Optional[dict] = None
    for raw in text.splitlines():
        line = raw.strip()
        m = _OP_RE.match(line)
        if m:
            cur = {
                "operator": m["name"],
                "tasks": int(m["tasks"]),
                "blocks": int(m["blocks"]),
                "wall_sec": round(float(m["wall"]) * _TIME_UNIT[m["unit"]], 6),
            }
            ops.append(cur)
            continue
        m = _ALL_TO_ALL_RE.match(line)
        if m:
            cur = {
                "operator": m["name"],
                "tasks": 0,
                "blocks": 0,
                "wall_sec": round(float(m["wall"]) * _TIME_UNIT[m["unit"]], 6),
            }
            ops.append(cur)
            continue
        if cur is None:
            continue
        if line.startswith("Dataset throughput"):
            cur = None
            continue
        m = _SUBOP_RE.match(line)
        if m:
            cur["tasks"] += int(m["tasks"])
            cur["blocks"] = int(m["blocks"])
            continue
        m = _TOTAL_RE.match(line)
        if m:
            key = _TOTAL_KEY[m["what"]]
            cur[key] = round(
                cur.get(key, 0.0) + float(m["total"]) * _TIME_UNIT[m["unit"]], 6
            )
            continue
        m = _ROWS_RE.match(line)
        if m:
            cur["output_rows"] = int(m["total"])
            continue
        m = _BYTES_RE.match(line)
        if m:
            cur["output_bytes"] = int(m["total"])
            continue
        m = _THROUGHPUT_RE.match(line)
        if m and "rows_per_sec" not in cur:
            cur["rows_per_sec"] = round(float(m["v"]), 1)
    for op in ops:
        wall = op.get("wall_sec") or 0.0
        if wall > 0 and "remote_wall_sec" in op:
            op["effective_parallelism"] = round(op["remote_wall_sec"] / wall, 2)
    return ops


def _aggregate_stages(per_segment: list[list[dict]]) -> list[dict]:
    """Sum each operator's numbers across segments (keyed by operator name,
    in first-seen order) — the index-level per-stage rollup."""
    order: list[str] = []
    agg: dict[str, dict] = {}
    for stages in per_segment:
        for op in stages:
            name = op["operator"]
            if name not in agg:
                order.append(name)
                agg[name] = {"operator": name, "segments": 0}
            a = agg[name]
            a["segments"] += 1
            for k in ("tasks", "blocks", "wall_sec", "remote_wall_sec",
                      "remote_cpu_sec", "udf_sec", "output_rows",
                      "output_bytes"):
                if k in op:
                    a[k] = round(a.get(k, 0) + op[k], 6)
    for a in agg.values():
        wall = a.get("wall_sec") or 0.0
        if wall > 0 and "remote_wall_sec" in a:
            a["effective_parallelism"] = round(a["remote_wall_sec"] / wall, 2)
    return [agg[n] for n in order]


#: the components an index's bytes break down into (see :func:`_index_bytes`)
BYTE_COMPONENTS = (
    "postings_bytes", "norms_bytes", "docmeta_bytes", "other_bytes",
)


#: bytes of a Parquet file outside its chunks and footer: the leading
#: ``PAR1``, the footer's 4-byte length and the trailing ``PAR1``
PARQUET_MAGIC_BYTES = 12


def _component(parts: tuple) -> str:
    """The byte component of one file, from its path parts under the index
    dir: a segment's postings files, norms files and doc map, and
    everything else (manifests, stats, tombstones, build reports)."""
    if parts[0] == "segments" and len(parts) >= 3:
        if parts[2] == "postings.parquet":
            return "postings_bytes"
        if parts[2] == "convmap.parquet":
            return "docmeta_bytes"
        if parts[2].startswith("norms_") and parts[2].endswith(".npy"):
            return "norms_bytes"
    return "other_bytes"


def _index_bytes(index_dir: str) -> tuple[dict, dict]:
    """Bytes of every file under ``index_dir`` by component: ({component:
    bytes} over the whole index, {segment directory: {component: bytes}}).
    Each file has exactly one component, so the components sum to the bytes
    on disk."""
    total = dict.fromkeys(BYTE_COMPONENTS, 0)
    per_seg: dict = {}
    for root, _dirs, files in os.walk(index_dir):
        rel = os.path.relpath(root, index_dir)
        for f in files:
            parts = tuple(p for p in rel.split(os.sep) if p != ".") + (f,)
            try:
                size = os.path.getsize(os.path.join(root, f))
            except OSError:
                continue
            comp = _component(parts)
            total[comp] += size
            if parts[0] == "segments" and len(parts) >= 3:
                per_seg.setdefault(parts[1], dict.fromkeys(BYTE_COMPONENTS, 0))[comp] += size
    return total, per_seg


def _postings_layout(seg_dir: str) -> tuple[int, int, int, dict, int]:
    """(row groups, footer bytes, inline metadata bytes, {leaf column:
    compressed bytes}, one-posting rows) of a segment's postings files, from
    their footers, their sizes and their ``df`` columns (no other data page
    is read; a one-posting row, ``df`` 1, stores no header). Column keys
    are Parquet leaf paths (``hdr``, ``docs``, ...). The inline metadata is the copy of each
    chunk's ``ColumnMetaData`` the writer puts after the chunk's pages, outside
    both the chunk's compressed size and the footer: a file's bytes less its
    footer, its chunks and its :data:`PARQUET_MAGIC_BYTES`."""
    root = os.path.join(seg_dir, "postings.parquet")
    groups = footer = inline = singletons = 0
    columns: dict = {}
    for name in sorted(os.listdir(root)) if os.path.isdir(root) else []:
        if name.endswith(".parquet"):
            path = os.path.join(root, name)
            pf = pq.ParquetFile(path)
            md = pf.metadata
            df = pf.read(columns=["df"])["df"]
            singletons += pc.sum(pc.equal(df, 1)).as_py() or 0
            groups += md.num_row_groups
            footer += md.serialized_size
            inline += os.path.getsize(path) - md.serialized_size - PARQUET_MAGIC_BYTES
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                for i in range(rg.num_columns):
                    col = rg.column(i)
                    columns[col.path_in_schema] = (
                        columns.get(col.path_in_schema, 0)
                        + col.total_compressed_size
                    )
                    inline -= col.total_compressed_size
    return groups, footer, inline, columns, singletons


def _norms_forms(seg_dir: str, stats: dict) -> dict:
    """{field: ``"constant"`` (its one norm is in ``stats.json``) or its
    norms file's bytes} of one segment."""
    out = {}
    for field, st in stats.get("fields", {}).items():
        path = os.path.join(seg_dir, norms_file(field))
        out[field] = ("constant" if "norm" in st else
                      os.path.getsize(path) if os.path.isfile(path) else 0)
    return out


def build_report(index_dir: str) -> dict:
    """Aggregate an index directory into one structured report dict: the
    segments of its current commit, in commit (doc) order, each with its
    tombstone file and count; ``index_bytes`` counts every file on disk."""
    meta = commit.read(index_dir)

    metrics: Optional[dict] = None
    mpath = os.path.join(index_dir, "build_metrics.json")
    if os.path.isfile(mpath):
        with open(mpath) as f:
            metrics = json.load(f)

    segments = []
    total_bytes, seg_bytes = _index_bytes(index_dir)
    total_posting_rows = 0
    total_purged = 0
    total_groups = total_footer = total_inline = total_singletons = 0
    total_columns: dict = {}
    any_tombstones = False
    for s in meta["segments"]:
        name = s.name
        seg_dir = commit.segment_dir(index_dir, name)
        man_path = os.path.join(seg_dir, "MANIFEST.json")
        if not os.path.isfile(man_path):
            continue
        with open(man_path) as f:
            man = json.load(f)
        stats = {}
        st_path = os.path.join(seg_dir, "stats.json")
        if os.path.isfile(st_path):
            with open(st_path) as f:
                stats = json.load(f)
        tomb = commit.tombstone_path(index_dir, s)
        tombstoned = tomb is not None
        any_tombstones = any_tombstones or tombstoned
        stages: list[dict] = []
        ss_path = os.path.join(seg_dir, "stage_stats.txt")
        if os.path.isfile(ss_path):
            try:
                with open(ss_path) as f:
                    stages = parse_stage_stats(f.read())
            except (OSError, ValueError):
                stages = []
        posting_rows = int(man.get("posting_rows") or 0)
        total_posting_rows += posting_rows
        purged = int(man.get("purged_docs") or 0)
        total_purged += purged
        groups, footer, inline, columns, singletons = _postings_layout(seg_dir)
        total_singletons += singletons
        total_groups += groups
        total_footer += footer
        total_inline += inline
        for c, n in columns.items():
            total_columns[c] = total_columns.get(c, 0) + n
        comps = seg_bytes.get(name, dict.fromkeys(BYTE_COMPONENTS, 0))
        seg = {
            "segment": name,
            "status": man.get("status"),
            "docs": int(man.get("doc_count") or stats.get("doc_count") or 0),
            "posting_rows": posting_rows,
            "compacted": bool(man.get("compacted")),
            "empty": bool(man.get("empty")),
            "tombstoned": tombstoned,
            "tombstone": s.deleted,
            "tombstoned_docs": (
                int(np.load(tomb, mmap_mode="r").size) if tombstoned else 0
            ),
            "purged_docs": purged,
            "bytes": sum(comps.values()),
            **comps,
            "postings_row_groups": groups,
            "postings_footer_bytes": footer,
            "postings_inline_meta_bytes": inline,
            "postings_column_bytes": columns,
            "postings_singleton_rows": singletons,
            "norms": _norms_forms(seg_dir, stats),
        }
        if "live_docs" in stats:
            seg["live_docs"] = int(stats["live_docs"])
        if stages:
            seg["stages"] = stages
        segments.append(seg)

    stage_totals = _aggregate_stages(
        [s["stages"] for s in segments if "stages" in s]
    )
    report = {
        "index_dir": os.path.abspath(index_dir),
        "meta": meta,
        "build_metrics": metrics,
        "segments": segments,
        "stage_totals": stage_totals,
        "totals": {
            "segments": len(segments),
            "docs": sum(s["docs"] for s in segments),
            "posting_rows": total_posting_rows,
            "purged_docs": total_purged,
            "postings_row_groups": total_groups,
            "postings_footer_bytes": total_footer,
            "postings_inline_meta_bytes": total_inline,
            "postings_column_bytes": total_columns,
            "postings_singleton_rows": total_singletons,
            "tombstoned_segments": any_tombstones,
            "index_bytes": sum(total_bytes.values()),
            **total_bytes,
        },
    }
    return report
