"""Text analysis shared by the index build, the query path, and every oracle.

The analyzer is deliberately the simplest thing that is *bit-identical* across all
three evaluation paths used in this repo:

* Python (index build + brute-force test oracle): ``tokenize``
* Arrow-vectorized (inside ``map_batches``): ``arrow_tokenize``
* DuckDB SQL (driver correctness oracle): ``SQL_TOKENS_EXPR``

Rule: lowercase, then split on runs of anything outside ``[a-z0-9]``; drop empties.
Exact rank/score identity between the Ray engine and the oracles (north_rule)
requires all paths to agree on this — change one, change all three.
"""

from __future__ import annotations

import re
from typing import List, Tuple

import numpy as np
import pyarrow as pa

TOKEN_SPLIT = "[^a-z0-9]+"
_TOKEN_SPLIT_RE = re.compile(TOKEN_SPLIT)

#: DuckDB expression producing the token list for a text column named {col}
SQL_TOKENS_EXPR = (
    "list_filter(regexp_split_to_array(lower({col}), '[^a-z0-9]+'), x -> x <> '')"
)

#: Indexed fields of the transcripts table, in canonical order
INDEXED_FIELDS = ("text", "role", "tool")
DEFAULT_FIELD = "text"


def tokenize(text: str) -> List[str]:
    """Lowercase + split; the scalar reference implementation."""
    if not text:
        return []
    return [t for t in _TOKEN_SPLIT_RE.split(text.lower()) if t]


def tokenize_with_positions(text: str) -> List[Tuple[str, int]]:
    return [(t, i) for i, t in enumerate(tokenize(text))]


def arrow_tokenize(texts: pa.Array) -> pa.ListArray:
    """Vectorized tokenization of a string column -> list<string> of tokens.

    Uses Arrow kernels only (no per-row Python), so it is safe in the hot
    ``map_batches`` path. Empty tokens produced by leading/trailing separators are
    removed to match :func:`tokenize`. The kernels load here, in the build:
    the query path tokenizes with :func:`tokenize` and never loads them.
    """
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lowered = pc.utf8_lower(texts)
    # split_pattern_regex keeps empty strings at the boundaries; filter them out
    # with a list_filter-equivalent: flatten -> mask -> rebuild via list_parent_indices
    tokens = pc.split_pattern_regex(lowered, TOKEN_SPLIT)
    flat = pc.list_flatten(tokens)
    parents = pc.list_parent_indices(tokens)
    keep = pc.not_equal(flat, "")
    flat_kept = flat.filter(keep)
    parents_kept = parents.filter(keep)
    # rebuild list offsets from surviving parent indices (sorted ascending)
    counts = np.zeros(len(texts), dtype=np.int64)
    pk = parents_kept.to_numpy(zero_copy_only=False)
    if len(pk):
        uniq, cnt = np.unique(pk, return_counts=True)
        counts[uniq] = cnt
    offsets = np.zeros(len(texts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets), flat_kept)
