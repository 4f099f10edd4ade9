"""Seeded generators for the benchmark: transcript corpora and query streams.

Everything here is a pure function of its seed.  The program under test only
ever sees what these functions write (Parquet files of transcript turns) and
the query strings they return.

The vocabulary is realistic on purpose: tens of thousands of pseudo-words drawn
with Zipf skew (s = 1.1), so an index has both very hot and very rare terms and
the query stream touches far more distinct terms than the reader's entry-capped
caches hold.  A tiny vocabulary makes every posting list hot and hides the
per-term cost of the build.  Planted structure gives every query shape
something to find: prefix families (prefix / wildcard / fuzzy), adjacent
collocations (phrase / proximity) and rare markers (rare exact terms).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ZIPF_S = 1.1
MEAN_TURN_TOKENS = 24
CONV_TURNS = (3, 40)  # inclusive bounds of conversation length
ROLES = ("user", "assistant", "tool")
TOOLS = ("bash", "search", "browser", "editor", "python")
FAMILY_SUFFIXES = ("s", "ed", "ing", "er", "ment")
_BASE_TS_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z

_CONS = np.array(list("bcdfghjklmnprstvz"))
_VOWS = np.array(list("aeiou"))


@dataclass
class Vocabulary:
    """Words in Zipf rank order (index 0 is the hottest) plus planted sets."""

    words: np.ndarray  # rank -> word
    probs: np.ndarray  # rank -> draw probability
    stems: List[str]  # prefix-family stems; each stem+suffix is a vocab word
    collocations: List[Tuple[str, str]]
    markers: List[str]


def make_vocabulary(size: int, seed: int) -> Vocabulary:
    """``size`` distinct pseudo-words of 2-4 consonant-vowel syllables."""
    rng = np.random.default_rng([seed, 1])
    seen: Dict[str, None] = {}
    while len(seen) < size:
        n = 2 * (size - len(seen)) + 16
        syl = rng.integers(2, 5, n)
        cons = _CONS[rng.integers(0, len(_CONS), (n, 4))]
        vows = _VOWS[rng.integers(0, len(_VOWS), (n, 4))]
        tail = rng.random(n) < 0.3
        ends = _CONS[rng.integers(0, len(_CONS), n)]
        for i in range(n):
            w = "".join(cons[i, j] + vows[i, j] for j in range(syl[i]))
            if tail[i]:
                w += ends[i]
            seen.setdefault(w, None)
            if len(seen) == size:
                break
    words = np.array(list(seen), dtype=object)
    taken = set(seen)

    # prefix families: overwrite mid/tail ranks with stem+suffix so a
    # ``stem*`` query expands to a known family of rarer terms
    n_fam = max(8, size // 500)
    fam_ranks = rng.choice(np.arange(size // 50, size // 5), n_fam, replace=False)
    stems = []
    free = list(rng.permutation(np.arange(size // 5, size)))
    for r in fam_ranks:
        stem = str(words[r])
        stems.append(stem)
        for suf in FAMILY_SUFFIXES:
            w = stem + suf
            if w in taken:
                continue
            slot = int(free.pop())
            taken.discard(str(words[slot]))
            words[slot] = w
            taken.add(w)

    probs = np.arange(1, size + 1, dtype=np.float64) ** (-ZIPF_S)
    probs /= probs.sum()
    mid = np.arange(size // 100, size // 10)
    coll_ranks = rng.choice(mid, (max(8, size // 800), 2), replace=False)
    collocations = [(str(words[a]), str(words[b])) for a, b in coll_ranks]
    markers = [f"qz{seed % 1000:03d}m{i:03d}" for i in range(max(8, size // 400))]
    return Vocabulary(words, probs, stems, collocations, markers)


def make_turns(
    vocab: Vocabulary, num_turns: int, seed: int, *, conv_base: int = 0
) -> pa.Table:
    """About ``num_turns`` turns in whole conversations of 3-40 turns.

    Conversation ids are ``c<number>`` with ``conv_base`` as the first number,
    zero-padded so later batches sort after earlier ones (appended docs then
    take the highest doc ids, as the brute-force oracle numbers them).
    """
    rng = np.random.default_rng([seed, 2, conv_base])
    lens: List[int] = []
    while sum(lens) < num_turns:
        lens.append(int(rng.integers(CONV_TURNS[0], CONV_TURNS[1] + 1)))
    conv_len = np.array(lens, dtype=np.int64)
    n = int(conv_len.sum())
    conv_num = np.repeat(np.arange(len(lens)) + conv_base, conv_len)
    starts = np.repeat(np.cumsum(conv_len) - conv_len, conv_len)
    turn_idx = np.arange(n) - starts

    tok_lens = np.maximum(3, rng.poisson(MEAN_TURN_TOKENS, n))
    draws = rng.choice(len(vocab.words), size=int(tok_lens.sum()), p=vocab.probs)
    words = vocab.words[draws]
    offsets = np.concatenate([[0], np.cumsum(tok_lens)])
    coll_pick = rng.integers(0, len(vocab.collocations), n)
    coll_at = rng.random(n) < 0.03
    mark_pick = rng.integers(0, len(vocab.markers), n)
    mark_at = rng.random(n) < 0.004
    texts = []
    for i in range(n):
        toks = list(words[offsets[i]: offsets[i + 1]])
        if coll_at[i]:
            j = int(offsets[i] % len(toks))
            toks[j:j] = vocab.collocations[coll_pick[i]]
        if mark_at[i]:
            toks.append(vocab.markers[mark_pick[i]])
        texts.append(" ".join(toks))

    role_idx = np.where(turn_idx % 2 == 0, 0, 1)
    role_idx = np.where((turn_idx % 2 == 1) & (rng.random(n) < 0.15), 2, role_idx)
    role = np.array(ROLES)[role_idx]
    tool = np.where(role_idx == 2, np.array(TOOLS)[rng.integers(0, len(TOOLS), n)], "none")
    ts = _BASE_TS_US + (conv_num * 3600 + turn_idx * 7) * 1_000_000
    return pa.table(
        {
            "conv_id": pa.array([f"c{c:09d}" for c in conv_num], pa.string()),
            "turn_idx": pa.array(turn_idx.astype(np.int32)),
            "role": pa.array(role.astype(str), pa.string()),
            "text": pa.array(texts, pa.string()),
            "tool": pa.array(tool.astype(str), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )


def write_corpus(table: pa.Table, out_dir: str, num_files: int = 4) -> None:
    """Write ``table`` as ``num_files`` Parquet files split on conversation
    boundaries (a file never holds part of a conversation)."""
    os.makedirs(out_dir, exist_ok=True)
    conv = table["conv_id"].to_numpy(zero_copy_only=False)
    cuts = [0]
    for f in range(1, num_files):
        i = table.num_rows * f // num_files
        while 0 < i < table.num_rows and conv[i] == conv[i - 1]:
            i += 1
        if i > cuts[-1]:
            cuts.append(i)
    cuts.append(table.num_rows)
    for f, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if hi > lo:
            pq.write_table(table.slice(lo, hi - lo), os.path.join(out_dir, f"part-{f:03d}.parquet"))


# ---------------------------------------------------------------------------
# query streams
# ---------------------------------------------------------------------------

#: query shape classes; each has an equal share of the distinct-query pool
#: and of every stream drawn from it.  Equal shares are a coverage mix, not a
#: traffic model: no query log of this system exists to fit one to, and equal
#: shares give every executor class the same number of timed calls.
SHAPES = (
    "term", "or", "and", "not", "phrase", "prefix", "wildcard", "fuzzy",
    "range", "fielded", "minmatch", "typeahead",
)
#: Zipf exponent of query popularity within a shape class: Zipf's classic
#: s = 1, an assumption, not fitted to any log
QUERY_ZIPF_S = 1.0


@dataclass(frozen=True)
class Query:
    shape: str
    text: str


class _Terms:
    """Query-term draws: half by corpus popularity, half uniform over ranks,
    so queries hit hot, mid and tail posting lists."""

    def __init__(self, vocab: Vocabulary, rng: np.random.Generator):
        self.v, self.rng = vocab, rng
        self.sorted = np.sort(vocab.words.astype(str))

    def any(self) -> str:
        if self.rng.random() < 0.5:
            return str(self.v.words[self.rng.choice(len(self.v.words), p=self.v.probs)])
        return str(self.v.words[self.rng.integers(0, len(self.v.words))])

    def hot(self) -> str:
        return str(self.v.words[self.rng.integers(0, max(50, len(self.v.words) // 100))])

    def family_word(self) -> Tuple[str, str]:
        stem = self.v.stems[self.rng.integers(0, len(self.v.stems))]
        return stem, stem + FAMILY_SUFFIXES[self.rng.integers(0, len(FAMILY_SUFFIXES))]


def _make_query(shape: str, t: _Terms) -> str:
    rng = t.rng
    if shape == "term":
        if rng.random() < 0.15:
            return t.v.markers[rng.integers(0, len(t.v.markers))]
        return t.any()
    if shape == "or":
        return " OR ".join(t.any() for _ in range(int(rng.integers(2, 6))))
    if shape == "and":
        return " AND ".join([t.hot(), *(t.any() for _ in range(int(rng.integers(1, 3))))])
    if shape == "not":
        return f"{t.any()} AND NOT {t.hot()}"
    if shape == "phrase":
        a, b = t.v.collocations[rng.integers(0, len(t.v.collocations))]
        if rng.random() < 0.3:
            a, b = t.hot(), t.hot()
        slop = f"~{int(rng.integers(1, 4))}" if rng.random() < 0.4 else ""
        return f'"{a} {b}"{slop}'
    if shape == "prefix":
        stem, _ = t.family_word()
        return stem[: max(4, len(stem) - int(rng.integers(0, 2)))] + "*"
    if shape == "wildcard":
        _, w = t.family_word()
        i = int(rng.integers(2, len(w) - 1))
        return w[:i] + "?" + w[i + 1:]
    if shape == "fuzzy":
        w = t.family_word()[1] if rng.random() < 0.5 else t.any()
        return f"{w}~1"
    if shape == "range":
        i = int(rng.integers(0, len(t.sorted) - 12))
        return f"[{t.sorted[i]} TO {t.sorted[i + int(rng.integers(2, 12))]}]"
    if shape == "fielded":
        f = f"role:{ROLES[rng.integers(0, 2)]}" if rng.random() < 0.6 else \
            f"tool:{TOOLS[rng.integers(0, len(TOOLS))]}"
        return f"{f} AND {t.any()}"
    if shape == "minmatch":
        n = int(rng.integers(3, 5))
        return "(" + " ".join(t.any() for _ in range(n)) + f")@{n - 1}"
    if shape == "typeahead":
        w = t.any()
        cut = max(3, len(w) - int(rng.integers(1, 3)))
        return f"{t.hot()} {w[:cut]}"
    raise ValueError(shape)


def query_pool(vocab: Vocabulary, n: int, seed: int) -> List[Query]:
    """``n`` distinct queries, an equal share per shape class (at least two),
    in a seeded random order.  A class whose generator runs out of distinct
    queries (``prefix`` has one or two per planted stem) gets fewer."""
    rng = np.random.default_rng([seed, 3])
    terms = _Terms(vocab, rng)
    cnt = max(2, round(n / len(SHAPES)))
    out: List[Query] = []
    seen = set()
    for shape in SHAPES:
        made = tries = 0
        while made < cnt and tries < cnt * 20:
            tries += 1
            text = _make_query(shape, terms)
            if (shape, text) in seen:
                continue
            seen.add((shape, text))
            out.append(Query(shape, text))
            made += 1
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def query_stream(pool: List[Query], n: int, seed: int) -> List[Query]:
    """``n`` draws from ``pool``: each shape class gets an equal share of the
    draws, and within a class queries have Zipf popularity
    (QUERY_ZIPF_S) over a seeded ranking, so hot queries repeat and the tail
    mostly appears once.  Fixed class shares keep the mix of executor work the
    same for every seed."""
    rng = np.random.default_rng([seed, 4, len(pool)])
    out: List[Query] = []
    for shape in SHAPES:
        cls = [q for q in pool if q.shape == shape]
        if not cls:
            continue
        p = np.arange(1, len(cls) + 1, dtype=np.float64) ** (-QUERY_ZIPF_S)
        p /= p.sum()
        rank = rng.permutation(len(cls))
        draws = rng.choice(len(cls), size=round(n / len(SHAPES)), p=p)
        out.extend(cls[rank[i]] for i in draws)
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def corpus_stats(table: pa.Table) -> dict:
    from lucille_ray.analysis import arrow_tokenize
    import pyarrow.compute as pc

    toks = pc.list_flatten(arrow_tokenize(table["text"]))
    return {
        "turns": table.num_rows,
        "conversations": len(pc.unique(table["conv_id"])),
        "tokens": len(toks),
        "distinct_terms": len(pc.unique(toks)),
    }
