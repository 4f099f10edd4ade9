"""Mixed-grammar randomized soak: 150 seeded random queries spanning every
node family, through the FULL engine (both parallel modes interleaved is
overkill for CI — local mode exercises every eval path), compared rank+score
against the independent brute-force oracle. This cross-shape mixing is what
catches cache/state interactions the per-family suites can't (the bmphrase
freq-bound bug surfaced exactly this way)."""

import os
import random
import re

import pytest

from lucille_ray import transcripts as T
from lucille_ray.index.build import build_index
from lucille_ray.search.engine import SearchEngine
from lucille_ray.search.oracle import BruteForceOracle

RESERVED = re.compile(r"^(OR|AND|NOT|TO)", re.IGNORECASE)


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    root = str(tmp_path_factory.mktemp("soak"))
    data_dir = os.path.join(root, "data")
    index_dir = os.path.join(root, "index")
    T.generate(4000, data_dir, num_files=2)
    build_index(T.read_transcripts(data_dir), index_dir, num_segments=2,
                batch_size=1500)
    table = pq.read_table(data_dir)
    return index_dir, table


def _vocab(table):
    words = set()
    for text in table["text"].to_pylist()[:2000]:
        for w in text.split():
            w = re.sub(r"[^a-z0-9]", "", w.lower())
            if len(w) >= 2 and not RESERVED.match(w):
                words.add(w)
    return sorted(words)


def _gen(rng, vocab, depth=0):
    """One random query string; leaves lifted from real corpus vocabulary."""
    w = lambda: rng.choice(vocab)
    if depth >= 2 or rng.random() < 0.45:
        leaf = rng.random()
        if leaf < 0.40:
            return w()
        if leaf < 0.52:
            return f'"{w()} {w()}"' if rng.random() < 0.6 else f'"{w()} {w()}"~{rng.randint(1, 4)}'
        if leaf < 0.62:
            return f"{w()[:3]}*"
        if leaf < 0.70:
            return f"role:{rng.choice(['user', 'assistant', 'tool'])}"
        if leaf < 0.78:
            word = w()
            return f"{word}~{rng.choice([1, 2])}" if len(word) > 4 else w()
        if leaf < 0.86:
            a, b = sorted((w(), w()))
            return f"[{a} TO {b}]"
        if leaf < 0.93:
            return f"{w()}^{rng.choice([0.5, 2.0, 3.75])}"
        return f"({w()} {w()} {w()})@{rng.randint(1, 3)}"
    op = rng.random()
    a, b = _gen(rng, vocab, depth + 1), _gen(rng, vocab, depth + 1)
    if op < 0.35:
        return f"({a} AND {b})"
    if op < 0.65:
        return f"({a} OR {b})"
    if op < 0.80:
        return f"({a} AND NOT {b})"
    if op < 0.90:
        return f"({a} {b})"  # implicit OR
    return f"({a} OR {b})^{rng.choice([0.5, 1.5])}"


def test_engine_random_grammar_vs_oracle(corpus, tombstoned, ray_session):
    """On the index, and on a copy with deletes in every segment: there the
    expected answer is the oracle's over the whole corpus with the deleted
    docs left out, since df, N and avgdl keep counting deleted docs until a
    compaction purges them."""
    index_dir, table = corpus
    oracle = BruteForceOracle(table)
    vocab = _vocab(table)
    tomb_dir, deleted = tombstoned(index_dir)
    for index_dir, dead in ((index_dir, set()), (tomb_dir, set(deleted.tolist()))):
        engine = SearchEngine(index_dir, parallel=False)
        rng = random.Random(20260818)
        checked = 0
        for _ in range(100):
            qs = _gen(rng, vocab)
            k = rng.randint(1, 25)
            try:
                got = engine.search(qs, k=k, with_meta=False)
            except ValueError:
                continue  # MAX_EXPANSIONS guard: oracle enforces no cap
            exp = [h for h in oracle.search(qs, k=oracle.n) if h[0] not in dead][:k]
            gp = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
            assert len(gp) == len(exp), (qs, k)
            for (gd, gs), (ed, es) in zip(gp, exp):
                assert gd == ed, f"{qs!r} k={k}: rank differs"
                assert abs(gs - es) < 1e-9, (qs, k)
            checked += 1
        assert checked >= 80  # the generator must mostly produce valid queries
