"""The commit point (``index/commit.py``): every write adds new files and
publishes them with one atomic ``index_meta.json`` rewrite, then sweeps what
the new commit no longer references.

Covers the write-once property of delete, compaction and append, a crash
injected before every filesystem step of each of them, an engine that keeps
answering after a sweep, and the commit-only views of compaction and
``build_report``."""

import builtins
import hashlib
import json
import os
import shutil
import threading

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucille_ray import transcripts as T
from lucille_ray.index import (
    append_index, build_index, build_report, commit, compact_index, delete_docs,
)
from lucille_ray.search.engine import SearchEngine, SegmentScorer

N_TURNS = 800

# one query per shape the engine serves (term, boolean, phrase, proximity,
# expansions, range, min-should-match, fielded, boosts)
QUERY_SET = [
    "data",
    "xylophone42",
    "data AND query",
    "deploy OR jump",
    "data AND NOT query",
    '"lazy evaluation"',
    '"data query"~2',
    "deploy*",
    "c?tch",
    "cat~1",
    "[deploy TO deploys]",
    "(data query join)@2",
    "data^2 OR query^0.5",
    "role:assistant AND deploy",
    "tool:(bash OR python)",
]


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    """(base.parquet, app.parquet): the first 75% of a generated corpus's
    conversations, and the rest for appends."""
    root = tmp_path_factory.mktemp("commit")
    data = str(root / "data")
    T.generate(N_TURNS, data, num_files=2)
    table = pq.read_table(data)
    convs = sorted(set(table["conv_id"].to_pylist()))
    mask = pc.less(table["conv_id"], convs[int(len(convs) * 0.75)])
    base, app = str(root / "base.parquet"), str(root / "app.parquet")
    pq.write_table(table.filter(mask), base)
    pq.write_table(table.filter(pc.invert(mask)), app)
    return base, app


@pytest.fixture(scope="module")
def built(corpus, tmp_path_factory):
    """A 2-segment index over the base corpus, opened and queried once."""
    import ray.data

    index_dir = str(tmp_path_factory.mktemp("commit_idx") / "index")
    build_index(ray.data.read_parquet(corpus[0]), index_dir, num_segments=2,
                batch_size=200)
    _answers(index_dir)
    return index_dir


@pytest.fixture(scope="module")
def victims(built):
    """Doc ids to delete: the top "data" hits and the first and last doc of
    every segment, so a delete moves answers and spans both segments."""
    top = SearchEngine(built, parallel=False).search("data", k=5)["doc_id"].to_pylist()
    ends = [d for s in commit.read(built)["segments"] for d in (s.lo, s.hi - 1)]
    return sorted(set(top) | set(ends))


def _copy(src, dst):
    shutil.copytree(src, dst)
    return str(dst)


def _answers(index_dir):
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    return [engine.search(qs, k=10).to_pydict() for qs in QUERY_SET]


def _writes(corpus, victims):
    import ray.data

    return {
        "delete": lambda d: delete_docs(d, victims),
        "compact": lambda d: compact_index(d),
        "append": lambda d: append_index(
            ray.data.read_parquet(corpus[1]), d, num_segments=2, batch_size=200),
    }


def _files(index_dir):
    """{path relative to index_dir: (size, mtime_ns, sha1 of files < 1 MB)}."""
    out = {}
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            p = os.path.join(root, f)
            st = os.stat(p)
            digest = None
            if st.st_size < 1 << 20:
                with open(p, "rb") as fh:
                    digest = hashlib.sha1(fh.read()).hexdigest()
            out[os.path.relpath(p, index_dir)] = (st.st_size, st.st_mtime_ns, digest)
    return out


def _referenced(index_dir, path):
    """Does the current commit reference ``path`` (relative to index_dir)?"""
    parts = path.split(os.sep)
    if parts[0] != "segments":
        return True
    live = {s.name: s.deleted for s in commit.read(index_dir)["segments"]}
    if parts[1] not in live:
        return False
    return not parts[2].startswith("deleted") or parts[2] == live[parts[1]]


def test_writes_only_add_files_and_open_engines_keep_answering(
    built, corpus, victims, tmp_path
):
    """Delete (2 segments), purge compaction (2 tombstoned segments) and a
    2-segment append each leave every file of the previous commit unchanged
    or gone because the new commit no longer references it, and create
    nothing but the new commit's own files and ``index_meta.json``. An
    engine opened before them keeps answering the first commit, with
    metadata, after every sweep."""
    d = _copy(built, tmp_path / "idx")
    first = _answers(d)
    old_engine = SearchEngine(d, parallel=False, result_cache=False)
    old_engine.warm("the")
    writes = _writes(corpus, victims)
    for name in ("delete", "compact", "append"):
        before_commit = commit.read(d)
        before = _files(d)
        writes[name](d)
        after = _files(d)
        after_commit = commit.read(d)
        assert after_commit["generation"] == before_commit["generation"] + 1, name
        new_dirs = {s.name for s in after_commit["segments"]} - {
            s.name for s in before_commit["segments"]}
        new_tombs = {s.deleted for s in after_commit["segments"]} - {
            s.deleted for s in before_commit["segments"]} - {None}
        for path, stamp in before.items():
            if path == commit.INDEX_META_FILE:
                continue
            if path in after:
                assert after[path] == stamp, (name, path)
            else:
                assert not _referenced(d, path), (name, path)
        created = set(after) - set(before)
        for path in created:
            parts = path.split(os.sep)
            assert parts[0] == "segments" and (
                parts[1] in new_dirs or parts[2] in new_tombs), (name, path)
        assert after[commit.INDEX_META_FILE] != before[commit.INDEX_META_FILE]
        if name == "delete":
            assert len(new_tombs) == 1 and all(
                s.deleted for s in after_commit["segments"])
            # a scorer over the engine's directories sees the same tombstones
            engine = SearchEngine(d, parallel=False)
            local = SegmentScorer(engine.seg_dirs)
            assert [r.deleted.tolist() for r in local.readers] == [
                r.deleted.tolist() for r in engine._scorers()[0].readers]
        if name == "compact":
            assert len(new_dirs) == 2 and not any(
                s.deleted for s in after_commit["segments"])
        if name == "append":
            assert len(new_dirs) == 2
        # every entry under segments/ is a committed segment with a manifest
        assert sorted(os.listdir(os.path.join(d, "segments"))) == sorted(
            s.name for s in after_commit["segments"])
    assert [old_engine.search(qs, k=10).to_pydict() for qs in QUERY_SET] == first
    assert _answers(d) != first


def test_scorers_read_the_tombstones_of_the_engines_commit(
    built, victims, tmp_path, monkeypatch
):
    """Scorers that start after a write read the tombstones of the commit
    their engine opened, not the current one's. A reader whose directory a
    sweep removes while it opens fails instead of answering from part of
    it: the sweep removes a directory's manifest first."""
    from lucille_ray.index.segment import SegmentReader

    d = _copy(built, tmp_path / "idx")
    first = _answers(d)
    engine = SearchEngine(d, parallel=False, result_cache=False)
    delete_docs(d, victims)
    assert [engine.search(qs, k=10).to_pydict() for qs in QUERY_SET] == first
    assert all(r.deleted is None for r in engine._scorers()[0].readers)
    # a scorer given directories alone reads the current commit's
    local = SegmentScorer(engine.seg_dirs)
    assert all(r.deleted is not None for r in local.readers)

    stale = SearchEngine(d, parallel=False)
    removed = []
    real_remove, real_pin = commit._remove, SegmentReader._postings_files

    def pin_then_sweep(self):
        out = real_pin(self)
        commit.sweep(d, dict(commit.read(d), segments=[]))
        return out

    monkeypatch.setattr(commit, "_remove", lambda p: (removed.append(p), real_remove(p)))
    monkeypatch.setattr(SegmentReader, "_postings_files", pin_then_sweep)
    with pytest.raises(ValueError, match="removed by a later write"):
        stale.search("data")
    seg0 = commit.segment_dir(d, "seg-00000")
    assert removed.index(os.path.join(seg0, "MANIFEST.json")) < removed.index(seg0)


@pytest.mark.parametrize("num_segments", [1, 2])
def test_resume_after_writes_changes_nothing(
    built, corpus, victims, tmp_path, num_segments
):
    """Re-running build_index (resume) over a built index that an append, a
    delete and a purge compaction changed since publishes nothing, removes
    nothing and answers as before: the build's segments are checked under
    their committed names, which a compaction changes."""
    import ray.data

    d = str(tmp_path / "idx")
    if num_segments == 2:
        _copy(built, d)
    else:
        build_index(ray.data.read_parquet(corpus[0]), d, num_segments=1,
                    batch_size=200)
    writes = _writes(corpus, victims)
    for name in ("append", "delete", "compact"):
        writes[name](d)
    before, answers = commit.read(d), _answers(d)
    files = sorted(os.listdir(os.path.join(d, "segments")))
    build_index(ray.data.read_parquet(corpus[0]), d, num_segments=num_segments,
                batch_size=200)
    assert commit.read(d) == before
    assert sorted(os.listdir(os.path.join(d, "segments"))) == files
    assert _answers(d) == answers


class _Crash(Exception):
    pass


def _inject(monkeypatch, root, crash_at=None):
    """Count every filesystem-changing call this process makes under
    ``root`` (calls nested in a counted one are part of it); the
    ``crash_at``-th raises :class:`_Crash` instead of running. Returns the
    counter: ``steps["n"]`` is the number of calls counted."""
    import ray.data

    root = os.path.abspath(root)
    steps = {"n": 0}
    lock = threading.Lock()
    local = threading.local()

    def under(x):
        x = getattr(x, "path", x)  # a Datasink
        return isinstance(x, (str, os.PathLike)) and os.path.abspath(x).startswith(root)

    def counted(fn, writes=lambda a, kw: True):
        def call(*a, **kw):
            if (getattr(local, "busy", False) or not writes(a, kw)
                    or not any(under(x) for x in (*a, *kw.values()))):
                return fn(*a, **kw)
            with lock:
                k = steps["n"]
                steps["n"] += 1
            if k == crash_at:
                raise _Crash(f"injected before step {k}: {fn.__name__}{a[:2]}")
            local.busy = True
            try:
                return fn(*a, **kw)
            finally:
                local.busy = False
        return call

    def write_mode(a, kw):
        mode = a[1] if len(a) > 1 else kw.get("mode", "r")
        return any(m in mode for m in "wax+")

    for mod, name in [
        (os, "replace"), (os, "rename"), (os, "remove"), (os, "unlink"),
        (os, "rmdir"), (os, "makedirs"), (os, "mkdir"), (os, "link"),
        (shutil, "rmtree"), (shutil, "copy2"), (shutil, "copytree"),
        (pq, "write_table"), (ray.data.Dataset, "write_datasink"),
        (ray.data.Dataset, "write_parquet"),
    ]:
        monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    monkeypatch.setattr(builtins, "open", counted(builtins.open, write_mode))
    return steps


@pytest.mark.parametrize("write", ["delete", "compact", "append"])
def test_write_crash_matrix(built, corpus, victims, tmp_path, monkeypatch, write):
    """A failure before any filesystem step of a write leaves an index that
    opens and answers exactly as the previous commit or as the new one; then
    re-running the write (or, once its commit landed, the next commit's
    sweep) converges to the clean result, file for file."""
    writes = _writes(corpus, victims)
    base = _copy(built, tmp_path / "base")
    if write == "compact":  # a purge compaction of 2 tombstoned segments
        writes["delete"](base)
    previous = _answers(base)
    clean = _copy(base, tmp_path / "clean")
    with monkeypatch.context() as m:
        steps = _inject(m, clean)
        writes[write](clean)
    new = _answers(clean)
    assert new != previous
    expected = set(_files(clean))
    assert steps["n"] >= 4
    for k in range(steps["n"]):
        d = _copy(base, tmp_path / f"crash{k}")
        with monkeypatch.context() as m:
            _inject(m, d, crash_at=k)
            with pytest.raises(_Crash):
                writes[write](d)
        got = _answers(d)
        assert got in (previous, new), k
        c = commit.read(d)
        if c["generation"] > commit.read(base)["generation"]:
            assert got == new, k
            commit.sweep(d, c)
        else:
            assert got == previous, k
            writes[write](d)
        assert _answers(d) == new, k
        assert set(_files(d)) == expected, k
        shutil.rmtree(d)


def _plant_crashed_append(index_dir):
    """What a failed append_index leaves: a complete segment directory under
    the next segment name that the commit does not name."""
    c = commit.read(index_dir)
    src = commit.segment_dir(index_dir, c["segments"][-1].name)
    leftover = commit.segment_dir(index_dir, commit.segment_name(c["next_segment"]))
    shutil.copytree(src, leftover)
    return leftover


def test_compaction_visits_only_committed_segments(built, tmp_path, monkeypatch):
    """compact_index compacts the segments of the commit, never the
    uncommitted leftover of a failed append, and its commit sweeps it."""
    import lucille_ray.index.compact as compact_mod

    d = _copy(built, tmp_path / "idx")
    leftover = _plant_crashed_append(d)
    committed = [s.name for s in commit.read(d)["segments"]]
    seen = []
    real = compact_mod._compact_segment

    def recording(seg_dir, *args, **kwargs):
        seen.append(os.path.basename(seg_dir))
        return real(seg_dir, *args, **kwargs)

    monkeypatch.setattr(compact_mod, "_compact_segment", recording)
    before = _answers(d)
    compact_index(d)
    assert sorted(seen) == sorted(committed)
    # the leftover's name went to a compacted segment; nothing else is left
    c = commit.read(d)
    assert sorted(os.listdir(os.path.join(d, "segments"))) == sorted(
        s.name for s in c["segments"])
    with open(os.path.join(leftover, "MANIFEST.json")) as f:
        assert json.load(f)["source"]["segment"] == committed[0]
    assert _answers(d) == before


def test_compaction_rebuilds_a_crashed_range_write(built, victims, tmp_path):
    """Compaction's range tasks write their files outside this process, where
    the crash matrix cannot inject a failure: a compaction that died while
    they wrote (part files in the new directory, one of them cut short, no
    manifest) is redone whole by the next one, to the files and answers of a
    clean compaction."""
    base = _copy(built, tmp_path / "base")
    delete_docs(base, victims)
    clean = _copy(base, tmp_path / "clean")
    compact_index(clean)
    d = _copy(base, tmp_path / "crashed")
    c = commit.read(d)
    src = os.path.join(commit.segment_dir(d, c["segments"][0].name), "postings.parquet")
    dst = os.path.join(commit.segment_dir(d, commit.segment_name(c["next_segment"])),
                       "postings.parquet")
    os.makedirs(dst)
    part = os.path.join(src, sorted(os.listdir(src))[0])
    shutil.copy2(part, os.path.join(dst, "part-000001.parquet"))
    with open(part, "rb") as f, open(os.path.join(dst, "part-000000.parquet"), "wb") as out:
        out.write(f.read()[: os.path.getsize(part) // 2])
    compact_index(d)
    got, want = ({p: (size, digest) for p, (size, _, digest) in _files(x).items()}
                 for x in (d, clean))
    assert got == want
    assert _answers(d) == _answers(clean)


def test_compaction_keeps_segments_whose_ranges_finished(built, victims, tmp_path):
    """A range task that fails in the first segment still lets every other
    segment's new directory finish (manifest written) and publishes nothing;
    the next compaction reuses those directories, redoes only the failed
    segment, and ends at a clean compaction's files and answers."""
    from lucille_ray.index.build import read_manifest

    base = _copy(built, tmp_path / "base")
    delete_docs(base, victims)
    clean = _copy(base, tmp_path / "clean")
    compact_index(clean)
    d = _copy(base, tmp_path / "failed")
    c = commit.read(d)
    assert len(c["segments"]) == 2
    src = os.path.join(commit.segment_dir(d, c["segments"][0].name), "postings.parquet")
    part = os.path.join(src, sorted(os.listdir(src))[0])
    with open(part, "rb") as f:
        good = f.read()
    # garble the data pages, keep the footer: the driver plans from the
    # footer, the range task that reads the pages fails
    data_end = len(good) - 8 - int.from_bytes(good[-8:-4], "little")
    with open(part, "wb") as f:
        f.write(good[:4] + b"\xff" * (data_end - 4) + good[data_end:])
    pq.ParquetFile(part).metadata  # the footer still parses
    with pytest.raises(Exception):
        compact_index(d)
    assert commit.read(d) == c
    new = [commit.segment_dir(d, commit.segment_name(c["next_segment"] + i)) for i in (0, 1)]
    assert read_manifest(new[0]) is None
    assert read_manifest(new[1])["source"]["segment"] == c["segments"][1].name

    with open(part, "wb") as f:
        f.write(good)
    done = compact_index(d)
    assert [bool(e["ranges"]) for e in done] == [True, False]
    got, want = ({p: (size, digest) for p, (size, _, digest) in _files(x).items()}
                 for x in (d, clean))
    assert got == want
    assert _answers(d) == _answers(clean)


def test_build_report_reads_the_commit(built, tmp_path):
    """build_report lists the commit's segments in commit order with their
    tombstone file and count; an uncommitted leftover counts only toward the
    bytes on disk."""
    d = _copy(built, tmp_path / "idx")
    delete_docs(d, [1, 2, 3])
    c = commit.read(d)
    leftover = _plant_crashed_append(d)
    rep = build_report(d)
    assert [s["segment"] for s in rep["segments"]] == [s.name for s in c["segments"]]
    assert rep["totals"]["segments"] == 2
    assert rep["totals"]["docs"] == c["total_docs"]
    assert [s["tombstone"] for s in rep["segments"]] == [s.deleted for s in c["segments"]]
    assert [s["tombstoned_docs"] for s in rep["segments"]] == [3, 0]
    def disk_bytes(top):
        return sum(os.path.getsize(os.path.join(r, f))
                   for r, _, fs in os.walk(top) for f in fs)

    assert rep["totals"]["index_bytes"] == disk_bytes(d)
    assert sum(s["bytes"] for s in rep["segments"]) == sum(
        disk_bytes(p) for p in commit.segment_dirs(d, c))
    assert disk_bytes(leftover) > 0


def test_commit_version_and_segment_list(built):
    """The commit is version 6 and its segment list is the one source of the
    segments, their doc ranges and tombstones."""
    with open(os.path.join(built, commit.INDEX_META_FILE)) as f:
        meta = json.load(f)
    assert meta["version"] == commit.INDEX_FORMAT_VERSION == 6
    assert "num_segments" not in meta and "seg_bounds" not in meta
    assert [s["name"] for s in meta["segments"]] == ["seg-00000", "seg-00001"]
    assert meta["segments"][0]["docs"][0] == 0
    assert meta["segments"][-1]["docs"][1] == meta["total_docs"]
    engine = SearchEngine(built, parallel=False)
    assert engine.seg_dirs == [
        os.path.join(built, "segments", s["name"]) for s in meta["segments"]]
    assert [r.doc_count for r in engine._scorers()[0].readers] == [
        s["docs"][1] - s["docs"][0] for s in meta["segments"]]
    assert np.all([r.deleted is None for r in engine._scorers()[0].readers])
