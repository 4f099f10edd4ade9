"""Routing table: which per-segment top-k executor serves each query shape.

The identity soaks compare every block-max executor against the plain
evaluator, so a shape that silently stops matching its row of
``engine.TOP_K_ROUTES`` — and falls back to SegmentEval — keeps passing them:
the answers stay identical. These tests record which executor ran on each
segment instead."""

import os
import shutil

import pyarrow as pa
import pytest

import lucille_ray.search.engine as engine_mod
from lucille_ray.index import delete_docs
from lucille_ray.index.build import build_index
from lucille_ray.query import nodes as qn
from lucille_ray.search.engine import SearchEngine

N_DOCS = 3000

# (query, executor expected on every segment)
ROUTED = [
    ("alpha", "single_term_top_k"),
    ("xylo*", "single_term_top_k"),  # expansion resolving to one term
    ("alpha OR beta", "wand_top_k"),
    ("(alpha beta gamma)@2", "wand_top_k"),
    ("deploy*", "wand_top_k"),  # expansion resolving to 3 terms
    ("alpha AND beta", "conj_top_k_compound"),  # all-simple conjunction
    ("(beta OR gamma) AND alpha", "conj_top_k_compound"),
    ('"alpha beta"', "phrase_top_k"),
    ('"alpha gamma"~2', "phrase_top_k"),
]


def _turns(texts, conv_prefix="c"):
    """Transcript turns with ``texts``, five turns per conversation."""
    n = len(texts)
    return pa.table(
        {
            "conv_id": pa.array([f"{conv_prefix}{i // 5:05d}" for i in range(n)]),
            "turn_idx": pa.array([i % 5 for i in range(n)], pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array(texts),
            "tool": pa.array([""] * n),
            "ts": pa.array(
                [1_700_000_000_000_000 + i for i in range(n)],
                pa.timestamp("us"),
            ),
        }
    )


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    import ray

    texts = []
    for i in range(N_DOCS):
        words = ["alpha"]
        if i % 2 == 0:
            words.append("beta")
        if i % 3 == 0:
            words += ["pad", "gamma"]
        if i % 50 == 0:
            words.append(("deploy", "deployed", "deploying")[i // 50 % 3])
        if i % 97 == 0:
            words.append("xylo")
        texts.append(" ".join(words))
    out = os.path.join(str(tmp_path_factory.mktemp("routing")), "index")
    build_index(ray.data.from_arrow(_turns(texts)), out, num_segments=2,
                batch_size=1000)
    return out


@pytest.fixture
def served(monkeypatch):
    """Executor names in call order, one per segment the table served."""
    calls = []

    def recorder(executor):
        def run(reader, ctx, **kw):
            calls.append(executor.__name__)
            return executor(reader, ctx, **kw)

        return run

    monkeypatch.setattr(
        engine_mod,
        "TOP_K_ROUTES",
        tuple((m, recorder(ex)) for m, ex in engine_mod.TOP_K_ROUTES),
    )
    return calls


def _answer(engine, q):
    t = engine.search(q, k=10, with_meta=False)
    return t["doc_id"].to_pylist(), t["score"].to_pylist()


@pytest.mark.parametrize("qs,executor", ROUTED, ids=[q for q, _ in ROUTED])
def test_shape_routes_to_its_executor(index_dir, served, monkeypatch, qs, executor):
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    segments = sum(r.doc_count > 0 for r in engine._scorers()[0].readers)
    got = _answer(engine, qs)
    assert served == [executor] * segments, qs
    assert got[0], f"{qs!r} should match documents"
    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
    assert _answer(engine, qs) == got, qs


@pytest.mark.parametrize(
    "query",
    [
        "alpha AND +beta",  # UnaryPlus: eval accumulates it first
        qn.Boost(qn.Term("alpha"), -1.0),  # negative boost flips the bounds
    ],
    ids=["unary-plus", "negative-boost"],
)
def test_unmatched_shape_takes_plain_evaluator(index_dir, served, query):
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    ids, _scores = _answer(engine, query)
    assert served == []
    assert ids


def test_match_all_takes_plain_evaluator(index_dir, served):
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    assert engine.match_all("alpha").num_rows == N_DOCS  # k=None
    assert served == []


def test_tombstoned_segment_takes_its_executor(
    index_dir, served, monkeypatch, tmp_path
):
    """A segment with deleted docs takes its routing row like any other:
    the reader drops deleted docs wherever an executor decodes."""
    idx = str(tmp_path / "index")
    shutil.copytree(index_dir, idx)
    assert delete_docs(idx, [0]) == 1  # doc 0 lives in the first segment
    engine = SearchEngine(idx, parallel=False, result_cache=False)
    deleted = [r.deleted is not None for r in engine._scorers()[0].readers]
    assert deleted == [True, False]
    got = _answer(engine, "alpha")
    assert served == ["single_term_top_k"] * 2  # both segments
    assert 0 not in got[0]
    monkeypatch.setattr(engine_mod, "TOP_K_ROUTES", ())
    assert _answer(engine, "alpha") == got


def test_declined_segment_takes_plain_evaluator(index_dir, monkeypatch):
    """An executor returning None declines the segment; the plain evaluator
    answers it, and the matcher still runs once per query, not per segment."""
    engine = SearchEngine(index_dir, parallel=False, result_cache=False)
    ref = _answer(engine, "alpha OR beta")
    matched = []

    def matcher(q, ctx):
        matched.append(q)
        return {}, (2.0,)

    monkeypatch.setattr(
        engine_mod, "TOP_K_ROUTES", ((matcher, lambda reader, ctx, k: None),)
    )
    assert _answer(engine, "alpha OR beta") == ref
    assert len(matched) == 1


@pytest.mark.parametrize("package", ["search", "index"])
def test_search_modules_read_no_environment(package):
    """The search and index layers take their options from arguments only: no
    module under lucille_ray/search/ or lucille_ray/index/ reads (or writes)
    the process environment, so no per-call valve can come back."""
    import ast
    import glob
    import importlib

    pkg = importlib.import_module(f"lucille_ray.{package}")
    pkg_dir = os.path.dirname(pkg.__file__)
    offenders = []
    for path in sorted(glob.glob(os.path.join(pkg_dir, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if {a.name for a in node.names} & {"environ", "getenv"}:
                    offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []


def test_reader_cache_docstring_names_every_pool():
    """The pool names passed to ``.cache.get/put/pop`` under lucille_ray/
    are exactly the pools ``ReaderCache``'s docstring names in its "Pools by
    scope" paragraph: the pool count stays checkable, and a removed pool
    leaves no doc behind. A pool name that is not a literal counts as its
    source text, so it fails too."""
    import ast
    import glob
    import re

    import lucille_ray
    from lucille_ray.index.segment import ReaderCache

    root = os.path.dirname(lucille_ray.__file__)
    used = set()
    for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "put", "pop")
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "cache"
            ):
                pool = node.args[0]
                used.add(pool.value if isinstance(pool, ast.Constant) else ast.unparse(pool))
    doc = ReaderCache.__doc__
    named = set(re.findall(r"``(\w+)``", doc[doc.index("Pools by scope"): doc.index("Callers use")]))
    assert used == named


@pytest.mark.parametrize("package", ["search", "index"])
def test_modules_keep_no_cache_attributes_on_readers(package):
    """Per-reader state lives in ``reader.cache`` (index/segment.py's
    ReaderCache): no module under lucille_ray/search/ or lucille_ray/index/
    reaches for a ``_…cache`` attribute on another object, by name or through
    getattr/setattr/hasattr. An object's own private attributes (``self._…``)
    are its business."""
    import ast
    import glob
    import importlib
    import re

    cache_attr = re.compile(r"^_\w*cache")
    pkg = importlib.import_module(f"lucille_ray.{package}")
    pkg_dir = os.path.dirname(pkg.__file__)
    offenders = []
    for path in sorted(glob.glob(os.path.join(pkg_dir, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            bad = False
            if isinstance(node, ast.Attribute) and cache_attr.match(node.attr):
                recv = node.value
                bad = not (isinstance(recv, ast.Name) and recv.id == "self")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr", "hasattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                bad = bool(cache_attr.match(node.args[1].value))
            if bad:
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []


def test_one_decode_owner():
    """``SegmentReader.decode`` is the only code on the search side that turns
    raw blocks into postings, so deleted docs are dropped in one place: no
    module under lucille_ray/search/ calls ``.decode(`` or
    ``.decode_blocks(`` on anything but a reader, or imports
    ``sort_postings``."""
    import ast
    import glob

    import lucille_ray.search as search_pkg

    pkg_dir = os.path.dirname(search_pkg.__file__)
    offenders = []
    for path in sorted(glob.glob(os.path.join(pkg_dir, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        where = os.path.basename(path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("decode", "decode_blocks")
                and not ast.unparse(node.func.value).endswith("reader")
            ):
                offenders.append(f"{where}:{node.lineno} {ast.unparse(node.func)}")
            elif isinstance(node, ast.ImportFrom) and "sort_postings" in {
                a.name for a in node.names
            }:
                offenders.append(f"{where}:{node.lineno} sort_postings")
    assert offenders == []


def test_one_module_knows_the_commit():
    """``index/commit.py`` is the only code that knows the commit: no other
    module under lucille_ray/ opens ``index_meta.json`` (by name or through
    ``INDEX_META_FILE``), formats a ``seg-`` segment directory name, or names
    a tombstone file. Docstrings may describe the layout."""
    import ast
    import glob
    import re

    import lucille_ray

    pkg_dir = os.path.dirname(lucille_ray.__file__)
    owner = os.path.join(pkg_dir, "index", "commit.py")
    tombstone = re.compile(r"^deleted[._*]")
    offenders = []
    for path in sorted(glob.glob(os.path.join(pkg_dir, "**", "*.py"), recursive=True)):
        if path == owner:
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        where = os.path.relpath(path, pkg_dir)
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            if "INDEX_META_FILE" in names:
                offenders.append(f"{where}:{node.lineno} INDEX_META_FILE")
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                s = node.value
                if "index_meta.json" in s:
                    offenders.append(f"{where}:{node.lineno} {s!r}")
                elif s.startswith("seg-"):
                    offenders.append(f"{where}:{node.lineno} {s!r}")
                elif tombstone.match(s):
                    offenders.append(f"{where}:{node.lineno} {s!r}")
    assert offenders == []


def test_one_module_knows_the_norms_rows():
    """Only ``index/build.py`` knows the reserved term whose rows carry the
    per-doc field lengths through the build's Ray Data stream: they never
    reach a committed segment, so no other module under lucille_ray/ names
    ``NORMS_TERM`` or its value, docstrings and comments included."""
    import glob

    import lucille_ray

    pkg_dir = os.path.dirname(lucille_ray.__file__)
    owner = os.path.join(pkg_dir, "index", "build.py")
    offenders = []
    for path in sorted(glob.glob(os.path.join(pkg_dir, "**", "*.py"), recursive=True)):
        if path == owner:
            continue
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                if "NORMS_TERM" in line or "\\x00dl" in line:
                    offenders.append(f"{os.path.relpath(path, pkg_dir)}:{lineno}")
    assert offenders == []


@pytest.mark.parametrize("parallel", [False, True], ids=["in_process", "actors"])
def test_serving_writes_nothing_into_the_index(index_dir, tmp_path, parallel):
    """An engine opened over a copy of an appended, uncompacted index answers
    the routed queries and shuts down without adding, removing or changing
    a file of it: every file keeps its name, size and ``mtime_ns``. (A
    snapshot, not a read-only mode: root ignores file modes.)"""
    import ray

    from lucille_ray.index import commit
    from lucille_ray.index.build import append_index

    idx = str(tmp_path / "index")
    shutil.copytree(index_dir, idx)
    append_index(ray.data.from_arrow(_turns(["alpha beta"] * 200, "d")), idx,
                 batch_size=1000)

    def snapshot():
        out = {}
        for root, _dirs, files in os.walk(idx):
            for f in files:
                st = os.stat(os.path.join(root, f))
                out[os.path.relpath(os.path.join(root, f), idx)] = (
                    st.st_size, st.st_mtime_ns)
        return out

    before = snapshot()
    assert len(commit.read(idx)["segments"]) == 3
    engine = SearchEngine(idx, parallel=parallel)
    for qs, _executor in ROUTED:
        assert _answer(engine, qs)[0], qs
    engine.shutdown()
    assert snapshot() == before


def test_one_scorer_fan_out():
    """In search/engine.py the in-process/actor choice lives in one
    submit/gather pair: only ``_submit`` and ``_gather`` read ``.parallel``,
    besides ``_scorer_sets`` (which builds the scorers) and
    ``match_all_stream`` (which hands Ray Data tables or refs); only
    ``_gather`` and ``SegmentScorer.resolve_score`` (which waits on the
    resolve refs) call ``ray.get``."""
    import ast

    path = engine_mod.__file__
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    owner = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        owner[id(node)] = f"{cls.name}.{fn.name}"
    reads, gets = set(), set()
    for node in ast.walk(tree):
        where = owner.get(id(node), "<module>")
        if (isinstance(node, ast.Attribute) and node.attr == "parallel"
                and isinstance(node.ctx, ast.Load)):
            reads.add(where)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "ray.get":
            gets.add(where)
    assert "SearchEngine._gather" in gets  # the lint sees the pair
    assert reads - {"SearchEngine._submit", "SearchEngine._gather",
                    "SearchEngine._scorer_sets",
                    "SearchEngine.match_all_stream"} == set()
    assert gets - {"SearchEngine._gather", "SegmentScorer.resolve_score"} == set()


#: what a scorer actor runs: search/engine.py::_ScorerActor refuses pandas
#: there, so these modules must not reach for it
SCORER_MODULES = (
    "search/engine.py", "search/eval.py", "search/wand.py", "search/bmconj.py",
    "search/bmphrase.py", "index/segment.py", "index/codec.py", "index/commit.py",
    "query/*.py",
)


def _pandas_uses(source: str, where: str) -> list:
    """``import pandas`` (or ``from pandas``), ``.to_pandas``,
    ``.from_pandas`` and ``batch_format="pandas"`` in ``source``."""
    import ast

    offenders = []
    for node in ast.walk(ast.parse(source, where)):
        if isinstance(node, ast.Import):
            bad = any(a.name.split(".")[0] == "pandas" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module or "").split(".")[0] == "pandas"
        elif isinstance(node, ast.Attribute):
            bad = node.attr in ("to_pandas", "from_pandas")
        elif isinstance(node, ast.keyword):
            bad = (node.arg == "batch_format" and isinstance(node.value, ast.Constant)
                   and node.value.value == "pandas")
        else:
            continue
        if bad:
            offenders.append(f"{where}:{node.lineno}")
    return offenders


def test_scorer_modules_use_no_pandas():
    """Scorer actors run without pandas, so the modules they run neither
    import it nor convert to or from it; the lint flags each planted form."""
    import glob

    import lucille_ray

    planted = (
        "import pandas as pd\n"
        "from pandas.api import types\n"
        "df = table.to_pandas()\n"
        "t = pa.Table.from_pandas(df)\n"
        "ds.map_batches(f, batch_format='pandas')\n"
        "ok = (arr.type.to_pandas_dtype(), 'pandas', ds.map_batches(f, batch_format='numpy'))\n"
    )
    assert _pandas_uses(planted, "planted") == [f"planted:{i}" for i in range(1, 6)]
    root = os.path.dirname(lucille_ray.__file__)
    paths = sorted(p for pattern in SCORER_MODULES
                   for p in glob.glob(os.path.join(root, pattern)))
    assert len(paths) >= len(SCORER_MODULES)
    offenders = []
    for path in paths:
        with open(path) as f:
            offenders += _pandas_uses(f.read(), os.path.relpath(path, root))
    assert offenders == []


def test_one_segment_writer():
    """Every new segment is written by one streaming pipeline
    (``build._write_segments``): no module under lucille_ray/index/ imports
    ``concurrent.futures``, and ``write_datasink`` has one call site there.
    No module there names a layout older writers left — ``docmapped/``
    partitions, ``:fused`` root doc maps, version 3 ``deleted.npy``
    tombstones — outside a docstring: those indexes are refused at open, not
    read. Docstrings may."""
    import ast
    import glob

    import lucille_ray.index as index_pkg

    pkg_dir = os.path.dirname(index_pkg.__file__)
    threads, sinks, legacy = [], [], []
    for path in sorted(glob.glob(os.path.join(pkg_dir, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        where = os.path.basename(path)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                mods = []
            if any(m.split(".")[0] == "concurrent" for m in mods):
                threads.append(f"{where}:{node.lineno}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write_datasink"):
                sinks.append(f"{where}:{node.lineno}")
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and any(w in node.value
                            for w in ("docmapped", ":fused", "deleted.npy"))):
                legacy.append(f"{where}:{node.lineno}")
    assert threads == []
    assert len(sinks) == 1 and sinks[0].startswith("build.py:"), sinks
    assert legacy == []


def test_one_postings_layout_owner():
    """Only ``codec.py`` (``pack_rows``/``unpack_rows``) and ``writer.py``
    name the stored postings columns: no other module under
    lucille_ray/index/ names the packed header ``hdr`` or a nested leaf
    path (``blocks.list.element...``) outside a docstring; readers take
    ``codec.BLOCK_COLUMNS`` to read. And postings have one in-memory form,
    ``codec.RawBlocks`` with row offsets, beside the packed rows: no module
    under lucille_ray/index/ builds an Arrow struct or list array
    (``pa.struct``, ``StructArray``, ``ListArray``, ``pa.list_``)."""
    import ast
    import glob

    import lucille_ray.index as index_pkg

    pkg_dir = os.path.dirname(index_pkg.__file__)
    named, nested = [], []
    for path in sorted(glob.glob(os.path.join(pkg_dir, "*.py"))):
        where = os.path.basename(path)
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        nested += [
            f"{where}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("struct", "StructArray", "ListArray", "list_")
        ]
        if where in ("codec.py", "writer.py"):
            continue
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        named += [
            f"{where}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            and (node.value == "hdr" or "list.element" in node.value)
        ]
    assert named == []
    assert nested == []
