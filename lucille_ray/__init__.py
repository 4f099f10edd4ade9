"""lucille-ray: a Ray-Data-native fulltext indexing + BM25 query engine with the
query capabilities of the reference library (cozydev-pink/lucille).

Layers:

* :mod:`lucille_ray.query` — pure-Python Lucene-syntax parser / printer / AST.
* :mod:`lucille_ray.analysis` — the analyzer shared by index build and oracles.
* :mod:`lucille_ray.index` — Ray Data inverted-index build (tokenize map_batches ->
  groupby shuffle -> compressed segments with lineage manifests).
* :mod:`lucille_ray.search` — AST-compiled BM25 top-k execution over segments.
* :mod:`lucille_ray.ops` — large-scale training-data pipeline operators (dedup,
  similarity search, text stats, multimodal stubs).
"""

import importlib

__version__ = "0.1.0"


def _lazy(namespace: dict, exports: dict):
    """A package ``__getattr__`` (PEP 562) that imports the submodule
    ``exports[name]`` (relative to the package whose ``namespace`` is given)
    on the first use of ``name`` and keeps its value there. The packages
    export their names this way so a scorer process loads only the
    submodules it runs (search/engine.py)."""
    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name], namespace["__name__"]), name)
        namespace[name] = value
        return value

    return __getattr__


#: the query library's entry points: a scorer actor imports this package
#: but never parses
__getattr__ = _lazy(globals(), dict.fromkeys(
    ("parse", "print_query", "ParseError", "QueryParser"), ".query"))
