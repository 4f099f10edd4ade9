"""Memory and modules of one scorer actor serving perfbench's serve stream.
Usage:

    python tools/scorer_memory.py INDEX [--seed N]

Starts a local Ray session of one CPU (so ``SearchEngine`` packs every
segment of INDEX onto one scorer actor), opens INDEX with
``SearchEngine(parallel=True)`` and prints one JSON object per line at three
points: ``open`` (the actor has started and opened its readers), ``warm``
(after ``warm()``) and ``stream`` (after ``tools/cache_traffic.py``'s
replay of the serve stream, same ``--seed``; INDEX must hold that seed's
corpus, as ``tools/executor_work.py --build`` writes seed 1's). Each line
holds the actor's ``VmRSS``, ``RssAnon`` and ``RssFile`` (kB, its
``/proc/<pid>/status``), how many modules it has loaded, and which of
``engine.SCORER_UNLOADED`` (modules a scorer process never loads) it has
loaded, ``flagged_loaded``.
Run it from outside the checkout whose code it should measure: Ray workers
put the driver's working directory first on their import path.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(1, os.path.join(ROOT, "perfbench"))
sys.path.insert(2, os.path.join(ROOT, "tools"))


#: ``engine.SCORER_UNLOADED``'s modules, for a checkout from before it (an
#: A/B copies this script into the other checkout's ``tools/``)
_FLAGGED = (
    "pyarrow.compute", "pyarrow.dataset", "pyarrow.acero", "pandas",
    *(f"lucille_ray.index.{m}"
      for m in ("build", "compact", "delete", "report", "verify", "writer")),
    "lucille_ray.search.batch", "lucille_ray.search.oracle",
)


def _sample(scorer, flagged) -> dict:
    """Run inside the actor: its memory and module counts."""
    with open("/proc/self/status") as f:
        kb = {k: int(v.split()[0]) for k, v in (line.split(":", 1) for line in f)
              if k in ("VmRSS", "RssAnon", "RssFile")}
    return {**kb, "modules": len(sys.modules),
            "flagged_loaded": [m for m in flagged if m in sys.modules]}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("index")
    p.add_argument("--seed", type=int, default=1)
    a = p.parse_args()

    import ray

    from cache_traffic import replay
    from lucille_ray.search import SearchEngine, engine as engine_mod

    flagged = getattr(engine_mod, "SCORER_UNLOADED", _FLAGGED)

    # Ray's workers inherit the environment, not this process's sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x])
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    engine = SearchEngine(a.index, parallel=True)
    try:
        engine._scorer_sets()
        (actor,) = engine._actors

        def report(point: str) -> None:
            got = ray.get(actor.__ray_call__.remote(_sample, flagged), timeout=120)
            print(json.dumps({"point": point, **got}), flush=True)

        report("open")
        engine.warm()
        report("warm")
        replay(engine, a.seed)
        report("stream")
    finally:
        engine.shutdown()
        ray.shutdown()


if __name__ == "__main__":
    main()
