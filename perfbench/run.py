"""Benchmark entry point.

    python3 perfbench/run.py --workload serve|ingest|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The run generates its corpus and query
streams from ``--seed``, starts its own Ray session, runs the workload, checks
sampled answers against the brute-force oracle and prints one metric per line
followed by a one-line JSON result.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` records spans and reports the per-layer metrics.
Scratch files go to ``.perfbench/`` under the checkout and are removed at the
end of the run; results stay in ``.perfbench/out/``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "setup_s": "s",
    "index_bytes_per_turn": "B/turn",
    "scorer_rss_mb": "MB",
}

SPAN_NAMES = (
    "search.request", "query.parse", "query.map_last_term", "engine.search",
    "engine.search_many", "engine.plan", "engine.open", "engine.warm",
    "engine.shutdown", "index.build", "index.build_report", "index.append",
    "index.delete", "index.compact",
)


def per_layer_units() -> dict:
    import corpus as C

    units = {
        "query.parse_us": "us", "query.map_last_term_us": "us",
        "query.parse1000_first_ms": "ms", "query.parse1000_last_ms": "ms",
        "analysis.tokenize_turns_per_s": "turns/s", "transcripts.read_s": "s",
        "build.worker_warm_s": "s", "build.docmap_s": "s",
        "build.tokenize_encode_cpu_s": "s", "build.segment_max_s": "s",
        "build.posting_rows": "count", "compact.segment_max_s": "s",
        "compact.posting_rows_out": "count", "delete.docs": "count",
        "segment.open_ms": "ms", "segment.score_cold_ms": "ms",
        "segment.score_warm_ms": "ms", "engine.spawn_ms": "ms",
        "engine.plan_ms": "ms", "engine.overhead_ms": "ms",
        "query_p50_ms": "ms", "query_p90_ms": "ms", "query_p99_ms": "ms",
        "query_qps": "queries/s", "batch_qps": "queries/s",
        "build_turns_per_s": "turns/s", "compact_s": "s", "append_s": "s",
        "delete_ms": "ms", "reopen_ms": "ms",
    }
    for s in C.SHAPES:
        units[f"shape.{s}.p50_ms"] = "ms"
        units[f"shape.{s}.max_ms"] = "ms"
    units.update({
        "serve.first.p50_ms": "ms", "serve.repeat.p50_ms": "ms",
        "serve.repeat_share": "ratio", "ray.init_s": "s", "ray.shutdown_s": "s",
        "trace.overhead_pct": "%", "trace.request_gap_pct": "%",
    })
    for n in SPAN_NAMES:
        units[f"self.{n}_s"] = "s"
    return units


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("serve", "ingest", "churn"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _import_library() -> None:
    """Import the library from this checkout, and make Ray's worker
    processes (which inherit the environment, not sys.path) find it too."""
    if not os.path.isfile(os.path.join(ROOT, "lucille_ray", "__init__.py")):
        sys.exit(f"perfbench: no lucille_ray package under {ROOT}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import lucille_ray

    if os.path.dirname(os.path.dirname(os.path.abspath(lucille_ray.__file__))) != ROOT:
        sys.exit(f"perfbench: imported lucille_ray from {lucille_ray.__file__}, "
                 f"not from {ROOT}")


def _end_to_end(h, w, setup_s: float) -> None:
    values = {
        "setup_s": h.ray_init_s + setup_s,
        "index_bytes_per_turn": w.index_bytes_per_turn,
        "scorer_rss_mb": max(w.rss_mb),
    }
    for name, unit in END_TO_END.items():
        h.set(name, values[name], unit)


def _per_layer(h, w, layer: dict) -> None:
    from harness import median, pct

    units = per_layer_units()
    lay = dict(w.layer)
    lay.update(layer)
    lat_ms = [x * 1e3 for x in w.lat]
    lay["query_p50_ms"] = median(lat_ms)
    lay["query_p90_ms"] = pct(lat_ms, 90)
    lay["query_p99_ms"] = pct(lat_ms, 99)
    lay["query_qps"] = len(w.lat) / w.seq_wall
    if w.batch_n:  # only serve makes search_many calls
        lay["batch_qps"] = w.batch_n / w.batch_wall
    lay["build_turns_per_s"] = median(w.build_rate)
    lay["compact_s"] = median(w.compact_s)
    lay["append_s"] = median(w.append_s)
    lay["delete_ms"] = median(w.delete_s) * 1e3
    lay["reopen_ms"] = median(w.reopen_s) * 1e3
    lay["delete.docs"] = w.deleted_count
    lay["serve.first.p50_ms"] = median(w.first_lat) * 1e3 if w.first_lat else 0.0
    lay["serve.repeat.p50_ms"] = median(w.repeat_lat) * 1e3 if w.repeat_lat else 0.0
    n = len(w.first_lat) + len(w.repeat_lat)
    lay["serve.repeat_share"] = len(w.repeat_lat) / n if n else 0.0
    lay["ray.init_s"] = h.ray_init_s
    self_s = h.tracer.self_seconds_by_name()
    for name in SPAN_NAMES:
        lay[f"self.{name}_s"] = self_s.get(name, 0.0)
    lay["trace.request_gap_pct"] = h.tracer.request_gap(w.request_wall) * 100
    for name, unit in units.items():
        h.set(name, lay.get(name, 0.0), unit)
    h.meta["query_samples"] = len(w.lat)
    h.meta["batch_queries"] = w.batch_n


def _check_manifest() -> None:
    """BENCHMARK.json and this file must name the same metrics."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    want = ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})
    have = (set(END_TO_END), set(per_layer_units()))
    if want != have:
        sys.exit(f"perfbench: {path} and perfbench/run.py list different metrics")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    args = _args()
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    _import_library()
    _check_manifest()
    import layers
    import workloads
    from harness import Harness, RunAborted

    h = Harness(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    signal.signal(signal.SIGTERM, _terminate)
    try:
        layer = {"query.parse1000_first_ms": layers.parse1000_ms()}
        h.start_ray(workloads.ray_cpus_for(args.workload))
        w = workloads.Workload(h)
        done = {}
        t_ready = time.perf_counter()

        def body() -> None:
            t0 = time.perf_counter()
            done["setup_s"] = workloads.PLANS[args.workload](w)
            t1 = time.perf_counter()
            if h.tracer.enabled:
                # the serving probes ran inside the plan (Workload.probe)
                if not w.append_s:
                    workloads.write_probe(w)
                layer.update(layers.probe_parser(w.pool))
                biggest = max(w.corpora.values(), key=lambda pt: pt[1].num_rows)
                layer.update(layers.probe_analysis(biggest[1]))
                layer.update(layers.probe_read(biggest[0]))
            w.sample_rss()
            t2 = time.perf_counter()
            w.check_answers()
            if w.engine is not None:
                w.engine.shutdown()
            h.meta["phase_s"] = {
                "start": round(t_ready - T_START, 2), "plan": round(t1 - t0, 2),
                "probes": round(t2 - t1, 2), "checks": round(time.perf_counter() - t2, 2)}

        h.watch(body)
    except BaseException as e:
        # the workload thread may be stuck inside Ray, and ray.shutdown() beside
        # a thread still using Ray can end the process before it cleans up:
        # kill every process of this run's Ray session at once instead
        if not isinstance(e, (RunAborted, SystemExit)):
            traceback.print_exc()
        print(f"perfbench: run aborted: {e!r}", file=sys.stderr, flush=True)
        h.reap(limit_s=0)
        os._exit(3)
    layer["ray.shutdown_s"] = h.stop_ray()
    layer["query.parse1000_last_ms"] = layers.parse1000_ms()
    h.meta["parse1000_first_ms"] = layer["query.parse1000_first_ms"]
    h.meta["parse1000_last_ms"] = layer["query.parse1000_last_ms"]
    h.meta["corpus"] = w.corpus_stats()
    timed = len(w.first_lat) + len(w.repeat_lat)
    h.meta["repeat_share"] = round(len(w.repeat_lat) / timed, 4) if timed else None
    if h.tracer.enabled:
        _per_layer(h, w, layer)
        h.tracer.dump(h.out_path("spans.jsonl"))
    else:
        _end_to_end(h, w, done["setup_s"])
    h.emit()
    shutil.rmtree(h.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
