"""Smoke test of the command-line interface, run the way users run it:
``python -m lucille_ray`` in a subprocess that owns its own Ray session."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args: str) -> str:
    # Ray workers inherit the environment, not sys.path
    path = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "lucille_ray", "--num-cpus", "2", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_cli_generate_build_append_search_stats(tmp_path):
    data, more, idx = (str(tmp_path / n) for n in ("data", "more", "idx"))
    _cli("generate", "--turns", "600", "--out", data, "--files", "2")
    _cli("generate", "--turns", "100", "--out", more, "--files", "1", "--seed", "7")

    built = json.loads(_cli("build", "--input", data, "--index", idx, "--segments", "2"))
    assert built["total_docs"] == 600 and built["num_segments"] == 2
    appended = json.loads(_cli("append", "--input", more, "--index", idx))
    assert appended == {"total_docs": 700, "num_segments": 3}

    hits = json.loads(_cli("search", "--index", idx, "--json", "-k", "5", "data"))
    assert 0 < len(hits) <= 5
    assert set(hits[0]) == {"doc_id", "conv_id", "turn_idx", "score"}
    stats = json.loads(_cli("stats", "--index", idx))
    assert stats["totals"]["docs"] == 700 and stats["totals"]["segments"] == 3

    out = _cli("compact", "--index", idx).splitlines()
    assert out[0] == "compacted"
    done = json.loads(out[1])
    # the three small segments merge into one
    assert [d["source"] for d in done] == [[s["segment"] for s in stats["segments"]]]
    stats = json.loads(_cli("stats", "--index", idx))
    assert [d["segment"] for d in done] == [s["segment"] for s in stats["segments"]]
    assert sum(d["posting_rows_out"] for d in done) == stats["totals"]["posting_rows"]
    _cli("verify", idx)  # exits 1 on any finding in the merged segment
