"""Interleaved A/B of the repository benchmark: a base revision against the
working tree this script runs from. Usage:

    python tools/ab_perfbench.py [--base REV | --base-dir DIR] [--pairs N]
                                 [--workloads W ...] [--seed S] [--seconds T]
                                 [--trace 0|1] [--out FILE]

The base revision (default ``HEAD~1``) is checked out into a git worktree at
``<checkout>/.ab`` (kept short: perfbench puts Ray's unix sockets under
``.perfbench/ray`` only when that path has at most 40 characters). With
``--base-dir`` the base side runs from an existing checkout instead, such as
a ``git archive`` of the base revision unpacked elsewhere (the same
40-character limit applies to ``DIR/.perfbench/ray``), and no worktree is
made or removed. Each pair
runs ``perfbench/run.py`` once on each side with the same seed, alternating
which side runs first; pair ``i`` uses seed ``S + i``. The worktree is removed
at the end, also after an error or an interrupt.

For each workload and metric (``BENCHMARK.json``'s end-to-end metrics with
``--trace 0``, its per-layer metrics with ``--trace 1``) it prints both sides'
median and quartiles, how many pairs the change won (ties count for neither)
and the failed-operation counts, then the verdict of the two-sided rule the
benchmark's protocol uses: a gain is claimable when the change wins at least
nine tenths of the pairs and the medians differ, in the better direction, by
more than the base's interquartile range; an end-to-end metric regresses when
the change's median is worse than the base's by more than its bound.
``--out`` also writes every run's result as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD~1")
    p.add_argument("--base-dir", default=None,
                   help="run the base side from this checkout, not a worktree of --base")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=None,
                   help="default: the workloads BENCHMARK.json lists")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    return p.parse_args()


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(cwd: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run -> its JSON result, or ``{"error": ...}``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timeout after {RUN_TIMEOUT_S} s"}
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}


def _quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def summarize(runs: list, metrics: list) -> list:
    """Report lines for one workload's ``runs`` (dicts with ``pair``,
    ``side`` and ``result``) over ``metrics`` (BENCHMARK.json entries)."""
    by_pair: dict = {}
    failed = {"base": 0, "change": 0}
    attempted = {"base": 0, "change": 0}
    for r in runs:
        res = r["result"]
        attempted[r["side"]] += int(res.get("attempted", 0))
        failed[r["side"]] += int(res.get("failed", 0)) + ("error" in res)
        by_pair.setdefault(r["pair"], {})[r["side"]] = {
            k: v["value"] for k, v in res.get("metrics", {}).items()}
    lines = [f"  failed operations: base {failed['base']}/{attempted['base']}, "
             f"change {failed['change']}/{attempted['change']}"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["base"][name], p["change"][name]) for p in by_pair.values()
                 if name in p.get("base", {}) and name in p.get("change", {})]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        bq1, bmed, bq3 = _quartiles(base)
        cq1, cmed, cq3 = _quartiles(change)
        gain = (bmed - cmed) if lower else (cmed - bmed)
        verdict = []
        if wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
            verdict.append("GAIN")
        bound = m.get("bound")
        if bound is not None and bmed and -gain / abs(bmed) > bound:
            verdict.append(f"REGRESSION (> {bound:.0%} bound)")
        rel = f"{(cmed - bmed) / abs(bmed):+.1%}" if bmed else "n/a"
        lines.append(
            f"  {name} [{m.get('unit', '')}]: base {bmed:.4g} ({bq1:.4g}-{bq3:.4g}), "
            f"change {cmed:.4g} ({cq1:.4g}-{cq3:.4g}), {rel}, "
            f"change won {wins}/{len(pairs)}  {' '.join(verdict) or '-'}"
        )
    return lines


def main() -> int:
    args = _args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or int(spec["run_seconds"])
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    if args.base_dir:
        tree = base_rev = os.path.abspath(args.base_dir)
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            raise SystemExit(f"--base-dir {tree} has no perfbench/run.py")
    else:
        base_rev = _git("rev-parse", "--verify", args.base + "^{commit}")
        tree = os.path.join(ROOT, ".ab")
        _git("worktree", "add", "--detach", "--force", tree, base_rev)
    runs: list = []
    try:
        for i in range(args.pairs):
            sides = [("base", tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            for workload in workloads:
                for side, cwd in sides:
                    res = run_once(cwd, workload, args.seed + i, seconds, args.trace)
                    runs.append({"pair": i, "workload": workload, "side": side,
                                 "seed": args.seed + i, "result": res})
                    print(f"pair {i} {workload} {side}: "
                          f"{res.get('error') or res.get('metrics')}", flush=True)
    finally:
        if not args.base_dir:
            _git("worktree", "remove", "--force", tree)
            _git("worktree", "prune")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"base": base_rev, "runs": runs}, fh, indent=1)
    base_name = base_rev if args.base_dir else base_rev[:12]
    print(f"\nbase {base_name} vs working tree, {args.pairs} pairs, "
          f"--seconds {seconds} --trace {args.trace}")
    for workload in workloads:
        print(workload)
        for line in summarize([r for r in runs if r["workload"] == workload], metrics):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
