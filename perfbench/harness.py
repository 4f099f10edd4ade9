"""Run plumbing shared by the workloads: the Ray session, operation accounting
with per-operation timeouts, a watchdog for hung calls, and metric reporting.

Every call into the library that a workload makes goes through
:meth:`Harness.op`, which counts it as attempted, times it, records a span
when tracing is on, and counts it as failed when it raises or overruns its
timeout.  Answer checks count a wrong answer as one more failure.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from spans import Tracer

#: hard limit for one whole run; the watchdog ends the run past this
RUN_LIMIT_S = 170.0


class RunAborted(RuntimeError):
    pass


@dataclass
class OpResult:
    ok: bool
    value: Any
    seconds: float


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


class Harness:
    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.tracer = Tracer(trace)
        self.t_start = time.monotonic()
        tag = f"{workload}-{seed}-trace{int(trace)}"
        self.work = os.path.join(root, ".perfbench", f"{tag}-{os.getpid()}")
        self.out = os.path.join(root, ".perfbench", "out", tag)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(os.path.dirname(self.out), exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}
        self.metrics: Dict[str, tuple] = {}  # name -> (value, unit)
        self.meta: Dict[str, Any] = {}
        self._cur: Optional[tuple] = None  # (op name, monotonic deadline)
        self._lock = threading.Lock()
        self.ray_cpus = 0
        self.session: Optional[str] = None  # Ray's session dir, once started

    # ---- accounting ----

    def fail(self, name: str, why: str) -> None:
        with self._lock:
            self.failed += 1
            self.failures[name] = self.failures.get(name, 0) + 1
        print(f"[perfbench] failed {name}: {why}", file=sys.stderr, flush=True)

    def op(self, name: str, timeout: float, fn: Callable, *args, **kwargs) -> OpResult:
        """Call ``fn`` as one accounted operation with a ``timeout`` in seconds."""
        with self._lock:
            self.attempted += 1
        self._cur = (name, time.monotonic() + timeout)
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name):
                value = fn(*args, **kwargs)
        except Exception as e:  # an exception is a failed operation, not a crash
            self._cur = None
            self.fail(name, repr(e)[:300])
            return OpResult(False, None, time.perf_counter() - t0)
        dt = time.perf_counter() - t0
        self._cur = None
        if dt > timeout:
            self.fail(name, f"took {dt:.1f}s, timeout {timeout}s")
            return OpResult(False, value, dt)
        return OpResult(True, value, dt)

    def wrong_answer(self, what: str) -> None:
        self.fail("check", what)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.t_start)

    def out_path(self, suffix: str) -> str:
        """A file kept after the run, under ``.perfbench/out/``."""
        return f"{self.out}.{suffix}"

    def set(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    # ---- watchdog ----

    def watch(self, target: Callable[[], None]) -> None:
        """Run ``target`` in a worker thread; abort the run if one operation
        overruns its timeout or the whole run nears RUN_LIMIT_S."""
        err: List[BaseException] = []

        def body():
            try:
                target()
            except BaseException as e:  # re-raised in the caller's thread
                err.append(e)

        t = threading.Thread(target=body, name="workload", daemon=True)
        t.start()
        while t.is_alive():
            t.join(0.2)
            cur = self._cur
            if cur is not None and time.monotonic() > cur[1]:
                self.fail(cur[0], "timed out (hung)")
                raise RunAborted(f"operation {cur[0]} hung past its timeout")
            if self.remaining() < 0:
                raise RunAborted("run exceeded its time limit")
        if err:
            raise err[0]

    # ---- Ray ----

    def start_ray(self, num_cpus: int) -> None:
        import ray

        tmp = os.path.join(self.root, ".perfbench", "ray")
        kw = {}
        # Ray's unix sockets live under the temp dir; their paths must stay
        # below the 107-byte AF_UNIX limit, so a deep checkout keeps Ray's default
        if len(tmp) <= 40:
            os.makedirs(tmp, exist_ok=True)
            kw["_temp_dir"] = tmp
        else:
            print("[perfbench] checkout path too long for Ray sockets; "
                  "using Ray's default temp dir", file=sys.stderr)
        t0 = time.perf_counter()
        ray.init(
            address="local", num_cpus=num_cpus, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=512 * 1024 * 1024, **kw,
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        logging.getLogger("ray").setLevel(logging.ERROR)
        self.ray_init_s = time.perf_counter() - t0
        self.ray_cpus = num_cpus
        self.session = _session_dir()

    def stop_ray(self) -> float:
        import ray

        started = _descendants()
        t0 = time.perf_counter()
        if ray.is_initialized():
            ray.shutdown()
        dt = time.perf_counter() - t0
        self.reap(started)
        session = self.session
        if session and session.startswith(os.path.join(self.root, ".perfbench")):
            shutil.rmtree(session, ignore_errors=True)  # Ray's logs for this run
        return dt

    def reap(self, started: Sequence[int] = (), limit_s: float = 10.0) -> None:
        """Wait until every process this run started has exited, killing what
        is left after ``limit_s``: ``started``, the current descendants, and
        any process whose command line names this run's Ray session (a Ray
        process whose parent died is no longer a descendant).  A process
        forked while the others were going gets a second pass."""
        pids = list(started) + _descendants() + _session_pids(self.session)
        for _ in range(3):
            _wait_gone(pids, limit_s)
            pids = _descendants() + _session_pids(self.session)
            if not pids:
                return

    # ---- output ----

    def run_meta(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.tracer.enabled,
            "git_commit": _git_commit(self.root),
            "source_sha256": _source_digest(self.root),
            "nproc": _nproc(),
            "cpus_in_affinity": len(os.sched_getaffinity(0)),
            "ray_logical_cpus": self.ray_cpus,
            **self.meta,
        }

    def emit(self) -> None:
        """Human-readable lines, then the one-line JSON result last."""
        meta = self.run_meta()
        print("meta " + json.dumps(meta, sort_keys=True))
        rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"op_failure_rate {rate:.6f} ratio "
              f"(failed {self.failed} of {self.attempted} attempted)")
        if self.failures:
            print("failures " + json.dumps(self.failures, sort_keys=True))
        for name in sorted(self.metrics):
            v, unit = self.metrics[name]
            print(f"{name} {v:.6g} {unit}")
        out = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": int(max(self.attempted, 1)),
            "failed": int(self.failed if self.attempted else 1),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in self.metrics.items()},
        }
        with open(self.out_path("result.json"), "w") as fh:
            json.dump({"meta": meta, **out}, fh, indent=1)
        print(json.dumps(out), flush=True)


def _session_dir() -> Optional[str]:
    try:
        from ray._private.worker import _global_node

        return _global_node.get_session_dir_path()
    except (ImportError, AttributeError):
        return None


def _session_pids(session: Optional[str]) -> List[int]:
    """Pids of the processes whose command line names Ray session ``session``."""
    if not session:
        return []
    name = os.path.basename(session.rstrip("/")).encode()
    out = []
    for pid in os.listdir("/proc"):
        if pid.isdigit() and int(pid) != os.getpid():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if name in fh.read():
                        out.append(int(pid))
            except OSError:
                continue
    return out


def _descendants() -> List[int]:
    """Pids of every process below this one (Ray's raylet, GCS, agents and
    the raylet's workers), read from /proc."""
    parent = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    # the command name may hold spaces; ppid follows its ')'
                    parent[int(pid)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    out, frontier = [], [os.getpid()]
    while frontier:
        kids = [p for p, pp in parent.items() if pp in frontier]
        out.extend(kids)
        frontier = kids
    return out


def _wait_gone(pids: List[int], limit_s: float) -> None:
    """Wait until every pid has exited; kill what is left after ``limit_s``
    and wait (up to 10 s more) until those have gone too."""
    deadline = time.monotonic() + limit_s
    killed = False
    while True:
        left = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().rsplit(")", 1)[1].split()[0] != "Z":
                        left.append(pid)
            except (OSError, IndexError):
                continue
        if not left:
            return
        if time.monotonic() > deadline:
            if killed:
                return
            names = []
            for pid in left:
                try:
                    with open(f"/proc/{pid}/comm") as fh:
                        names.append(fh.read().strip())
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            if limit_s:
                print(f"[perfbench] killed {len(left)} processes still running "
                      f"{limit_s:.0f}s after Ray shutdown: {sorted(names)}",
                      file=sys.stderr, flush=True)
            killed, deadline = True, time.monotonic() + 10
        time.sleep(0.2)


def _nproc() -> Optional[int]:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS and CPU affinity)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout, or None when ``root`` is not a git work tree's top
    (a parent directory's repository would name the wrong commit)."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _source_digest(root: str) -> str:
    """Digest of the library's Python sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "lucille_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]
