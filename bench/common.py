"""Shared plumbing of the harness: source path, supervision, THP, pinning, calibration, quantiles."""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero.

    An installed copy elsewhere would measure some other commit, so a
    checkout without ``src/repro`` is an error, not a fallback.
    """
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import repro from {SRC}: {exc}")
    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: repro resolved to {repro.__file__}, not under {SRC}")


def child_env() -> dict[str, str]:
    """Environment for harness subprocesses: this checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def supervise(cmd: list[str], grace: float = 10.0) -> int:
    """Run ``cmd``; return its exit code once it and all it left behind have ended.

    A workload starts processes that outlive the interpreter that ran it:
    ``multiprocessing``'s resource tracker (there since the first shared-memory
    segment of the worker pool) only exits on seeing its parent gone, and a
    workload that dies leaves its served child and pool workers.  This process
    becomes the subreaper of its descendants, so each of them lands here as a
    child when its parent ends, and ``waitpid`` says when the last has gone.
    Those still running ``grace`` seconds after ``cmd`` ended are killed.  Told
    to stop, this process kills ``cmd`` and leaves the rest two seconds: the
    resource tracker needs milliseconds to unlink the segments ``cmd`` held.
    """
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):  # no prctl here: direct children only
        pass

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        grace = 2.0
        raise
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        deadline = time.monotonic() + grace
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # no child left
                break
            if pid == 0:
                if time.monotonic() >= deadline:
                    for child in _children():
                        os.kill(child, signal.SIGKILL)
                time.sleep(0.005)
    return code


def _children() -> list[int]:
    """Ids of the live processes whose parent is this one (read off ``/proc``)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:  # "pid (comm) state ppid ...": comm may hold spaces and brackets
                fields = Path("/proc", entry, "stat").read_text().rpartition(")")[2].split()
            except OSError:  # ended since the listing
                continue
            if int(fields[1]) == me:
                found.append(int(entry))
    return found


def steady_memory() -> None:
    """Turn transparent huge pages off for this process and its children.

    With THP ``always`` (this box) a fresh anonymous mapping is backed by
    2 MiB pages the guest has often never touched, and a first touch of
    those costs anything from 1x to 20x: the same 64 MiB pool resize took
    50 ms or 1.2 s, in about a third of all repetitions.  With 4 KiB pages
    the kernel hands back the pages the previous repetition just freed.
    The setting is inherited across fork and exec, so served children and
    pool workers run under it too.
    """
    pr_set_thp_disable = 41
    try:
        ctypes.CDLL(None).prctl(pr_set_thp_disable, 1, 0, 0, 0)
    except (OSError, AttributeError):  # no prctl here: run with the default
        pass


#: The CPUs this process may use, read once before anything pins itself: an
#: affinity mask is inherited by children, so a list read after pinning holds
#: only the CPU the parent chose.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def pin_to_cpu(cpu: int) -> None:
    """Keep this process on ``cpu``, an id taken from ``ALLOWED_CPUS``.

    The served workloads pin client and child so that a calibration read in
    a process speaks for the core its work ran on.  serve_steady puts both
    on one core: with one closed-loop connection they never compute at
    once, but across two vCPUs every hand-over wakes an idle vCPU at a
    cost the hypervisor sets and no calibration sees (seconds per request
    0.53 to 0.95 ms from one quarter second to the next across cores, 0.65
    to 0.79 ms on one).  serve_churn keeps them apart, as its writer is
    busy half the time and on one core starves the client (p99 of 358 ms
    against 16 to 28 ms apart).
    """
    os.sched_setaffinity(0, {cpu})


#: What ``calibrate`` reads on the box the workloads were sized on when its
#: neighbours are quiet.  Only fixes the scale of the reported seconds.
REFERENCE_CALIBRATION_S = 0.003

_scatter_index = np.random.default_rng(0).integers(0, 1 << 20, 1 << 17)
_scatter_target = np.zeros(1 << 20, np.int64)


def calibrate() -> float:
    """Seconds a fixed loop takes right now: how fast the box is at this moment.

    Half scattered numpy writes over 8 MiB, half interpreter arithmetic: the
    two kinds of work the program is made of.  On a shared 2-vCPU VM the
    same loop reads 2.4 to 3.6 ms within a minute, each vCPU on its own, and
    a whole run lands in one state or another, so medians within a run
    cannot remove it; dividing each timed stage by the loop's time just
    before and after it does most of it (quartile spread over ten runs on
    the noisiest evening, as measured against scaled: batch_insert 17 %
    against 5 %, batch_mixed 28 % against 15 %, serve_steady 15 % against 5 %).
    The loop stands in for the program's work, it is not the program: treap
    walks and scalar union loops slow down more than it does, which is why
    the as-measured seconds are always reported beside the scaled ones.
    Read in thread CPU time, so waiting for the interpreter lock or for the
    core, as in the served child, does not count as the box being slow.
    """
    t0 = time.thread_time()
    np.add.at(_scatter_target, _scatter_index, 1)
    x = 0
    for i in range(40000):
        x += i * i
    return time.thread_time() - t0


def at_reference_speed(seconds: float, *calibrations: float) -> float:
    """``seconds`` scaled to the speed at which ``calibrate`` reads the reference."""
    return seconds * REFERENCE_CALIBRATION_S * len(calibrations) / sum(calibrations)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of an unsorted sample (0.0 when empty)."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[min(len(s) - 1, int(q * len(s)))])
