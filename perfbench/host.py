"""Host facts and process bookkeeping (Linux ``/proc``).

Everything here reads the machine, never the simulator: which processes
descend from a pid, their peak resident memory, and the facts every
result records (CPU count and model, Python and numpy versions, the git
commit, and how fast the host runs a fixed loop right now).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Environment variables that arm repro code at import time.  Runs scrub
#: them so an operator's shell cannot inject faults, the phase profiler
#: or structured logs into a measurement.
ARMING_ENV = ("REPRO_FAULTS", "REPRO_PROFILE", "REPRO_OBS_LOG")

#: Iterations of the host speed probe's pure-Python loop.
PROBE_LOOPS = 300_000


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2:].split()


def _all_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def descendants(root: int) -> List[int]:
    """Live pids whose parent chain reaches ``root`` (``root`` excluded)."""
    children: Dict[int, List[int]] = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] not in ("Z", "X"):
            children.setdefault(int(fields[1]), []).append(pid)
    found: List[int] = []
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def group_members(pgid: int) -> List[int]:
    """Live pids in process group ``pgid``."""
    members = []
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and fields[0] not in ("Z", "X") and int(fields[2]) == pgid:
            members.append(pid)
    return members


def status_kb(pid: int, field: str) -> int:
    """One ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in KiB; 0 if gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the processes' peak resident set sizes (``VmHWM``), in MiB."""
    return sum(status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def scrubbed_env(**overrides: str) -> Dict[str, str]:
    """A copy of the environment without the arming variables."""
    env = {key: value for key, value in os.environ.items() if key not in ARMING_ENV}
    env.update(overrides)
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def probe_ms(repeats: int = 3) -> float:
    """Best-of-``repeats`` time of a fixed pure-Python loop, in milliseconds.

    A shared host's speed can drift by half within minutes; a reader
    comparing runs taken apart can tell a slower program from a slower
    host only with a reading of the host alone, taken at the same time.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for index in range(PROBE_LOOPS):
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def host_facts(root: Path) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count() or 1,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(root),
        "probe_ms": round(probe_ms(), 3),
    }
