"""Seeded benchmark of the precharge simulator and its job service.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``grid``: every built-in L1 policy on gcc, equake, mcf and art at 30k
  micro-ops, through ``SimEngine(fast=True, workers=nproc).run_many``;
* ``serve-miss``: a closed loop of ``nproc`` clients against ``repro
  serve --fast --store --journal``, every job a fresh 6k micro-op unit.

``--trace 0`` measures the program as shipped and reports the end-to-end
metrics; ``--trace 1`` adds spans and the kernel profiler and reports
the per-layer ledger.  The report goes to standard output; its last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 for a correct run, 1 when a result
mismatched, an operation or the run failed or a process it started
outlived it, 2 for a checkout without the simulator's sources, 130 when
interrupted.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import List, Optional

import host

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("grid", "serve-miss")

#: How long finished processes get to disappear before the leak check fails.
REAP_S = 10.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _interrupted(signum, frame):  # noqa: ANN001 - signal handler signature
    raise KeyboardInterrupt(f"signal {signum}")


def _leaked(server_groups: List[int]) -> List[int]:
    """Processes this run started that are still alive (after a grace period)."""
    deadline = time.monotonic() + REAP_S
    while True:
        multiprocessing.active_children()  # reaps finished pool workers
        alive = set(host.descendants(os.getpid()))
        for group in server_groups:
            alive.update(host.group_members(group))
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return sorted(alive)


def _expected_metrics(trace: int) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Hermetic: nothing armed from the caller's shell, every cache, store,
    # journal and temporary file inside this run's own directory.
    for name in host.ARMING_ENV:
        os.environ.pop(name, None)
    runs = ROOT / ".perfbench"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    for name, sub in (("REPRO_TRACE_CACHE_DIR", "traces"), ("XDG_CACHE_HOME", "cache"),
                      ("TMPDIR", "tmp")):
        (run_dir / sub).mkdir()
        os.environ[name] = str(run_dir / sub)
    tempfile.tempdir = str(run_dir / "tmp")
    sys.path.insert(1, str(ROOT / "src"))
    previous = {signum: signal.signal(signum, _interrupted)
                for signum in (signal.SIGINT, signal.SIGTERM)}

    from common import RunContext

    ctx = RunContext(root=ROOT, run_dir=run_dir, seed=args.seed, seconds=float(args.seconds),
                     cpus=sorted(os.sched_getaffinity(0)))
    result = None
    status = 1
    try:
        import grid
        import serve

        if args.workload == "grid":
            result = grid.run(ctx, traced=bool(args.trace))
        else:
            result = serve.run(ctx, traced=bool(args.trace))
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        status = 130
    except Exception:  # noqa: BLE001 - the run fails, with its traceback
        traceback.print_exc()
    finally:
        leaked = _leaked(ctx.server_groups)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass
    if leaked:
        print(f"perfbench: processes outlived the run and were killed: {leaked}", file=sys.stderr)
        return 1
    if result is None:
        return status

    names = _expected_metrics(args.trace)
    missing = [name for name in names if name not in result.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    facts = host.host_facts(ROOT)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} host={json.dumps(facts, sort_keys=True)}")
    for line in result.lines:
        print(f"  {line}")
    for name in names:
        value, unit = result.metrics[name]
        print(f"  {name:28s} {value:14.6g} {unit}")
    tally = result.tally
    print(f"  error_rate {tally.error_rate:.6g} ({tally.failed} of {tally.attempted}: "
          + ", ".join(f"{k} {v}" for k, v in tally.counts.items() if v) + ")")
    print(f"  correct {str(result.correct).lower()}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                    for name in names},
    }))
    return 0 if result.correct and tally.attempted else 1


if __name__ == "__main__":
    sys.exit(main())
