"""The ``repro`` command line interface.

Reproduce the paper from a shell::

    python -m repro run --benchmark gcc --dcache gated-predecode:threshold=150
    python -m repro run --benchmark gcc --dcache gated --l2-policy gated:threshold=500
    python -m repro sweep --dcache gated --workers 4 --benchmarks gcc,mesa,art
    python -m repro sweep --dcache gated --l2-policy on-demand --fast
    python -m repro run --benchmark mix:gcc+mcf@2000 --fast
    python -m repro experiment figure8 --json --benchmarks gcc,mesa
    python -m repro experiment l2sweep --fast
    python -m repro experiment --list
    python -m repro policies
    python -m repro bench --baseline benchmarks/perf_smoke_baseline.json
    python -m repro trace record --benchmark gcc --out gcc.trace.gz
    python -m repro run --benchmark trace:gcc.trace.gz
    python -m repro run --benchmark "mix:(phases:gcc+mcf@5000)*2+vortex@800"
    python -m repro run --benchmark fuzz:17 --fast
    python -m repro fuzz --budget 50 --seed-base 0 --report fuzz.json
    python -m repro regen-goldens
    python -m repro serve --port 8023 --workers 4 --fast --store runs/ --journal jobs.wal
    python -m repro submit --server http://127.0.0.1:8023 --benchmarks gcc,art --dcache gated
    python -m repro jobs --server http://127.0.0.1:8023
    python -m repro run --benchmark gcc --dcache gated --server http://127.0.0.1:8023
    python -m repro loadgen --server http://127.0.0.1:8023 --rate 20 --duration 5
    python -m repro loadgen --server http://127.0.0.1:8023 --sweep 5,10,20,40
    python -m repro trace --server http://127.0.0.1:8023 --out spans.json
    python -m repro profile --benchmark gcc --instructions 50000

Every subcommand accepts ``--json`` for machine-readable output; run and
sweep results are full :meth:`~repro.sim.metrics.RunResult.to_dict`
payloads, and engine-driven experiment payloads (``"uses_engine": true``)
carry the engine's underlying runs under ``"runs"``, so downstream
tooling can rebuild them with
:meth:`~repro.sim.metrics.RunResult.from_dict`.  ``--store DIR`` points
the engine at an on-disk result store so repeated invocations resume
instead of re-simulating.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.bench import run_from_args as _cmd_bench
from repro.bench import add_bench_arguments
from repro.circuits.technology import get_technology
from repro.core.registry import PolicySpec, get_policy_info, policy_names
from repro.experiments.registry import ExperimentOptions, experiment_names, get_experiment
from repro.experiments.report import jsonify as _jsonify
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.workloads.scenarios import validate_workload_name

__all__ = ["main", "build_parser"]


def _validate_user_input(benchmarks: Optional[List[str]], feature_size: Optional[int]) -> None:
    """Convert the domain lookups' KeyError into the CLI's ValueError path.

    The workload and technology tables raise KeyError (their documented
    contract); at the CLI boundary a bad benchmark name or node is user
    input and must exit 2 with a message, not a traceback.  Benchmark
    names validate through :func:`validate_workload_name`, so scenario
    (``mix:``/``phases:``) and ``trace:`` names are checked too —
    without building the workload twice per invocation.
    """
    try:
        for name in benchmarks or ():
            validate_workload_name(name)
        if feature_size is not None:
            get_technology(feature_size)
    except KeyError as error:
        raise ValueError(error.args[0]) from None


def _parse_benchmarks(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    names = [name.strip() for name in text.split(",") if name.strip()]
    return names or None


def _make_engine(args: argparse.Namespace) -> SimEngine:
    return SimEngine(
        workers=getattr(args, "workers", 1),
        store=getattr(args, "store", None),
        fast=getattr(args, "fast", False),
    )


def _make_config(args: argparse.Namespace, benchmark: Optional[str] = None) -> SimulationConfig:
    return SimulationConfig(
        benchmark=benchmark or args.benchmark,
        dcache=PolicySpec.parse(args.dcache),
        icache=PolicySpec.parse(args.icache),
        feature_size_nm=args.feature_size,
        subarray_bytes=args.subarray_bytes,
        n_instructions=args.instructions,
        seed=args.seed,
        l2=PolicySpec.parse(args.l2_policy),
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for parallel execution (default: 1, serial)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist results in DIR and reuse them on later invocations",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help=(
            "execute on the batched fast-path kernel (several times faster, "
            "bit-identical results)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON on stdout"
    )
    parser.add_argument(
        "--server",
        metavar="URL",
        default=None,
        help=(
            "execute against a running `repro serve` instance instead of "
            "in-process (results are byte-identical); --workers/--store/"
            "--fast are then the server's settings"
        ),
    )


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dcache",
        default="static",
        metavar="SPEC",
        help='L1D policy spec, e.g. "gated-predecode:threshold=150" (default: static)',
    )
    parser.add_argument(
        "--icache",
        default="static",
        metavar="SPEC",
        help='L1I policy spec, e.g. "gated:threshold=100" (default: static)',
    )
    parser.add_argument(
        "--l2-policy",
        "--l2",
        default="static",
        metavar="SPEC",
        help=(
            'unified-L2 policy spec, e.g. "gated:threshold=500" '
            "(default: static — the conventional L2)"
        ),
    )
    parser.add_argument("--feature-size", type=int, default=70, metavar="NM",
                        help="technology node in nm (default: 70)")
    parser.add_argument("--subarray-bytes", type=int, default=1024,
                        help="precharge-control granularity (default: 1024)")
    parser.add_argument("--instructions", type=int, default=20_000,
                        help="micro-ops to simulate per run (default: 20000)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction driver for Yang & Falsafi, 'Near-Optimal Precharging "
            "in High-Performance Nanoscale CMOS Caches' (MICRO-36, 2003)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="simulate one configuration")
    run.add_argument("--benchmark", default="gcc", help="benchmark name (default: gcc)")
    _add_config_arguments(run)
    _add_engine_arguments(run)

    sweep = subparsers.add_parser("sweep", help="run one configuration across benchmarks")
    sweep.add_argument(
        "--benchmarks",
        default=None,
        metavar="A,B,...",
        help="comma-separated benchmark names (default: all sixteen)",
    )
    _add_config_arguments(sweep)
    _add_engine_arguments(sweep)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "name",
        nargs="?",
        default=None,
        help=f"one of: {', '.join(experiment_names())}",
    )
    experiment.add_argument(
        "--list", action="store_true", help="list registered experiments and exit"
    )
    experiment.add_argument(
        "--benchmarks",
        default=None,
        metavar="A,B,...",
        help="benchmark subset (default: experiment-specific, usually all)",
    )
    experiment.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="micro-ops per run (default: experiment-specific)",
    )
    experiment.add_argument(
        "--feature-size", type=int, default=None, metavar="NM",
        help="technology node in nm (default: experiment-specific, usually 70)",
    )
    experiment.add_argument(
        "--l2-policy",
        "--l2",
        default=None,
        metavar="SPEC",
        help=(
            "force a unified-L2 policy spec onto every simulated "
            "configuration (default: experiment-specific, usually static)"
        ),
    )
    _add_engine_arguments(experiment)

    policies = subparsers.add_parser("policies", help="list registered precharge policies")
    policies.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON on stdout"
    )

    bench = subparsers.add_parser(
        "bench",
        help="gate the fast path: time it against the reference loop, "
        "check identity, compare speedups with a baseline",
    )
    add_bench_arguments(bench)

    trace = subparsers.add_parser(
        "trace",
        help="fetch a live service's span timeline as Chrome trace JSON, "
        "or record/inspect compressed .trace.gz micro-op traces",
    )
    trace.add_argument(
        "--server", metavar="URL", default=None,
        help="service base URL; fetches the span timeline (open the JSON "
        "in Perfetto / chrome://tracing)",
    )
    trace.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the trace JSON to PATH instead of stdout",
    )
    trace.add_argument(
        "--follow", action="store_true",
        help="keep polling for new spans until interrupted (with --out "
        "the file is rewritten each poll; otherwise spans print as lines)",
    )
    trace.add_argument(
        "--since", type=int, default=None, metavar="SEQ",
        help="only spans recorded after ring sequence number SEQ",
    )
    trace.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="poll interval for --follow in seconds (default: 1.0)",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=False)
    record = trace_commands.add_parser(
        "record", help="record a workload prefix to a trace file"
    )
    record.add_argument(
        "--benchmark",
        default="gcc",
        help="benchmark or scenario name to record (default: gcc)",
    )
    record.add_argument("--out", required=True, metavar="PATH",
                        help="destination trace file (*.trace.gz)")
    record.add_argument("--instructions", type=int, default=20_000,
                        help="micro-ops to record (default: 20000)")
    record.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    info = trace_commands.add_parser("info", help="show a trace file's metadata")
    info.add_argument("path", help="trace file to inspect")
    info.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON on stdout"
    )

    profile = subparsers.add_parser(
        "profile",
        help="attribute fast-path kernel wall time to pipeline stages "
        "(compile, quiet-skip, fetch, issue-scan, cache)",
    )
    profile.add_argument(
        "--benchmark", default="gcc",
        help="benchmark or scenario name (default: gcc)",
    )
    _add_config_arguments(profile)
    profile.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="aggregate the profile over N runs (default: 1)",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON on stdout",
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help=(
            "differentially fuzz the fast path against the reference "
            "kernel on seeded random scenarios"
        ),
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=25,
        help="number of seeded scenarios to run (default: 25)",
    )
    fuzz.add_argument(
        "--seed-base",
        type=int,
        default=0,
        help="first fuzz seed; scenarios use seed-base..seed-base+budget-1 "
        "(default: 0)",
    )
    fuzz.add_argument(
        "--depth",
        type=int,
        default=None,
        help="max nesting depth of generated scenarios (default: 3)",
    )
    fuzz.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="micro-ops per differential run (default: 2000)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=1, help="workload seed (default: 1)"
    )
    fuzz.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the JSON campaign report to PATH",
    )
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="write minimized reproducers of any mismatch into DIR "
        "(default: tests/fuzz_corpus when it exists, else disabled)",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="emit the JSON report on stdout"
    )

    chaos = subparsers.add_parser(
        "chaos",
        help=(
            "run seeded fault-injection campaigns against a live service "
            "and assert the recovery invariants"
        ),
    )
    chaos.add_argument(
        "--budget",
        type=int,
        default=25,
        help="number of seeded chaos trials to run (default: 25)",
    )
    chaos.add_argument(
        "--seed-base",
        type=int,
        default=0,
        help="first trial seed; trials use seed-base..seed-base+budget-1 "
        "(default: 0)",
    )
    chaos.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="micro-ops per chaos unit (default: 1500)",
    )
    chaos.add_argument(
        "--kill9-every",
        type=int,
        default=5,
        help="every Nth trial runs the kill -9 matrix against a repro "
        "serve subprocess; 0 disables (default: 5)",
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="per-trial recovery deadline in seconds (default: 120)",
    )
    chaos.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the JSON campaign report to PATH",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit the JSON report on stdout"
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a live repro service with generated or replayed traffic",
    )
    from repro.loadgen.cli import add_loadgen_arguments

    add_loadgen_arguments(loadgen)

    serve = subparsers.add_parser(
        "serve",
        help="run the simulation job-queue service (HTTP, stdlib only)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="TCP port; 0 picks an ephemeral one (default: 8023)")
    serve.add_argument("--workers", type=int, default=1,
                       help="engine worker processes per execution (default: 1)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="on-disk result store; strongly recommended — it "
                            "backs /v1/results and journal resume")
    serve.add_argument("--fast", action="store_true",
                       help="execute on the fast-path kernel (bit-identical)")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="write-ahead job journal; a restarted server "
                            "resumes unfinished jobs from it")
    serve.add_argument("--queue-limit", type=int, default=256,
                       help="max live jobs before 429 (default: 256)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to let the in-flight execution finish "
                            "on SIGTERM before cancelling it (default: 10)")
    serve.add_argument("--faults", metavar="SPEC", default=None,
                       help="install a deterministic fault plan, e.g. "
                            "'seed=7;engine.chunk=crash:p=0.5,max=1' "
                            "(testing only; see repro.faults)")
    serve.add_argument("--ready-file", metavar="PATH", default=None,
                       help="write the bound URL to PATH once listening "
                            "(for --port 0 under test harnesses)")

    submit = subparsers.add_parser(
        "submit",
        help="submit a run or sweep to a repro service and (by default) wait",
    )
    submit.add_argument("--benchmark", default=None,
                        help="single benchmark (submits a run job)")
    submit.add_argument("--benchmarks", default=None, metavar="A,B,...",
                        help="comma-separated benchmarks (submits a sweep "
                             "job; default when --benchmark is absent: all)")
    _add_config_arguments(submit)
    submit.add_argument("--server", metavar="URL", required=True,
                        help="service base URL, e.g. http://127.0.0.1:8023")
    submit.add_argument("--priority", type=int, default=0,
                        help="job priority; larger runs sooner (default: 0)")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="server-side wall-clock budget for the job")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return without waiting")
    submit.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")

    jobs = subparsers.add_parser("jobs", help="list a repro service's jobs")
    jobs.add_argument("--server", metavar="URL", required=True,
                      help="service base URL")
    jobs.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON on stdout")

    result = subparsers.add_parser(
        "result", help="fetch one result from a repro service by job id or key"
    )
    result.add_argument("id", help="a job id (job-...) or canonical result key")
    result.add_argument("--server", metavar="URL", required=True,
                        help="service base URL")
    result.add_argument("--json", action="store_true",
                        help="emit full RunResult JSON instead of summaries")

    regen = subparsers.add_parser(
        "regen-goldens",
        help="recompute the golden experiment snapshots under tests/",
    )
    regen.add_argument(
        "--dir",
        default="tests/experiments/goldens",
        metavar="DIR",
        help="golden directory (default: tests/experiments/goldens)",
    )
    regen.add_argument(
        "--reference",
        action="store_true",
        help="compute on the reference path instead of the fast path "
        "(results are bit-identical; this is a cross-check knob)",
    )

    return parser


def _remote_engine(args: argparse.Namespace):
    """A SimEngine-shaped facade over ``--server URL``."""
    from repro.service.client import RemoteEngine, ServiceClient

    return RemoteEngine(ServiceClient(args.server))


def _cmd_run(args: argparse.Namespace) -> int:
    _validate_user_input([args.benchmark], args.feature_size)
    engine = _remote_engine(args) if args.server else _make_engine(args)
    result = engine.run(_make_config(args))
    if args.json:
        print(json.dumps(result.to_dict()))
    else:
        print(result.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    benchmarks = _parse_benchmarks(args.benchmarks)
    _validate_user_input(benchmarks, args.feature_size)
    engine = _remote_engine(args) if args.server else _make_engine(args)
    results = engine.sweep(_make_config(args, benchmark="gcc"), benchmarks=benchmarks)
    if args.json:
        print(json.dumps({name: run.to_dict() for name, run in results.items()}))
    else:
        for run in results.values():
            print(run.summary())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.list or args.name is None:
        if args.json:
            payload = {}
            for name in experiment_names():
                experiment = get_experiment(name)
                payload[name] = {
                    "title": experiment.title,
                    "description": experiment.description,
                    "uses_engine": experiment.uses_engine,
                    "consumes": list(experiment.consumes),
                }
            print(json.dumps(payload))
        else:
            for name in experiment_names():
                experiment = get_experiment(name)
                print(f"{name:12s} {experiment.title}")
                if experiment.description:
                    print(f"{'':12s}   {experiment.description}")
        return 0
    experiment = get_experiment(args.name)
    benchmarks = _parse_benchmarks(args.benchmarks)
    _validate_user_input(benchmarks, args.feature_size)
    engine = _remote_engine(args) if args.server else _make_engine(args)
    options = ExperimentOptions(
        benchmarks=tuple(benchmarks) if benchmarks else None,
        n_instructions=args.instructions,
        feature_size_nm=args.feature_size,
        l2_policy=args.l2_policy,
    )
    if args.l2_policy is not None:
        # Surface unknown policy names / parameters as clean exit-2
        # errors before any simulation starts.
        options.resolved_l2()
    if (args.workers != 1 or args.store or args.server) and not experiment.uses_engine:
        print(
            f"repro: note: experiment {experiment.name!r} does not run through "
            "the engine; --workers/--store/--server have no effect",
            file=sys.stderr,
        )
    supplied = {
        "benchmarks": options.benchmarks is not None,
        "n_instructions": options.n_instructions is not None,
        "feature_size_nm": options.feature_size_nm is not None,
        "l2_policy": options.l2_policy is not None,
    }
    flag_names = {
        "benchmarks": "--benchmarks",
        "n_instructions": "--instructions",
        "feature_size_nm": "--feature-size",
        "l2_policy": "--l2-policy",
    }
    ignored = [
        flag_names[field]
        for field, given in supplied.items()
        if given and field not in experiment.consumes
    ]
    if ignored:
        print(
            f"repro: note: experiment {experiment.name!r} ignores "
            + "/".join(ignored),
            file=sys.stderr,
        )
    result = experiment.run(engine, options)
    if args.json:
        payload = {
            "experiment": experiment.name,
            "title": experiment.title,
            "options": _jsonify(options),
            "uses_engine": experiment.uses_engine,
            "result": _jsonify(result),
            "runs": [run.to_dict() for run in engine.cached_results()],
        }
        print(json.dumps(payload))
    else:
        print(experiment.format(result))
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    if args.json:
        from repro.service.server import policies_payload

        print(json.dumps(policies_payload()))
    else:
        for name in policy_names():
            info = get_policy_info(name)
            params = ", ".join(f"{k}={v!r}" for k, v in info.defaults.items()) or "-"
            print(f"{name:16s} {info.description}")
            print(f"{'':16s}   params: {params}")
            if info.aliases:
                print(f"{'':16s}   aliases: {', '.join(info.aliases)}")
            if info.scheduler_extra_latency:
                print(
                    f"{'':16s}   scheduler extra latency: "
                    f"{info.scheduler_extra_latency} cycle(s)"
                )
    return 0


def _write_span_trace(args: argparse.Namespace, payload: dict) -> None:
    text = json.dumps(payload, indent=1)
    if args.out is None:
        print(text)
    else:
        from pathlib import Path

        try:
            Path(args.out).write_text(text + "\n")
        except OSError as error:
            raise ValueError(f"cannot write {args.out}: {error}") from None


def _trace_timeline(args: argparse.Namespace) -> int:
    """``repro trace --server URL``: the live span timeline as Chrome JSON."""
    import time

    client = _client(args)
    payload = client.trace(since=args.since)
    if not args.follow:
        _write_span_trace(args, payload)
        return 0
    events = list(payload.get("traceEvents", []))
    last_seq = payload.get("reproLastSeq", 0)
    dropped = payload.get("reproDropped", 0)

    def emit(new_events: list) -> None:
        if args.out is not None:
            merged = dict(payload)
            merged["traceEvents"] = events
            merged["reproLastSeq"] = last_seq
            merged["reproDropped"] = dropped
            _write_span_trace(args, merged)
            return
        for event in new_events:
            span_args = event.get("args", {})
            print(
                f"{event.get('ts', 0) / 1e6:14.3f}s "
                f"{event.get('dur', 0) / 1e3:10.3f}ms "
                f"{event.get('name', '?'):12s} "
                f"trace={span_args.get('trace_id', '-')}",
                flush=True,
            )

    try:
        emit(events)
        while True:
            time.sleep(args.interval)
            update = client.trace(since=last_seq)
            new_events = update.get("traceEvents", [])
            events.extend(new_events)
            last_seq = update.get("reproLastSeq", last_seq)
            dropped = update.get("reproDropped", dropped)
            emit(new_events)
    except KeyboardInterrupt:
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.tracefile import read_trace_meta, record_benchmark

    if args.trace_command is None:
        if args.server is None:
            raise ValueError(
                "repro trace needs --server URL (live span timeline) or a "
                "subcommand: record, info"
            )
        return _trace_timeline(args)
    if args.trace_command == "record":
        _validate_user_input([args.benchmark], None)
        try:
            count = record_benchmark(
                args.out, args.benchmark, args.instructions, seed=args.seed
            )
        except OSError as error:
            # An unwritable destination is user input, not a bug.
            raise ValueError(f"cannot write {args.out}: {error}") from None
        print(f"recorded {count} micro-ops of {args.benchmark!r} to {args.out}")
        return 0
    try:
        meta = read_trace_meta(args.path)
    except OSError as error:
        # Missing or unreadable-gzip paths exit 2 like every bad input.
        raise ValueError(f"cannot read {args.path}: {error}") from None
    if args.json:
        print(json.dumps(meta, sort_keys=True))
    else:
        for key in sorted(meta):
            print(f"{key:12s} {meta[key]}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.obs import profile as obs_profile
    from repro.sim.fastpath import execute_run_fast

    if args.repeat < 1:
        raise ValueError("--repeat must be positive")
    _validate_user_input([args.benchmark], args.feature_size)
    config = _make_config(args)
    obs_profile.install()
    try:
        wall_start = perf_counter()
        for _ in range(args.repeat):
            execute_run_fast(config)
        wall_s = perf_counter() - wall_start
        snapshot = obs_profile.snapshot(reset=True)
    finally:
        obs_profile.clear()
    if snapshot is None:  # pragma: no cover - install() above guarantees it
        snapshot = {"runs": 0, "phases": {}}
    phases = snapshot["phases"]
    attributed = sum(
        entry["seconds"] for name, entry in phases.items() if name != "cache"
    )
    payload = {
        "benchmark": args.benchmark,
        "instructions": args.instructions,
        "runs": snapshot["runs"],
        "wall_s": round(wall_s, 6),
        "attributed_s": round(attributed, 6),
        "phases": phases,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(
        f"kernel profile: {args.benchmark}, {args.instructions} "
        f"instruction(s) x {snapshot['runs']} run(s)"
    )
    print(f"{'phase':12s} {'seconds':>10s} {'% wall':>8s} {'events':>10s}")
    for name in obs_profile.PHASES:
        entry = phases.get(name, {"seconds": 0.0, "events": 0})
        share = 100.0 * entry["seconds"] / wall_s if wall_s > 0 else 0.0
        print(
            f"{name:12s} {entry['seconds']:10.6f} {share:7.1f}% "
            f"{entry['events']:10d}"
        )
    print(f"{'wall':12s} {wall_s:10.6f} {100.0:7.1f}%")
    print(
        "note: cache time also lies inside the fetch/issue-scan phases "
        "(hierarchy accesses happen there); the other phases are disjoint."
    )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import (
        DEFAULT_FUZZ_INSTRUCTIONS,
        DEFAULT_CORPUS_DIR,
        run_campaign,
    )
    from repro.workloads.fuzzgen import DEFAULT_FUZZ_DEPTH, MAX_FUZZ_DEPTH

    if args.budget < 1:
        raise ValueError("--budget must be positive")
    if args.seed_base < 0:
        raise ValueError("--seed-base must be non-negative")
    depth = DEFAULT_FUZZ_DEPTH if args.depth is None else args.depth
    if not 1 <= depth <= MAX_FUZZ_DEPTH:
        raise ValueError(f"--depth must be between 1 and {MAX_FUZZ_DEPTH}")
    if args.corpus is not None:
        corpus_dir: Optional[Path] = Path(args.corpus)
    elif DEFAULT_CORPUS_DIR.is_dir():
        corpus_dir = DEFAULT_CORPUS_DIR
    else:
        corpus_dir = None

    def progress(result) -> None:
        if args.json:
            return
        status = "ok" if result.matched else "MISMATCH"
        line = f"{result.name:16s} {status:8s} {result.canonical}"
        if result.reproducer is not None:
            line += f"\n{'':16s} minimized: {result.reproducer}"
        if result.corpus_path is not None:
            line += f"\n{'':16s} corpus:    {result.corpus_path}"
        print(line, flush=True)

    report = run_campaign(
        budget=args.budget,
        seed_base=args.seed_base,
        depth=depth,
        n_instructions=(
            DEFAULT_FUZZ_INSTRUCTIONS
            if args.instructions is None
            else args.instructions
        ),
        workload_seed=args.seed,
        corpus_dir=corpus_dir,
        progress=progress,
    )
    if args.report is not None:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    if args.json:
        print(json.dumps(report))
    else:
        print(
            f"fuzz: {report['budget']} scenario(s), "
            f"{report['mismatches']} mismatch(es)"
        )
    return 1 if report["mismatches"] else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.chaos import DEFAULT_CHAOS_INSTRUCTIONS, run_campaign

    if args.budget < 1:
        raise ValueError("--budget must be positive")
    if args.seed_base < 0:
        raise ValueError("--seed-base must be non-negative")
    if args.kill9_every < 0:
        raise ValueError("--kill9-every must be non-negative")
    if args.timeout <= 0:
        raise ValueError("--timeout must be positive")

    def progress(trial) -> None:
        if args.json:
            return
        status = "ok" if trial.ok else f"{len(trial.violations)} VIOLATION(S)"
        plan = trial.plan if trial.plan is not None else "kill -9"
        print(
            f"seed {trial.seed:<5d} {trial.kind:6s} {status:16s} "
            f"{trial.duration_s:6.1f}s  {plan}",
            flush=True,
        )
        for violation in trial.violations:
            print(f"{'':13s} {violation}", flush=True)
        if trial.trace_ids:
            ids = ", ".join(
                f"{job}={tid}" for job, tid in sorted(trial.trace_ids.items())
            )
            print(f"{'':13s} trace ids: {ids}", flush=True)

    report = run_campaign(
        budget=args.budget,
        seed_base=args.seed_base,
        n_instructions=(
            DEFAULT_CHAOS_INSTRUCTIONS
            if args.instructions is None
            else args.instructions
        ),
        kill9_every=args.kill9_every,
        timeout_s=args.timeout,
        progress=progress,
    )
    if args.report is not None:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    if args.json:
        print(json.dumps(report))
    else:
        print(
            f"chaos: {report['budget']} trial(s), "
            f"{report['verified_results']} result(s) verified identical, "
            f"{report['violations']} invariant violation(s)"
        )
    return 1 if report["violations"] else 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen.cli import run_from_args as loadgen_run

    return loadgen_run(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.service.journal import JournalLocked
    from repro.service.server import ServiceServer

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if args.faults is not None:
        from repro import faults

        try:
            faults.install(args.faults)
        except ValueError as error:
            raise ValueError(f"bad --faults spec: {error}") from None
    engine = SimEngine(workers=args.workers, store=args.store, fast=args.fast)
    try:
        server = ServiceServer(
            engine=engine,
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            journal=args.journal,
        )
    except JournalLocked as error:
        raise ValueError(str(error)) from None
    except OSError as error:
        # An unbindable address is user input, not a bug.
        raise ValueError(f"cannot bind {args.host}:{args.port}: {error}") from None
    server.serve_forever(
        drain_timeout=args.drain_timeout, ready_file=args.ready_file
    )
    return 0


def _client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.server)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.sim.metrics import RunResult

    if args.benchmark is not None and args.benchmarks is not None:
        raise ValueError("pass --benchmark (run job) or --benchmarks (sweep job), not both")
    benchmarks = _parse_benchmarks(args.benchmarks)
    _validate_user_input(
        [args.benchmark] if args.benchmark else benchmarks, args.feature_size
    )
    client = _client(args)
    if args.benchmark is not None:
        config = _make_config(args)
        receipt = client.submit_run(
            config, priority=args.priority, timeout_s=args.timeout
        )
        names = [args.benchmark]
    else:
        config = _make_config(args, benchmark="gcc")
        receipt = client.submit_sweep(
            config,
            benchmarks=benchmarks,
            priority=args.priority,
            timeout_s=args.timeout,
        )
        names = benchmarks or _all_benchmarks()
    if args.no_wait:
        if args.json:
            print(json.dumps(receipt))
        else:
            print(
                f"submitted {receipt['id']} ({receipt['status']}; "
                f"{len(receipt['units'])} unit(s), {receipt['coalesced']} "
                f"coalesced, {receipt['cached']} cached)"
            )
        return 0
    job = client.wait(receipt["id"])
    payloads = client.collect(receipt, job)
    if args.json:
        if args.benchmark is not None:
            print(json.dumps(payloads[0]))
        else:
            print(json.dumps(dict(zip(names, payloads))))
    else:
        for payload in payloads:
            print(RunResult.from_dict(payload).summary())
    return 0


def _all_benchmarks() -> List[str]:
    from repro.workloads.characteristics import benchmark_names

    return benchmark_names()


def _cmd_jobs(args: argparse.Namespace) -> int:
    jobs = _client(args).jobs()
    if args.json:
        print(json.dumps(jobs))
    else:
        if not jobs:
            print("no jobs")
        for job in jobs:
            line = (
                f"{job['id']:24s} {job['kind']:6s} {job['status']:10s} "
                f"prio={job['priority']:+d} units={job['units']}"
            )
            if job.get("error"):
                line += f"  error: {job['error']}"
            print(line)
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.sim.metrics import RunResult

    client = _client(args)
    if args.id.startswith("job-"):
        job = client.wait(args.id, raise_on_failure=False)
        if job["status"] != "done":
            raise ValueError(
                f"job {args.id} is {job['status']}"
                + (f": {job['error']}" if job.get("error") else "")
            )
        payloads = [
            client.result(key) if key not in job.get("results", {})
            else job["results"][key]
            for key in job["unit_keys"]
        ]
    else:
        payloads = [client.result(args.id)]
    if args.json:
        print(json.dumps(payloads if len(payloads) > 1 else payloads[0]))
    else:
        for payload in payloads:
            print(RunResult.from_dict(payload).summary())
    return 0


def _cmd_regen_goldens(args: argparse.Namespace) -> int:
    from repro.experiments.goldens import write_goldens

    written = write_goldens(args.dir, fast=not args.reference)
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "experiment": _cmd_experiment,
    "policies": _cmd_policies,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "fuzz": _cmd_fuzz,
    "chaos": _cmd_chaos,
    "loadgen": _cmd_loadgen,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "result": _cmd_result,
    "regen-goldens": _cmd_regen_goldens,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` (returns an exit status)."""
    from repro.service.client import JobFailed, ServiceError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except (ServiceError, JobFailed) as error:
        # A service-side rejection (bad spec, queue full, unreachable
        # server, failed job) is operational, not a bug: exit 2 with the
        # server's message, mirroring local validation errors.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        # Registry/config lookups raise ValueError for bad user input;
        # anything else (including KeyError) is a bug and should traceback.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
