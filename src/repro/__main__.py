"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run`` — simulate one workload (or a mix) under a mechanism and print
  the headline metrics, optionally against a baseline run.
* ``stats`` — run with telemetry enabled and print the observability
  report: queue/latency/hit-rate stats, percentiles, an epoch time-series
  figure; optionally export the registry JSON and a command trace JSONL.
* ``campaign`` — sweep workloads × mechanisms on a parallel, cached,
  fault-tolerant worker pool (``repro.exec``) and print a result table.
* ``snapshot`` — inspect, verify, diff or resume snapshot files
  (``repro.snapshot``).
* ``workloads`` — list the named workload suite.
* ``mechanisms`` — list the mechanism plugin registry, or ``--verify``
  every plugin against the conformance oracle and the committed digests.
* ``check`` — run the protocol-conformance oracle (``repro.check``) over
  seeded random scenarios or one reproduced counterexample; exits
  non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import SystemConfig, WORKLOADS, run_mix, run_workload
from repro.analysis import TextTable
from repro.errors import ConfigError, ReproError
from repro.mech import get_plugin, mechanism_names


def _simulate(args: argparse.Namespace, mechanism=None, **config_fields):
    """Run ``args.workload`` under the shared run flags.

    One workload is a single-core :func:`run_workload`; several are a
    multiprogrammed :func:`run_mix`. ``mechanism`` overrides
    ``--mechanism``; ``config_fields`` are further :class:`SystemConfig`
    fields.
    """
    names = args.workload
    config = SystemConfig(
        cores=len(names),
        mechanism=mechanism or args.mechanism,
        density_gbit=args.density,
        prefetcher=args.prefetcher,
        seed=args.seed,
        **config_fields,
    )
    run_kwargs = dict(
        instructions=args.instructions, warmup_instructions=args.warmup
    )
    if len(names) == 1:
        return run_workload(names[0], config, **run_kwargs)
    return run_mix(names, config, **run_kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    names = args.workload
    result = _simulate(args, copy_rows=args.copy_rows)
    table = TextTable(
        f"{'+'.join(names)} under {args.mechanism}",
        ["metric", "value"],
    )
    if len(names) == 1:
        table.add_row("IPC", result.ipc)
        table.add_row("MPKI", result.core_mpki[0])
    else:
        table.add_row("IPC (sum)", result.ipc_sum)
    table.add_row("memory cycles", result.cycles)
    table.add_row("DRAM energy (uJ)", result.total_energy_nj / 1000.0)
    table.add_row("refresh window (ms)", result.refresh_window_ms)
    if result.crow_hit_rate is not None:
        table.add_row("CROW-table hit rate", result.crow_hit_rate)
    if args.baseline and args.mechanism != "baseline":
        base = _simulate(args, copy_rows=args.copy_rows, mechanism="baseline")
        table.add_row("speedup vs baseline", result.speedup_over(base))
        table.add_row("energy vs baseline", result.energy_ratio(base))
    print(table.render())
    return 0


def _ratio_text(ratio: dict) -> str:
    """Render a telemetry ratio export ('-' for the undefined case)."""
    value = ratio.get("value")
    return "-" if value is None else f"{value:.4f}"


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis import ascii_timeseries

    names = args.workload
    if args.trace and args.trace_capacity < 1:
        raise ConfigError(
            "--trace-capacity must be >= 1 to record a command trace "
            f"(got {args.trace_capacity})"
        )
    result = _simulate(
        args,
        telemetry=True,
        telemetry_epoch_cycles=args.epoch,
        telemetry_trace_capacity=args.trace_capacity if args.trace else 0,
    )
    export = result.telemetry
    assert export is not None

    channels = export["controller"]

    def total(key: str) -> int:
        return sum(ch[key]["value"] for ch in channels.values())

    table = TextTable(
        f"telemetry: {'+'.join(names)} under {args.mechanism} "
        f"(digest {result.telemetry_digest()})",
        ["stat", "value"],
    )
    table.add_row("IPC", result.ipc if len(names) == 1 else result.ipc_sum)
    table.add_row("memory cycles", export["meta"]["cycles"])
    table.add_row("reads served", total("reads_served"))
    table.add_row("writes served", total("writes_served"))
    table.add_row("write drains", total("write_drains"))
    table.add_row("refreshes", total("refreshes"))
    hits = total("row_hits")
    accesses = hits + total("row_misses") + total("row_conflicts")
    table.add_row(
        "row-buffer hit rate", f"{hits / accesses:.4f}" if accesses else "-"
    )
    # Channel 0 carries the percentile summary (single-channel config).
    latency = channels["ch0"]["read_latency"]
    for key in ("mean", "p50", "p95", "p99"):
        value = latency[key]
        table.add_row(
            f"read latency {key}",
            "-" if value is None else f"{value:.1f}",
        )
    if "crow" in export:
        crow = export["crow"]
        if "hit_rate" in crow:
            table.add_row("CROW hit rate", _ratio_text(crow["hit_rate"]))
            table.add_row(
                "CROW restore fraction (Sec 8.1.1)",
                _ratio_text(crow["restore_fraction"]),
            )
            table.add_row("CROW evictions", crow["evictions"]["value"])
        if "ref_remapped_rows" in crow:
            table.add_row("CROW-ref remapped rows",
                          crow["ref_remapped_rows"]["value"])
    table.add_row("LLC miss rate", _ratio_text(export["llc"]["miss_rate"]))
    print(table.render())

    series = export["epochs"].get(args.series)
    if series is None:
        known = ", ".join(sorted(export["epochs"]))
        print(f"unknown epoch series {args.series!r}; one of: {known}",
              file=sys.stderr)
        return 2
    print()
    samples = series["samples"]
    if any(s is not None for s in samples):
        print(
            ascii_timeseries(
                samples,
                title=(
                    f"{args.series} per epoch "
                    f"({series['epoch_cycles']} memory cycles each)"
                ),
            )
        )
    else:
        print(
            f"no complete epochs to plot ({len(samples)} sampled); "
            f"the measured run is shorter than --epoch "
            f"({series['epoch_cycles']} memory cycles) -- lower it"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(export, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"\nregistry export written to {args.json}")
    if args.trace:
        events = export.get("trace", {}).get("events", [])
        with open(args.trace, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        print(f"command trace ({len(events)} events) written to {args.trace}")
    return 0


def _matrix_tasks(args: argparse.Namespace, **extra_run_kwargs) -> list:
    """Build the workloads x mechanisms TaskSpec matrix from CLI args."""
    from repro.exec import TaskSpec

    run_kwargs = dict(
        instructions=args.instructions,
        warmup_instructions=args.warmup,
        seed=args.seed,
        **extra_run_kwargs,
    )
    tasks = []
    for mechanism in args.mechanisms:
        config = SystemConfig(
            cores=len(args.workload) if args.mix else 1,
            mechanism=mechanism,
            density_gbit=args.density,
            telemetry=args.telemetry,
        )
        if args.mix:
            tasks.append(TaskSpec.mix(args.workload, config, **run_kwargs))
        else:
            tasks.extend(
                TaskSpec.workload(name, config, **run_kwargs)
                for name in args.workload
            )
    return tasks


def _cmd_campaign(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.exec import ParallelCampaign

    run_kwargs = {}
    if args.checkpoint_dir is not None:
        run_kwargs["checkpoint_dir"] = args.checkpoint_dir
        run_kwargs["checkpoint_every"] = args.checkpoint_every
    tasks = _matrix_tasks(args, **run_kwargs)

    with contextlib.ExitStack() as stack:
        # Without --cache-dir the cache lives only as long as the command.
        directory = args.cache_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-campaign-")
        )
        campaign = stack.enter_context(ParallelCampaign(
            directory,
            jobs=args.jobs,
            timeout_s=args.timeout,
            retries=args.retries,
            journal=args.journal,
            progress=sys.stderr.isatty(),
        ))
        outcomes = campaign.run(tasks)

        table = TextTable(
            f"campaign over {len(tasks)} task(s), jobs={campaign.runner.jobs}",
            ["task", "status", "IPC", "mem cycles", "energy (uJ)"],
        )
        baselines = {}
        for outcome in outcomes:
            spec, result = outcome.spec, outcome.result
            if result is not None and spec.config.mechanism == "baseline":
                baselines[spec.names] = result
        for outcome in outcomes:
            spec, result = outcome.spec, outcome.result
            if not outcome.ok:
                table.add_row(spec.label, f"FAILED ({outcome.error})",
                              "-", "-", "-")
                continue
            status = "cached" if outcome.cached else "ran"
            ipc = result.ipc if result.cores == 1 else result.ipc_sum
            base = baselines.get(spec.names)
            cell = f"{ipc:.4f}"
            if base is not None and spec.config.mechanism != "baseline":
                cell += f" ({result.speedup_over(base):.3f}x)"
            table.add_row(
                spec.label, status, cell, result.cycles,
                f"{result.total_energy_nj / 1000.0:.2f}",
            )
        print(table.render())
        failed = sum(1 for outcome in outcomes if not outcome.ok)
        summary = (
            f"done={len(outcomes) - failed} failed={failed} "
            f"cache hits={campaign.hits} misses={campaign.misses}"
        )
        if args.cache_dir:
            summary += f" cache dir={directory}"
        print(summary)
    return 1 if failed else 0


#: ``_diff_values`` stops collecting once it holds this many lines.
_DIFF_CAP = 200


def _diff_values(path: str, a, b, lines: list) -> None:
    """Recursive value diff; appends ``path: a != b`` leaf lines."""
    if len(lines) > _DIFF_CAP:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() == b.keys() and list(a) != list(b):
            # Same keys, other order: for an LLC set, another LRU stack.
            lines.append(f"{path}: key order {list(a)!r} != {list(b)!r}")
        for key in sorted(set(a) | set(b), key=str):
            inner = f"{path}.{key}" if path else str(key)
            if key not in a:
                lines.append(f"{inner}: <absent> != {b[key]!r}")
            elif key not in b:
                lines.append(f"{inner}: {a[key]!r} != <absent>")
            else:
                _diff_values(inner, a[key], b[key], lines)
        return
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            lines.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            _diff_values(f"{path}[{i}]", item_a, item_b, lines)
        return
    if a != b:
        lines.append(f"{path}: {a!r} != {b!r}")


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.snapshot import read_header, read_snapshot, state_tree

    try:
        if args.action == "inspect":
            header = read_header(args.path)
            table = TextTable(f"snapshot {args.path}", ["field", "value"])
            for key in sorted(header):
                value = header[key]
                if isinstance(value, list):
                    value = ", ".join(str(v) for v in value)
                table.add_row(key, value)
            print(table.render())
            return 0
        if args.action == "verify":
            header, payload = read_snapshot(args.path)
            kind = header.get("kind")
            print(
                f"{args.path}: OK (kind={kind}, format "
                f"v{header.get('format_version')}, "
                f"cycle={header.get('cycle', '-')})"
            )
            return 0
        if args.action == "diff":
            if args.path2 is None:
                print("diff needs two snapshot paths", file=sys.stderr)
                return 2
            header_a, payload_a = read_snapshot(args.path)
            header_b, payload_b = read_snapshot(args.path2)
            lines: list = []
            _diff_values("header", header_a, header_b, lines)
            _diff_values(
                "", state_tree(payload_a), state_tree(payload_b), lines
            )
            if not lines:
                print("snapshots are identical")
                return 0
            shown = lines[: args.limit]
            for line in shown:
                print(line)
            if len(lines) > len(shown):
                further = len(lines) - len(shown)
                bound = "at least " if len(lines) > _DIFF_CAP else ""
                print(f"... {bound}{further} further difference(s)")
            return 1
        # resume
        from repro.sim.system import System

        result = System.resume(args.path)
        digest = result.telemetry_digest()
        print(
            f"resumed run complete: cycles={result.cycles} "
            f"digest={digest if digest is not None else '-'}"
        )
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _cmd_workloads(args: argparse.Namespace) -> int:
    table = TextTable(
        "named workload suite", ["name", "class", "suite", "description"]
    )
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        table.add_row(w.name, w.expected_class, w.suite, w.description)
    print(table.render())
    return 0


def _cmd_mechanisms(args: argparse.Namespace) -> int:
    """List the mechanism registry, or verify every plugin (CI matrix).

    ``--verify`` runs each registered mechanism through the oracle run
    (``repro.check.scenarios.ORACLE_RUN``) under the strict checker with
    telemetry, compares the digest against the committed oracle
    (``tests/data/expected_digests.json``),
    and exits non-zero on any conformance violation, digest mismatch or
    mechanism without an oracle entry. A missing oracle file is a
    :class:`ConfigError`, not a silently skipped gate. ``--report-dir``
    writes one JSON report per mechanism (the CI artifacts).
    """
    if not args.verify:
        table = TextTable(
            "mechanism registry", ["name", "plugin", "description"]
        )
        for name in mechanism_names():
            plugin = get_plugin(name)
            doc = (plugin.__class__.__doc__ or "").strip().splitlines()
            table.add_row(
                name, type(plugin).__name__, doc[0] if doc else ""
            )
        print(table.render())
        return 0

    from repro.check.scenarios import ORACLE_RUN, run_checked_case

    if not args.digests.is_file():
        raise ConfigError(
            f"oracle digest file {args.digests} not found (run from the "
            "repository root or pass --digests)"
        )
    oracle = json.loads(args.digests.read_text())
    if args.report_dir is not None:
        args.report_dir.mkdir(parents=True, exist_ok=True)

    failed = []
    for name in mechanism_names():
        entry = oracle.get(f"{ORACLE_RUN.workload}-{name}")
        report: dict = {"mechanism": name, **ORACLE_RUN._asdict()}
        try:
            result, check = run_checked_case(
                (ORACLE_RUN.workload,),
                name,
                ORACLE_RUN.instructions,
                ORACLE_RUN.warmup_instructions,
                seed=ORACLE_RUN.seed,
                mode="strict",
                telemetry=True,
            )
        except ReproError as exc:
            report["status"] = "conformance-violation"
            report["error"] = str(exc)
            failed.append(name)
        else:
            digest = result.telemetry_digest()
            report["cycles"] = result.cycles
            report["digest"] = digest
            report["commands_checked"] = check.commands
            if entry is None:
                report["status"] = "no-oracle-digest"
                failed.append(name)
            elif (
                digest != entry["digest"]
                or result.cycles != entry["cycles"]
            ):
                report["status"] = "digest-mismatch"
                report["expected"] = entry
                failed.append(name)
            else:
                report["status"] = "ok"
        print(f"{name:18s} {report['status']}")
        if args.report_dir is not None:
            path = args.report_dir / f"{name}.json"
            path.write_text(json.dumps(report, indent=2) + "\n")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(mechanism_names())} mechanisms conformant")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import CheckReport
    from repro.check.scenarios import Scenario, random_scenario, run_scenario
    from repro.errors import ConformanceError

    merged = CheckReport()

    def show(report) -> None:
        for violation in report.violations:
            print(f"  {violation}")
        if report.truncated:
            print(f"  ... {report.truncated} further violation(s) truncated")

    try:
        if args.scenario is not None:
            scenario = Scenario.from_json(args.scenario)
            print(scenario.to_json())
            _, report = run_scenario(scenario, mode=args.mode)
            merged.merge(report)
            show(report)
        elif args.reproduce is not None:
            scenario = random_scenario(args.reproduce)
            print(f"case seed {args.reproduce}: {scenario.to_json()}")
            _, report = run_scenario(scenario, mode=args.mode)
            merged.merge(report)
            show(report)
        else:
            table = TextTable(
                f"conformance sweep: {args.cases} scenario(s), "
                f"base seed {args.seed}",
                ["case seed", "mechanism", "workloads", "commands",
                 "violations"],
            )
            for i in range(args.cases):
                case_seed = args.seed + i
                scenario = random_scenario(case_seed)
                _, report = run_scenario(scenario, mode=args.mode)
                merged.merge(report)
                table.add_row(
                    case_seed,
                    scenario.mechanism,
                    "+".join(scenario.workloads),
                    report.commands,
                    report.total_violations,
                )
                if not report.ok:
                    print(f"case seed {case_seed}: {scenario.to_json()}")
                    show(report)
            print(table.render())
            print(
                "reproduce any case with: "
                f"python -m repro check --reproduce <case seed>"
            )
    except ConformanceError as error:
        print(f"strict-mode violation: {error}", file=sys.stderr)
        if args.report is not None:
            merged.violations.append(error.violation)
            merged.write_json(args.report)
            print(f"violation report written to {args.report}")
        return 1
    if args.report is not None:
        merged.write_json(args.report)
        print(f"violation report written to {args.report}")
    print(merged.summary())
    return 0 if merged.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CROW (ISCA 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags every simulating subcommand shares ...
    simulated = argparse.ArgumentParser(add_help=False)
    simulated.add_argument("workload", nargs="+", choices=sorted(WORKLOADS),
                           metavar="workload")
    simulated.add_argument("--instructions", type=int, default=40_000)
    simulated.add_argument("--warmup", type=int, default=15_000)
    simulated.add_argument("--density", type=int, default=8,
                           choices=(8, 16, 32, 64))
    # ... and those of the two that simulate one configuration.
    single = argparse.ArgumentParser(add_help=False, parents=[simulated])
    single.add_argument("--mechanism", default="crow-cache", metavar="MECH",
                        help="mechanism name (`repro mechanisms` lists them)")
    single.add_argument("--prefetcher", action="store_true")
    single.add_argument("--seed", type=int, default=1)

    run = sub.add_parser(
        "run", parents=[single], help="simulate a workload or mix"
    )
    run.add_argument("--copy-rows", type=int, default=8)
    run.add_argument("--no-baseline", dest="baseline", action="store_false",
                     help="skip the baseline comparison run")
    run.set_defaults(func=_cmd_run)

    stats = sub.add_parser(
        "stats",
        parents=[single],
        help="run with telemetry and print the observability report",
    )
    stats.add_argument(
        "--epoch", type=int, default=10_000, metavar="CYCLES",
        help="epoch length of the time series, in memory cycles",
    )
    stats.add_argument(
        "--series", default="ipc", metavar="NAME",
        help="epoch series to plot (ipc, row_hit_rate, read_latency, "
             "crow_hit_rate, read_queue, write_queue, mshr)",
    )
    stats.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the full registry export as JSON to FILE",
    )
    stats.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a command trace and write it as JSONL to FILE",
    )
    stats.add_argument(
        "--trace-capacity", type=int, default=4096, metavar="N",
        help="trace ring-buffer capacity (default: 4096 commands)",
    )
    stats.set_defaults(func=_cmd_stats)

    camp = sub.add_parser(
        "campaign",
        parents=[simulated],
        help="run a workloads x mechanisms sweep on a parallel worker pool",
    )
    camp.add_argument(
        "--mechanisms", nargs="+", default=["baseline", "crow-cache"],
        metavar="MECH",
        help="mechanisms to sweep (default: baseline crow-cache; "
             "`repro mechanisms` lists the registry)",
    )
    camp.add_argument(
        "--mix", action="store_true",
        help="treat the workload list as one multiprogrammed mix "
             "(default: one single-core task per workload)",
    )
    camp.add_argument(
        "--telemetry", action="store_true",
        help="collect telemetry per task (digests appear in the journal)",
    )
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: CPU count; 1 = serial "
             "in-process, or one worker at a time with --timeout)",
    )
    camp.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget before the worker is killed",
    )
    camp.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per task after a failure (default: 2)",
    )
    camp.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append a JSONL execution journal to FILE",
    )
    camp.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache (default: fresh temp dir)",
    )
    camp.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="periodically checkpoint each task into DIR; a killed "
             "campaign resumes tasks from their latest checkpoint",
    )
    camp.add_argument(
        "--checkpoint-every", type=int, default=50_000, metavar="CYCLES",
        help="checkpoint cadence in memory cycles (default: 50000)",
    )
    camp.set_defaults(func=_cmd_campaign)

    snap = sub.add_parser(
        "snapshot",
        help="inspect, verify, diff, or resume snapshot files",
    )
    snap.add_argument(
        "action", choices=("inspect", "verify", "diff", "resume"),
        help="inspect: print the header; verify: check the integrity "
             "digest; diff: compare two snapshots; resume: continue a "
             "checkpointed run to completion",
    )
    snap.add_argument("path", help="snapshot file")
    snap.add_argument(
        "path2", nargs="?", default=None,
        help="second snapshot (diff only)",
    )
    snap.add_argument(
        "--limit", type=int, default=40, metavar="N",
        help="max differences to print for diff (default: 40)",
    )
    snap.set_defaults(func=_cmd_snapshot)

    wl = sub.add_parser("workloads", help="list the workload suite")
    wl.set_defaults(func=_cmd_workloads)

    mech = sub.add_parser(
        "mechanisms",
        help="list the mechanism plugin registry, or --verify every "
             "plugin against the conformance oracle + digest matrix",
    )
    mech.add_argument(
        "--verify", action="store_true",
        help="run every registered mechanism through the run shape the "
             "committed oracle pins, under the strict checker, and "
             "compare telemetry digests against the oracle",
    )
    mech.add_argument(
        "--digests", type=Path,
        default=Path("tests/data/expected_digests.json"),
        help="oracle digest file (default: tests/data/"
             "expected_digests.json)",
    )
    mech.add_argument(
        "--report-dir", type=Path, default=None, metavar="DIR",
        help="write one JSON verification report per mechanism to DIR",
    )
    mech.set_defaults(func=_cmd_mechanisms)

    check = sub.add_parser(
        "check",
        help="run the DRAM/CROW protocol-conformance oracle over "
             "randomized scenarios",
    )
    check.add_argument(
        "--cases", type=int, default=25, metavar="N",
        help="random scenarios to sweep (default: 25)",
    )
    check.add_argument(
        "--seed", type=int, default=0,
        help="base seed; case i uses seed+i (default: 0)",
    )
    check.add_argument(
        "--reproduce", type=int, default=None, metavar="CASE_SEED",
        help="re-run one scenario from its case seed and print it",
    )
    check.add_argument(
        "--scenario", default=None, metavar="JSON",
        help="run one scenario from its JSON spec (as printed on failure)",
    )
    check.add_argument(
        "--mode", default="report", choices=("strict", "report"),
        help="strict raises on the first violation; report collects all "
             "(default: report)",
    )
    check.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the merged violation report as JSON to FILE",
    )
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # Bad configuration (unknown mechanism name, invalid knob):
        # argparse's convention is exit code 2 with a message on stderr.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-output: the Unix
        # convention is a quiet exit, not a traceback. Detach stdout so
        # interpreter shutdown does not raise again on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a killed-by-SIGPIPE shell reports


if __name__ == "__main__":
    sys.exit(main())
