"""Pin the ``python -m repro`` option surface.

Walks :func:`build_parser` and compares every subcommand's options with
the table below: option strings, default, choices, type, nargs, metavar
and help text. A refactor of the parser (shared parents, helpers) must
leave this table unchanged; a deliberate CLI change edits it.
"""

import argparse
from pathlib import Path

from repro import WORKLOADS
from repro.__main__ import build_parser

#: Stands for ``sorted(WORKLOADS)`` in the ``choices`` column.
_WORKLOADS = "WORKLOADS"

_MECH_HELP = "mechanism name (`repro mechanisms` lists them)"

# dest -> (option strings, default, choices, type, nargs, metavar, help)
SURFACE = {
    "run": {
        "workload": ((), None, _WORKLOADS, None, "+", "workload", None),
        "mechanism": (("--mechanism",), "crow-cache", None, None, None,
                      "MECH", _MECH_HELP),
        "instructions": (("--instructions",), 40_000, None, int, None,
                         None, None),
        "warmup": (("--warmup",), 15_000, None, int, None, None, None),
        "density": (("--density",), 8, (8, 16, 32, 64), int, None, None,
                    None),
        "copy_rows": (("--copy-rows",), 8, None, int, None, None, None),
        "prefetcher": (("--prefetcher",), False, None, None, 0, None, None),
        "seed": (("--seed",), 1, None, int, None, None, None),
        "baseline": (("--no-baseline",), True, None, None, 0, None,
                     "skip the baseline comparison run"),
    },
    "stats": {
        "workload": ((), None, _WORKLOADS, None, "+", "workload", None),
        "mechanism": (("--mechanism",), "crow-cache", None, None, None,
                      "MECH", _MECH_HELP),
        "instructions": (("--instructions",), 40_000, None, int, None,
                         None, None),
        "warmup": (("--warmup",), 15_000, None, int, None, None, None),
        "density": (("--density",), 8, (8, 16, 32, 64), int, None, None,
                    None),
        "prefetcher": (("--prefetcher",), False, None, None, 0, None, None),
        "seed": (("--seed",), 1, None, int, None, None, None),
        "epoch": (("--epoch",), 10_000, None, int, None, "CYCLES",
                  "epoch length of the time series, in memory cycles"),
        "series": (("--series",), "ipc", None, None, None, "NAME",
                   "epoch series to plot (ipc, row_hit_rate, read_latency, "
                   "crow_hit_rate, read_queue, write_queue, mshr)"),
        "json": (("--json",), None, None, None, None, "FILE",
                 "write the full registry export as JSON to FILE"),
        "trace": (("--trace",), None, None, None, None, "FILE",
                  "record a command trace and write it as JSONL to FILE"),
        "trace_capacity": (("--trace-capacity",), 4096, None, int, None, "N",
                           "trace ring-buffer capacity (default: 4096 "
                           "commands)"),
    },
    "campaign": {
        "workload": ((), None, _WORKLOADS, None, "+", "workload", None),
        "mechanisms": (("--mechanisms",), ["baseline", "crow-cache"], None,
                       None, "+", "MECH",
                       "mechanisms to sweep (default: baseline crow-cache; "
                       "`repro mechanisms` lists the registry)"),
        "mix": (("--mix",), False, None, None, 0, None,
                "treat the workload list as one multiprogrammed mix "
                "(default: one single-core task per workload)"),
        "telemetry": (("--telemetry",), False, None, None, 0, None,
                      "collect telemetry per task (digests appear in the "
                      "journal)"),
        "instructions": (("--instructions",), 40_000, None, int, None,
                         None, None),
        "warmup": (("--warmup",), 15_000, None, int, None, None, None),
        "density": (("--density",), 8, (8, 16, 32, 64), int, None, None,
                    None),
        "seed": (("--seed",), 0, None, int, None, None, None),
        "jobs": (("--jobs",), None, None, int, None, None,
                 "worker processes (default: CPU count; 1 = serial "
                 "in-process, or one worker at a time with --timeout)"),
        "timeout": (("--timeout",), None, None, float, None, "SECONDS",
                    "per-task wall-clock budget before the worker is "
                    "killed"),
        "retries": (("--retries",), 2, None, int, None, None,
                    "extra attempts per task after a failure (default: 2)"),
        "journal": (("--journal",), None, None, None, None, "FILE",
                    "append a JSONL execution journal to FILE"),
        "cache_dir": (("--cache-dir",), None, None, None, None, "DIR",
                      "persistent result cache (default: fresh temp dir)"),
        "checkpoint_dir": (("--checkpoint-dir",), None, None, None, None,
                           "DIR",
                           "periodically checkpoint each task into DIR; a "
                           "killed campaign resumes tasks from their latest "
                           "checkpoint"),
        "checkpoint_every": (("--checkpoint-every",), 50_000, None, int,
                             None, "CYCLES",
                             "checkpoint cadence in memory cycles "
                             "(default: 50000)"),
    },
    "snapshot": {
        "action": ((), None, ("inspect", "verify", "diff", "resume"), None,
                   None, None,
                   "inspect: print the header; verify: check the integrity "
                   "digest; diff: compare two snapshots; resume: continue a "
                   "checkpointed run to completion"),
        "path": ((), None, None, None, None, None, "snapshot file"),
        "path2": ((), None, None, None, "?", None,
                  "second snapshot (diff only)"),
        "limit": (("--limit",), 40, None, int, None, "N",
                  "max differences to print for diff (default: 40)"),
    },
    "workloads": {},
    "mechanisms": {
        "verify": (("--verify",), False, None, None, 0, None,
                   "run every registered mechanism through the run shape "
                   "the committed oracle pins, under the strict checker, "
                   "and compare telemetry digests against the oracle"),
        "digests": (("--digests",), Path("tests/data/expected_digests.json"),
                    None, Path, None, None,
                    "oracle digest file (default: tests/data/"
                    "expected_digests.json)"),
        "report_dir": (("--report-dir",), None, None, Path, None, "DIR",
                       "write one JSON verification report per mechanism "
                       "to DIR"),
    },
    "check": {
        "cases": (("--cases",), 25, None, int, None, "N",
                  "random scenarios to sweep (default: 25)"),
        "seed": (("--seed",), 0, None, int, None, None,
                 "base seed; case i uses seed+i (default: 0)"),
        "reproduce": (("--reproduce",), None, None, int, None, "CASE_SEED",
                      "re-run one scenario from its case seed and print it"),
        "scenario": (("--scenario",), None, None, None, None, "JSON",
                     "run one scenario from its JSON spec (as printed on "
                     "failure)"),
        "mode": (("--mode",), "report", ("strict", "report"), None, None,
                 None,
                 "strict raises on the first violation; report collects "
                 "all (default: report)"),
        "report": (("--report",), None, None, None, None, "FILE",
                   "write the merged violation report as JSON to FILE"),
    },
}


def _subparsers() -> dict:
    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _surface(subparser: argparse.ArgumentParser) -> dict:
    rows = {}
    for action in subparser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if choices is not None and list(choices) == sorted(WORKLOADS):
            choices = _WORKLOADS
        rows[action.dest] = (
            tuple(action.option_strings), action.default, choices,
            action.type, action.nargs, action.metavar, action.help,
        )
    return rows


def test_subcommand_names():
    assert list(_subparsers()) == list(SURFACE)


def test_every_option_pinned():
    for name, subparser in _subparsers().items():
        assert _surface(subparser) == SURFACE[name], name


def test_seed_defaults_differ_by_subcommand():
    # A campaign's base seed is 0; a single run's config seed is 1.
    parser = build_parser()
    assert parser.parse_args(["campaign", "libq"]).seed == 0
    assert parser.parse_args(["run", "libq"]).seed == 1
    assert parser.parse_args(["stats", "libq"]).seed == 1
