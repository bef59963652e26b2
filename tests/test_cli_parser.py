"""Pin every subcommand's arguments: the parser is built from tables,
so this records what it must keep building.

Each action is recorded as ``(option strings, default, type, choices,
nargs, help)`` by its ``dest``.  The order in which a subcommand lists
its options is not pinned.
"""

import argparse

import pytest

from repro.cli import build_parser

_SCHEMES = ("baseline", "ideal", "nnv12", "pask", "pask-i", "pask-r")
_DEVICES = ("6900XT", "A100", "MI100")

_COMMANDS = {
    "models": "list the Table I model zoo",
    "serve": "run one cold (or hot) request",
    "experiment": "regenerate a paper figure/table",
    "session": "consecutive requests on one instance",
    "cluster": "replay a Poisson trace on a pool",
    "fleet": ("replay a trace across a multi-region fleet with routing and "
              "autoscaling"),
    "validate": "check the reproduction against the paper's claims",
    "chaos": "run the serving stack under seeded fault injection",
    "scenario": "run a checked-in comparison report and gate it",
    "profile": ("time simulator layers, one row per layer; with --budget, "
                "gate them against a budget file"),
}

_ACTIONS = {
    "models": {},
    "serve": {
        "model": ((), None, None, None, None, "model abbreviation (e.g. res)"),
        "scheme": (("--scheme",), "baseline", None, _SCHEMES, None,
                   "serving scheme (default: baseline)"),
        "batch": (("--batch",), 1, "int", None, None, None),
        "device": (("--device",), "MI100", None, _DEVICES, None, None),
        "hot": (("--hot",), False, None, None, 0,
                "run a successive-iteration (hot) request"),
        "timeline": (("--timeline",), False, None, None, 0,
                     "render an ASCII Gantt of the execution"),
        "telemetry": (("--telemetry",), None, None, None, None,
                      "record spans and metrics (and a fleet's SLO monitors) "
                      "and write them as one bundle to DIR; the printed "
                      "results are unchanged"),
    },
    "experiment": {
        "name": ((), None, None,
                 ("fig1a", "fig1b", "fig6a", "fig6b", "table2", "fig7",
                  "fig8", "fig9", "all"), None, None),
        "device": (("--device",), "MI100", None, _DEVICES, None, None),
    },
    "session": {
        "model": ((), None, None, None, None, None),
        "requests": (("--requests",), 3, "int", None, None, None),
        "interval_ms": (("--interval-ms",), 50.0, "float", None, None, None),
        "no_preload": (("--no-preload",), False, None, None, 0,
                       "disable Sec. VI interval preloading"),
        "device": (("--device",), "MI100", None, _DEVICES, None, None),
    },
    "cluster": {
        "model": ((), None, None, None, None, None),
        "scheme": (("--scheme",), "baseline", None, _SCHEMES, None, None),
        "rate": (("--rate",), 20.0, "float", None, None,
                 "requests per second"),
        "duration": (("--duration",), 4.0, "float", None, None, None),
        "keep_alive": (("--keep-alive",), 0.5, "float", None, None, None),
        "instances": (("--instances",), 4, "int", None, None, None),
        "seed": (("--seed",), 0, "int", None, None, None),
        "device": (("--device",), "MI100", None, _DEVICES, None, None),
        "trace_retention": (("--trace-retention",), None, None,
                            ("full", "aggregate"), None,
                            "record request-level trace intervals (aggregate "
                            "keeps streaming metrics plus a bounded ring of "
                            "recent records)"),
        "telemetry": (("--telemetry",), None, None, None, None,
                      "record spans and metrics (and a fleet's SLO monitors) "
                      "and write them as one bundle to DIR; the printed "
                      "results are unchanged"),
    },
    "fleet": {
        "model": ((), "res", None, None, "?", None),
        "scheme": (("--scheme",), "pask", None, _SCHEMES, None, None),
        "devices": (("--devices",), "MI100,A100", None, None, None,
                    "comma-separated region devices, one region per entry "
                    "(default: MI100,A100)"),
        "routing": (("--routing",), "warm-first", None,
                    ("single", "round-robin", "least-queue", "warm-first"),
                    None, None),
        "autoscale": (("--autoscale",), "none", None,
                      ("none", "fixed", "scale-to-zero", "reactive",
                       "predictive"), None,
                      "autoscaling policy kind (default: none)"),
        "idle_timeout": (("--idle-timeout",), None, "float", None, None,
                         "idle reclaim timeout override in seconds (required "
                         "for scale-to-zero)"),
        "min_instances": (("--min-instances",), 0, "int", None, None,
                          "warm floor pinned during reclaim"),
        "checkpoint_restore": (("--checkpoint-restore",), False, None, None, 0,
                               "scale-up spawns restore a warm-state "
                               "checkpoint instead of cold-starting"),
        "arrival": (("--arrival",), "poisson", None,
                    ("poisson", "diurnal", "bursty"), None, None),
        "rate": (("--rate",), 4.0, "float", None, None,
                 "base arrival rate in requests per second"),
        "peak_rate": (("--peak-rate",), None, "float", None, None,
                      "diurnal peak / bursty burst rate (default: derived "
                      "from --rate)"),
        "period": (("--period",), None, "float", None, None,
                   "diurnal period / burst spacing in seconds"),
        "burst": (("--burst",), None, "float", None, None,
                  "burst duration in seconds (bursty arrival)"),
        "duration": (("--duration",), 30.0, "float", None, None, None),
        "seed": (("--seed",), 0, "int", None, None, None),
        "tenants": (("--tenants",), 1, "int", None, None,
                    "split traffic into N tenant classes (independent seeded "
                    "substreams at rate/N)"),
        "instances": (("--instances",), 2, "int", None, None,
                      "max instances per region"),
        "keep_alive": (("--keep-alive",), 0.5, "float", None, None, None),
        "shed_wait": (("--shed-wait",), None, "float", None, None,
                      "shed arrivals whose predicted queueing delay exceeds "
                      "this bound"),
        "crash_rate": (("--crash-rate",), 0.0, "float", None, None,
                       "instance crash probability per request"),
        "verify_serial": (("--verify-serial",), False, None, None, 0,
                          "in static mode, also run the stepping reference "
                          "and check the replay is byte-identical (CI gate)"),
        "telemetry": (("--telemetry",), None, None, None, None,
                      "record spans and metrics (and a fleet's SLO monitors) "
                      "and write them as one bundle to DIR; the printed "
                      "results are unchanged"),
    },
    "validate": {
        "device": (("--device",), "MI100", None, _DEVICES, None, None),
    },
    "chaos": {
        "model": ((), None, None, None, None, None),
        "scheme": (("--scheme",), "pask", None, _SCHEMES, None, None),
        "seed": (("--seed",), 0, "int", None, None, None),
        "load_failure_rate": (("--load-failure-rate",), 0.15, "float",
                              None, None, None),
        "launch_failure_rate": (("--launch-failure-rate",), 0.05, "float",
                                None, None, None),
        "stall_rate": (("--stall-rate",), 0.2, "float", None, None,
                       "loader-thread stall probability per layer"),
        "stall_ms": (("--stall-ms",), 2.0, "float", None, None, None),
        "load_timeout_ms": (("--load-timeout-ms",), 1.0, "float", None, None,
                            "loader gives up and falls back to the reactive "
                            "path beyond this stall"),
        "crash_rate": (("--crash-rate",), 0.08, "float", None, None,
                       "instance crash probability per request"),
        "rate": (("--rate",), 20.0, "float", None, None,
                 "cluster replay: requests per second"),
        "duration": (("--duration",), 4.0, "float", None, None, None),
        "instances": (("--instances",), 4, "int", None, None, None),
        "keep_alive": (("--keep-alive",), 0.5, "float", None, None, None),
        "device": (("--device",), "MI100", None, _DEVICES, None, None),
        "timeline": (("--timeline",), False, None, None, 0,
                     "render the faulted cold start as a Gantt"),
        "telemetry": (("--telemetry",), None, None, None, None,
                      "record spans and metrics (and a fleet's SLO monitors) "
                      "and write them as one bundle to DIR; the printed "
                      "results are unchanged"),
    },
    "scenario": {
        "name": ((), None, None, ("chaos", "fleet-frontier", "packs"), None,
                 None),
        "model": (("--model",), "res", None, None, None, None),
        "device": (("--device",), "MI100", None, _DEVICES, None, None),
        "output": (("--output",), None, None, None, None,
                   "write the byte-stable report here"),
    },
    "profile": {
        "layers": ((), None, None, None, "*",
                   "layers to time (default: all): event-kernel, model-build,"
                   " lowering, serve-cold, serve-cold-telemetry, cluster-ff, "
                   "cluster-stepping, fleet-static, fleet-serial, "
                   "fleet-coupled, fleet-coupled-telemetry, spinup-cold, "
                   "spinup-checkpoint, spinup-pack, spinup-pack-static, "
                   "paper-compile, paper-serve, paper-claims"),
        "ops": (("--ops",), None, "int", None, None,
                "operations per layer (default: each layer's own)"),
        "budget": (("--budget",), None, None, None, None,
                   "time each entry of this budget file, best of its repeats;"
                   " exit 1 if one exceeds regression_factor x budget_s"),
    },
}


def _subcommands():
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub


def _actions(parser):
    return {action.dest: (tuple(action.option_strings), action.default,
                          getattr(action.type, "__name__", action.type),
                          (tuple(action.choices)
                           if action.choices is not None else None),
                          action.nargs, action.help)
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)}


def test_subcommands_and_their_help():
    assert {action.dest: action.help
            for action in _subcommands()._choices_actions} == _COMMANDS


@pytest.mark.parametrize("command", list(_ACTIONS))
def test_subcommand_actions(command):
    assert _actions(_subcommands().choices[command]) == _ACTIONS[command]
