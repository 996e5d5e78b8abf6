"""Command-line entry point.

Verbs: train, eval, benchmark, cross, list-tasks.  Settings come from
flags first, then an optional INI config, then defaults; ``READS`` says
which config keys each verb reads, and any other key exits 2.  Exit codes:
0 success, 2 configuration problem, 3 missing or unreadable artifact.
User input is validated where it is read; any other exception is an
internal fault and propagates with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from dialbench.config import HARNESS, ConfigError, check_type, load_config, parse_list
from dialbench.domain import DOMAIN_CODES
from dialbench.environment import TaskConfig, list_tasks, make_task
from dialbench.error_channel import PRESETS, params_with, preset_for_env
from dialbench.harness import (
    DEFAULT_EVAL_POINTS,
    MissingArtifact,
    RunSpec,
    evaluate_checkpoint,
    run_benchmark,
    run_cross_task,
    run_training,
)
from dialbench.policies import ALGORITHMS, CONFIGS, CheckpointError, config_fields
from dialbench.simulated_user import PROFILES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialbench",
        description="benchmark suite for RL dialogue management")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, needs_task: bool = True):
        if needs_task:
            p.add_argument("--task", help="task id such as env1-CR, or a "
                                          "comma list; 'all' for every task")
        p.add_argument("--algo", help="algorithm name or comma list")
        p.add_argument("--seeds", help="comma list of run seeds")
        p.add_argument("--config", help="INI settings file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--test-dialogues", dest="test_dialogues")

    train = sub.add_parser("train", help="train one algorithm on one task")
    common(train)
    train.add_argument("--dialogues")
    train.add_argument("--eval-at", dest="eval_at",
                       help="comma list of milestone dialogue counts")

    ev = sub.add_parser("eval", help="test saved checkpoints")
    common(ev)
    ev.add_argument("--eval-task", dest="eval_task",
                    help="evaluate on this task instead (same domain)")

    bench = sub.add_parser("benchmark", help="train a grid and emit the "
                                             "results table")
    common(bench)
    bench.add_argument("--dialogues")

    cross = sub.add_parser("cross", help="cross-environment reward matrix "
                                         "from saved checkpoints")
    common(cross, needs_task=False)
    cross.add_argument("--domains", help="comma list of domain codes")

    sub.add_parser("list-tasks", help="print the 18 task ids")
    return parser


def _task_config(task_id: str) -> TaskConfig:
    # make_task also reads env01-CR, as env1-CR under another name
    if task_id not in list_tasks():
        raise ConfigError(f"unknown task id {task_id!r}")
    return make_task(task_id)


# The [harness] keys every verb reads, each with its default.
_RUN = {"seeds": tuple(range(10)), "test_dialogues": 500, "out": "runs"}
ALL = None

# What each verb reads of a config file: per section, the keys it reads
# (for [harness], each with its default), or ALL of the section.  Any
# other key the file sets exits 2.  Only train builds its env from
# [errormodel] and [simuser]; eval and cross reload checkpoints, which
# keep the [policy] settings they were trained with.
READS = {
    "train": {"task": ("name",), "policy": ALL, "simuser": ALL,
              "errormodel": ALL,
              "harness": {**_RUN, "dialogues": 10000, "eval_at": None}},
    "eval": {"task": ("name",), "policy": ("algorithm",), "harness": _RUN},
    "benchmark": {"task": ("name",), "policy": ALL,
                  "harness": {**_RUN, "dialogues": 4000}},
    "cross": {"policy": ("algorithm",), "harness": _RUN},
}


def _settings(verb: str, args, config: dict) -> dict:
    """The [harness] settings ``verb`` reads, each from its flag, else the
    file, else its default; a key of the file ``verb`` does not read
    exits 2."""
    reads = READS[verb]
    for section, values in config.items():
        keys = reads.get(section, ())
        for key in values:
            if keys is not ALL and key not in keys:
                named = f" {key}" if section in reads else ""
                raise ConfigError(f"{verb} does not read [{section}]{named}")
    settings = {**reads["harness"], **config.get("harness", {})}
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = HARNESS[key](flag)
    return settings


def _names(raw: str, what: str, choices) -> tuple[str, ...]:
    """The comma list ``raw`` of ``what``s, each one of ``choices``."""
    names = parse_list(raw, f"{what}s")
    for name in names:
        if name not in choices:
            raise ConfigError(f"unknown {what} {name!r}; choose from "
                              f"{list(choices)}")
    return names


def _tasks(args, config: dict, default: str | None = None) -> tuple[str, ...]:
    raw = args.task if args.task is not None else config.get(
        "task", {}).get("name", default)
    if raw is None:
        raise ConfigError("missing --task (or [task] name in the config)")
    if raw == "all":
        return tuple(list_tasks())
    tasks = parse_list(raw, "tasks")
    for task_id in tasks:
        _task_config(task_id)
    return tasks


def _algos(args, config: dict, default: str | None = None) -> tuple[str, ...]:
    raw = args.algo if args.algo is not None else config.get(
        "policy", {}).get("algorithm", default)
    if raw is None:
        raise ConfigError("missing --algo (or [policy] algorithm)")
    return ALGORITHMS if raw == "all" else _names(raw, "algorithm", ALGORITHMS)


def _error_params(config: dict, task: TaskConfig):
    section = dict(config.get("errormodel", {}))
    if not section:
        return None
    if "ser" in section:
        raise ConfigError(f"[errormodel] cannot set ser: {task.task_id} "
                          f"runs at its fixed rate {task.ser}")
    preset = section.pop("preset", None)
    base = PRESETS[preset] if preset else preset_for_env(task.env_index)
    try:
        return params_with(base, **section)
    except ValueError as exc:
        raise ConfigError(f"bad [errormodel] override: {exc}") from exc


def _profile(config: dict):
    name = config.get("simuser", {}).get("profile")
    return PROFILES[name] if name else None


def _policy_overrides(config: dict, algos: tuple[str, ...]) -> dict:
    """[policy] hyperparameters; each must be a config field of every
    chosen algorithm, with a value of the field's type (an integer also
    serves for a float field) and in the field's range."""
    overrides = dict(config.get("policy", {}))
    overrides.pop("algorithm", None)
    for algo in algos:
        fields = config_fields(algo)
        for key, value in overrides.items():
            if key not in fields:
                raise ConfigError(f"[policy] key {key!r} is not a setting of "
                                  f"{algo}; choose from {sorted(fields)}")
            check_type(f"[policy] key {key!r} of {algo}", value, fields[key])
        try:
            CONFIGS[algo](**overrides)
        except ValueError as exc:
            raise ConfigError(f"bad [policy] setting of {algo}: {exc}") from exc
    return overrides


def cmd_train(args, config) -> int:
    settings = _settings("train", args, config)
    tasks = _tasks(args, config)
    algos = _algos(args, config)
    if len(tasks) != 1 or len(algos) != 1:
        raise ConfigError("train runs one task and one algorithm at a time")
    dialogues = settings["dialogues"]
    points = settings["eval_at"]
    if points is None:   # the default points below the count, then the count
        points = tuple(p for p in DEFAULT_EVAL_POINTS if p < dialogues) + (
            dialogues,)
    out = Path(settings["out"])
    task = _task_config(tasks[0])
    try:
        spec = RunSpec(tasks[0], algos[0], seeds=settings["seeds"],
                       train_dialogues=dialogues, eval_points=points,
                       test_dialogues=settings["test_dialogues"], out_dir=out)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_training(spec,
                          error_params=_error_params(config, task),
                          profile=_profile(config),
                          policy_overrides=_policy_overrides(config, algos))
    for point in spec.eval_points:
        sm, ss, rm, rs = result.mean_std(point)
        print(f"{spec.task_id} {spec.algorithm} @{point}: "
              f"success {sm:.3f}±{ss:.3f} reward {rm:.2f}±{rs:.2f}")
    print(f"curve: {out / 'curves' / f'{spec.task_id}-{spec.algorithm}.csv'}")
    return EXIT_OK


def cmd_eval(args, config) -> int:
    settings = _settings("eval", args, config)
    tasks = _tasks(args, config)
    algos = _algos(args, config)
    if len(tasks) != 1 or len(algos) != 1:
        raise ConfigError("eval runs one task and one algorithm at a time")
    eval_task = args.eval_task
    if eval_task is not None and (_task_config(eval_task).domain_code
                                  != _task_config(tasks[0]).domain_code):
        raise ConfigError("--eval-task must be in the domain of --task")
    report = evaluate_checkpoint(Path(settings["out"]), tasks[0], algos[0],
                                 settings["seeds"], settings["test_dialogues"],
                                 eval_task_id=eval_task)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_benchmark(args, config) -> int:
    settings = _settings("benchmark", args, config)
    tasks = _tasks(args, config, "all")
    algos = _algos(args, config, "all")
    path = run_benchmark(algos, tasks, settings["seeds"],
                         settings["dialogues"], settings["test_dialogues"],
                         Path(settings["out"]),
                         policy_overrides=_policy_overrides(config, algos))
    print(f"results table: {path}")
    return EXIT_OK


def cmd_cross(args, config) -> int:
    settings = _settings("cross", args, config)
    algos = _algos(args, config, "all")
    domains = _names(args.domains or "CR,SFR,LAP", "domain", DOMAIN_CODES)
    path = run_cross_task(Path(settings["out"]), algos, domains,
                          settings["seeds"], settings["test_dialogues"])
    print(f"cross matrix: {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
        if args.verb == "list-tasks":
            for task_id in list_tasks():
                print(task_id)
            return EXIT_OK
        handler = {
            "train": cmd_train,
            "eval": cmd_eval,
            "benchmark": cmd_benchmark,
            "cross": cmd_cross,
        }[args.verb]
        return handler(args, config)
    except CheckpointError as exc:
        print(f"unreadable artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
