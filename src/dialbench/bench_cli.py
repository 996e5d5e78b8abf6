"""Command-line entry point.

Verbs: train, eval, benchmark, cross, list-tasks.  Settings come from
flags first, then an optional INI config, then defaults.  Exit codes:
0 success, 2 configuration problem, 3 missing or unreadable artifact.
User input is validated where it is read; any other exception is an
internal fault and propagates with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from dialbench.config import ConfigError, check_type, load_config, parse_int_list
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
from dialbench.policies import ALGORITHMS, CheckpointError, config_fields
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
        p.add_argument("--test-dialogues", type=int, dest="test_dialogues")

    train = sub.add_parser("train", help="train one algorithm on one task")
    common(train)
    train.add_argument("--dialogues", type=int)
    train.add_argument("--eval-at", dest="eval_at",
                       help="comma list of milestone dialogue counts")

    ev = sub.add_parser("eval", help="test saved checkpoints")
    common(ev)
    ev.add_argument("--eval-task", dest="eval_task",
                    help="evaluate on this task instead (same domain)")

    bench = sub.add_parser("benchmark", help="train a grid and emit the "
                                             "results table")
    common(bench)
    bench.add_argument("--dialogues", type=int)

    cross = sub.add_parser("cross", help="cross-environment reward matrix "
                                         "from saved checkpoints")
    common(cross, needs_task=False)
    cross.add_argument("--domains", help="comma list of domain codes")

    sub.add_parser("list-tasks", help="print the 18 task ids")
    return parser


def _setting(flag, config: dict, section: str, key: str, default=None):
    """The flag's value if given, else ``[section] key``, else ``default``."""
    if flag is not None:
        return flag
    return config.get(section, {}).get(key, default)


def _split(text: str) -> list[str]:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _task_config(task_id: str) -> TaskConfig:
    try:
        return make_task(task_id)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_tasks(raw: str | None) -> list[str]:
    if raw is None:
        raise ConfigError("missing --task (or [task] name in the config)")
    if raw == "all":
        return list_tasks()
    tasks = _split(raw)
    for task_id in tasks:
        _task_config(task_id)
    return tasks


def _resolve_algos(raw: str | None) -> list[str]:
    if raw is None:
        raise ConfigError("missing --algo (or [policy] algorithm)")
    if raw == "all":
        return list(ALGORITHMS)
    algos = _split(raw)
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {algo!r}; choose from "
                              f"{ALGORITHMS}")
    return algos


def _resolve_seeds(args, config) -> tuple[int, ...]:
    if args.seeds is not None:
        seeds = parse_int_list(args.seeds, "--seeds")
    else:
        seeds = config.get("harness", {}).get("seeds", tuple(range(10)))
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    for seed in seeds:
        if not 0 <= seed < 1 << 128:      # a seed is a 128-bit Philox key
            raise ConfigError(f"seeds must lie in 0 .. 2**128 - 1, got {seed}")
    return seeds


def _dialogues(args, config, default: int) -> int:
    value = _setting(args.dialogues, config, "harness", "dialogues", default)
    if value < 0:
        raise ConfigError(f"training dialogues must not be negative, "
                          f"got {value}")
    return value


def _test_dialogues(args, config) -> int:
    value = _setting(args.test_dialogues, config, "harness", "test_dialogues",
                     500)
    if value < 1:
        raise ConfigError("test dialogues must be at least 1")
    return value


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


# Sections only train reads: it alone builds its env from them.
_TRAIN_ONLY = ("errormodel", "simuser")


def _refuse_unread(config: dict, verb: str, sections: tuple[str, ...],
                   harness_keys: tuple[str, ...]) -> None:
    """Settings ``verb`` would ignore exit 2 instead: whole sections, and
    single ``[harness]`` keys."""
    for section in sections:
        if config.get(section):
            raise ConfigError(f"{verb} does not read [{section}]")
    for key in harness_keys:
        if key in config.get("harness", {}):
            raise ConfigError(f"{verb} does not read [harness] {key}")


def _refuse_policy_settings(config: dict, verb: str) -> None:
    """A reloaded checkpoint keeps the settings it was trained with."""
    keys = sorted(config.get("policy", {}).keys() - {"algorithm"})
    if keys:
        raise ConfigError(f"{verb} reads only 'algorithm' from [policy], "
                          f"got {keys}: a checkpoint keeps the settings it "
                          f"was trained with")


def _policy_overrides(config: dict, algos: list[str]) -> dict:
    """[policy] hyperparameters; each must be a config field of every
    chosen algorithm, with a value of the field's type (an integer also
    serves for a float field)."""
    overrides = dict(config.get("policy", {}))
    overrides.pop("algorithm", None)
    for algo in algos:
        fields = config_fields(algo)
        for key, value in overrides.items():
            if key not in fields:
                raise ConfigError(f"[policy] key {key!r} is not a setting of "
                                  f"{algo}; choose from {sorted(fields)}")
            check_type(f"[policy] key {key!r} of {algo}", value, fields[key])
    return overrides


def _eval_points(args, config, dialogues: int) -> tuple[int, ...]:
    """Milestones of a train run: the given points, or else the default
    points below ``dialogues``; either way they must end at it."""
    if args.eval_at is not None:
        points = parse_int_list(args.eval_at, "--eval-at")
    else:
        points = config.get("harness", {}).get("eval_at")
    if points is None:
        return tuple(p for p in DEFAULT_EVAL_POINTS if p < dialogues) + (
            dialogues,)
    return tuple(sorted(points))


def cmd_train(args, config) -> int:
    tasks = _resolve_tasks(_setting(args.task, config, "task", "name"))
    algos = _resolve_algos(_setting(args.algo, config, "policy", "algorithm"))
    if len(tasks) != 1 or len(algos) != 1:
        raise ConfigError("train runs one task and one algorithm at a time")
    seeds = _resolve_seeds(args, config)
    dialogues = _dialogues(args, config, 10000)
    test_dialogues = _test_dialogues(args, config)
    out = Path(_setting(args.out, config, "harness", "out", "runs"))

    task = _task_config(tasks[0])
    try:
        spec = RunSpec(tasks[0], algos[0], seeds=seeds,
                       train_dialogues=dialogues,
                       eval_points=_eval_points(args, config, dialogues),
                       test_dialogues=test_dialogues, out_dir=out)
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
    _refuse_unread(config, "eval", _TRAIN_ONLY, ("dialogues", "eval_at"))
    _refuse_policy_settings(config, "eval")
    tasks = _resolve_tasks(_setting(args.task, config, "task", "name"))
    algos = _resolve_algos(_setting(args.algo, config, "policy", "algorithm"))
    if len(tasks) != 1 or len(algos) != 1:
        raise ConfigError("eval runs one task and one algorithm at a time")
    seeds = _resolve_seeds(args, config)
    test_dialogues = _test_dialogues(args, config)
    out = Path(_setting(args.out, config, "harness", "out", "runs"))
    eval_task = args.eval_task
    if eval_task is not None and (_task_config(eval_task).domain_code
                                  != _task_config(tasks[0]).domain_code):
        raise ConfigError("--eval-task must be in the domain of --task")
    report = evaluate_checkpoint(out, tasks[0], algos[0], seeds,
                                 test_dialogues, eval_task_id=eval_task)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_benchmark(args, config) -> int:
    _refuse_unread(config, "benchmark", _TRAIN_ONLY, ("eval_at",))
    tasks = _resolve_tasks(_setting(args.task, config, "task", "name", "all"))
    algos = _resolve_algos(_setting(args.algo, config, "policy", "algorithm",
                                    "all"))
    seeds = _resolve_seeds(args, config)
    dialogues = _dialogues(args, config, 4000)
    test_dialogues = _test_dialogues(args, config)
    out = Path(_setting(args.out, config, "harness", "out", "runs"))
    path = run_benchmark(algos, tasks, seeds, dialogues, test_dialogues, out,
                         policy_overrides=_policy_overrides(config, algos))
    print(f"results table: {path}")
    return EXIT_OK


def cmd_cross(args, config) -> int:
    _refuse_unread(config, "cross", ("task",) + _TRAIN_ONLY,
                   ("dialogues", "eval_at"))
    _refuse_policy_settings(config, "cross")
    algos = _resolve_algos(_setting(args.algo, config, "policy", "algorithm",
                                    "all"))
    domains = _split(args.domains or "CR,SFR,LAP")
    for domain in domains:
        if domain not in DOMAIN_CODES:
            raise ConfigError(f"unknown domain {domain!r}; choose from "
                              f"{DOMAIN_CODES}")
    seeds = _resolve_seeds(args, config)
    test_dialogues = _test_dialogues(args, config)
    out = Path(_setting(args.out, config, "harness", "out", "runs"))
    path = run_cross_task(out, algos, domains, seeds, test_dialogues)
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
