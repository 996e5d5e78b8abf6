"""Training, evaluation and table emission.

One run = (task, algorithm, seed).  Training consumes a single RNG
stream per seed; every evaluation episode opens its own counter-based
stream, so milestone tests neither perturb learning nor depend on how
much randomness training has consumed.  A finished run is one record,
the run summary: its curve CSV, its summary JSON and its cell of the
results table all render from it.  All emitted files are plain CSV or
JSON, and rerunning the same settings reproduces them byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dialbench.artifacts import write_text_atomic
from dialbench.belief_tracker import belief_dim
from dialbench.domain import DOMAIN_CODES
from dialbench.environment import (
    MAX_TURNS,
    SUCCESS_REWARD,
    TURN_PENALTY,
    DialogueEnv,
    make_task,
)
from dialbench.error_channel import PRESETS
from dialbench.policies import Policy, Transition, load_policy, make_policy
from dialbench.seeding import INIT_STREAM, TRAIN_STREAM, eval_stream, seed_stream
from dialbench.simulated_user import PROFILES

# A dialogue's reward lies between a failure at the turn cap and a
# success in one turn.
REWARD_MIN = -MAX_TURNS * TURN_PENALTY
REWARD_MAX = SUCCESS_REWARD - TURN_PENALTY

ENV_INDICES_CROSS = (1, 3, 6)
DEFAULT_EVAL_POINTS = (1000, 4000, 10000)


class MissingArtifact(Exception):
    """No finished run of a (task, algorithm), or none of a seed, to
    reload, or a run summary too damaged to say which."""


@dataclass(frozen=True)
class RunSpec:
    task_id: str
    algorithm: str
    seeds: tuple[int, ...] = tuple(range(10))
    train_dialogues: int = 10000
    eval_points: tuple[int, ...] = DEFAULT_EVAL_POINTS
    test_dialogues: int = 500
    out_dir: Path = Path("runs")

    def __post_init__(self):
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not self.seeds:
            raise ValueError("at least one seed required")
        points = self.eval_points
        if list(points) != sorted(points) or len(set(points)) != len(points):
            raise ValueError("eval_points must be strictly ascending")
        if not points:
            raise ValueError("at least one eval point required")
        if points[0] < 0:
            raise ValueError("eval points must not be negative")
        # the last milestone is the end of training
        if points[-1] > self.train_dialogues:
            raise ValueError(f"eval point {points[-1]} exceeds the "
                             f"{self.train_dialogues} training dialogues")
        if points[-1] < self.train_dialogues:
            raise ValueError(f"the eval points end at {points[-1]}, before "
                             f"the {self.train_dialogues} training dialogues")
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def run_episode(env, policy: Policy, rng: np.random.Generator,
                dialogue_index: int, training: bool):
    """Generic loop; works for DialogueEnv and any env with the same
    reset/step/result surface.  The policy learns from a training
    dialogue and acts greedily in any other."""
    policy.begin_dialogue(dialogue_index, training)
    step = env.reset(rng)
    while not step.done:
        action = policy.act(step.observation, step.mask, rng,
                            belief=step.belief)
        nxt = env.step(action, rng)
        if training:
            policy.observe(Transition(observation=step.observation,
                                      action=action,
                                      reward=nxt.reward,
                                      next_observation=nxt.observation,
                                      next_mask=nxt.mask,
                                      done=nxt.done,
                                      mask=step.mask), rng)
        step = nxt
    policy.end_dialogue(rng)
    return env.result()


def evaluate(env, policy: Policy, run_seed: int, milestone_index: int,
             episodes: int) -> tuple[float, float]:
    """Greedy test episodes on dedicated streams; returns mean success
    and mean final reward."""
    successes = 0
    rewards = 0.0
    for j in range(episodes):
        rng = eval_stream(run_seed, milestone_index, j)
        result = run_episode(env, policy, rng, dialogue_index=0,
                             training=False)
        successes += int(result.success)
        rewards += result.final_reward
    return successes / episodes, rewards / episodes


def checkpoint_path(out_dir: Path, task_id: str, algorithm: str,
                    seed: int, point: int) -> Path:
    return (Path(out_dir) / "checkpoints" / task_id / algorithm
            / f"seed{seed}-d{point}.npz")


# The seed statistics of a summary point, in the curve CSV's column order.
STATS = ("success_mean", "success_std", "reward_mean", "reward_std")


def summary_point(point: int,
                  per_seed: dict[int, tuple[float, float]]) -> dict:
    """One milestone of a run summary: each seed's (success, reward) and
    their means and stds, taken over the seeds in ascending order."""
    seeds = sorted(per_seed)
    succ = np.array([per_seed[s][0] for s in seeds])
    rew = np.array([per_seed[s][1] for s in seeds])
    entry = {
        "eval_point": point,
        "success_mean": float(succ.mean()),
        "success_std": float(succ.std()),
        "reward_mean": float(rew.mean()),
        "reward_std": float(rew.std()),
        "per_seed": {str(s): {"success": succ_s, "reward": rew_s}
                     for s, (succ_s, rew_s) in per_seed.items()},
    }
    if not 0.0 <= entry["success_mean"] <= 1.0:
        raise ValueError(f"success {entry['success_mean']} outside [0, 1]")
    if not REWARD_MIN <= entry["reward_mean"] <= REWARD_MAX:
        raise ValueError(f"reward {entry['reward_mean']} outside "
                         f"[{REWARD_MIN}, {REWARD_MAX}]")
    return entry


def train_unit(spec: RunSpec, env: DialogueEnv, seed: int,
               policy_overrides: dict | None) -> list[tuple[float, float]]:
    """Train and test one seed of ``spec``, saving a checkpoint at each
    milestone; returns its (success, reward) at each milestone."""
    policy = make_policy(spec.algorithm, belief_dim(env.ontology),
                         env.action_count, ontology=env.ontology,
                         init_rng=seed_stream(seed, INIT_STREAM),
                         **(policy_overrides or {}))
    train_rng = seed_stream(seed, TRAIN_STREAM)
    completed = 0
    results = []
    for m_idx, point in enumerate(spec.eval_points):
        if policy.trains:
            while completed < point:
                run_episode(env, policy, train_rng,
                            dialogue_index=completed, training=True)
                completed += 1
        results.append(evaluate(env, policy, seed, m_idx,
                                spec.test_dialogues))
        policy.save(checkpoint_path(spec.out_dir, spec.task_id,
                                    spec.algorithm, seed, point))
    return results


def task_env(task_id: str, env_overrides: dict | None = None) -> DialogueEnv:
    """The env of ``task_id`` under a run's ``[errormodel]`` and
    ``[simuser]`` sections, as a config file gives them.  The task keeps
    its own ser, and an ``[errormodel]`` without ``preset`` starts from
    the task's preset; an override the task cannot take is a ValueError."""
    task = make_task(task_id)
    env_overrides = env_overrides or {}
    error = dict(env_overrides.get("errormodel", {}))
    if "ser" in error:
        raise ValueError(f"[errormodel] cannot set ser: {task_id} runs at "
                         f"its fixed rate {task.ser}")
    error_params = None
    if error:
        base = PRESETS[error.pop("preset", task.error_preset)]
        try:
            error_params = replace(base, **error)
        except ValueError as exc:
            raise ValueError(f"bad [errormodel] override: {exc}") from exc
    profile = env_overrides.get("simuser", {}).get("profile")
    return DialogueEnv(task, error_params=error_params,
                       profile=PROFILES[profile] if profile else None)


def run_training(spec: RunSpec, env_overrides: dict | None = None,
                 policy_overrides: dict | None = None) -> dict:
    """Train and test every seed of ``spec`` on its task under
    ``env_overrides`` (see ``task_env``); returns the run summary, the
    one record of the run that its curve CSV and summary JSON render,
    and that ``evaluate_checkpoint`` loads back."""
    # The env keeps no state between dialogues, so the seeds share it.
    env = task_env(spec.task_id, env_overrides)
    # the summary is the record of a finished run: until this run writes
    # its own, no earlier run's record may name the checkpoints it replaces
    summary_json_path(spec.out_dir, spec.task_id,
                      spec.algorithm).unlink(missing_ok=True)
    units = {seed: train_unit(spec, env, seed, policy_overrides)
             for seed in spec.seeds}
    summary = {
        "task": spec.task_id,
        "algorithm": spec.algorithm,
        "seeds": list(spec.seeds),
        "train_dialogues": spec.train_dialogues,
        "test_dialogues": spec.test_dialogues,
        "points": [summary_point(point, {seed: unit[m_idx]
                                         for seed, unit in units.items()})
                   for m_idx, point in enumerate(spec.eval_points)],
    }
    if env_overrides:   # so a default run's summary keeps its bytes
        summary["env_overrides"] = env_overrides
    write_curve_csv(summary, spec.out_dir)
    write_summary_json(summary, spec.out_dir)
    return summary


def curve_csv_path(out_dir: Path, task_id: str, algorithm: str) -> Path:
    return Path(out_dir) / "curves" / f"{task_id}-{algorithm}.csv"


def summary_json_path(out_dir: Path, task_id: str, algorithm: str) -> Path:
    return Path(out_dir) / "summaries" / f"{task_id}-{algorithm}.json"


def write_curve_csv(summary: dict, out_dir: Path) -> Path:
    seeds = [str(seed) for seed in summary["seeds"]]
    header = ["dialogue_index"]
    for seed in seeds:
        header += [f"success_seed{seed}", f"reward_seed{seed}"]
    lines = [",".join(header + list(STATS))]
    for entry in summary["points"]:
        row = [str(entry["eval_point"])]
        for seed in seeds:
            cell = entry["per_seed"][seed]
            row += [f"{cell['success']:.4f}", f"{cell['reward']:.4f}"]
        row += [f"{entry[stat]:.4f}" for stat in STATS]
        lines.append(",".join(row))
    return write_text_atomic(
        curve_csv_path(out_dir, summary["task"], summary["algorithm"]),
        "\n".join(lines) + "\n")


def write_summary_json(summary: dict, out_dir: Path) -> Path:
    return write_text_atomic(
        summary_json_path(out_dir, summary["task"], summary["algorithm"]),
        json.dumps(summary, indent=2, sort_keys=True) + "\n")


def run_benchmark(algorithms: list[str], tasks: list[str],
                  seeds: tuple[int, ...], dialogues: int,
                  test_dialogues: int, out_dir: Path,
                  policy_overrides: dict | None = None) -> Path:
    """Train every (algorithm, task) cell and emit the results table:
    one row per task, success/reward columns per algorithm, mean rows
    per domain and over all tasks, best data-driven reward flagged."""
    out_dir = Path(out_dir)
    cells: dict[tuple[str, str], dict] = {}
    for task_id in tasks:
        for algorithm in algorithms:
            spec = RunSpec(task_id, algorithm, seeds=tuple(seeds),
                           train_dialogues=dialogues,
                           eval_points=(dialogues,),
                           test_dialogues=test_dialogues, out_dir=out_dir)
            summary = run_training(spec, policy_overrides=policy_overrides)
            cells[(task_id, algorithm)] = summary["points"][-1]

    return write_benchmark_table(cells, algorithms, tasks, out_dir)


def _best_data_driven(values: dict[str, float]) -> str:
    candidates = {a: r for a, r in values.items() if a != "handcrafted"}
    # max keeps the first of equal values: column order breaks ties
    return max(candidates, key=candidates.get) if candidates else ""


def write_benchmark_table(cells: dict[tuple[str, str], dict],
                          algorithms: list[str], tasks: list[str],
                          out_dir: Path) -> Path:
    out_dir = Path(out_dir)
    csv_path = out_dir / "benchmark.csv"
    json_path = out_dir / "benchmark.json"

    header = ["task"]
    for algorithm in algorithms:
        header += [f"{algorithm}_success", f"{algorithm}_reward"]
    header.append("best_data_driven")

    lines = [",".join(header)]
    json_rows = []

    def emit(label: str, succ: dict[str, float], rew: dict[str, float]):
        best = _best_data_driven(rew)
        row = [label]
        for algorithm in algorithms:
            row += [f"{succ[algorithm]:.4f}", f"{rew[algorithm]:.4f}"]
        row.append(best)
        lines.append(",".join(row))
        json_rows.append({
            "task": label,
            "success": {a: succ[a] for a in algorithms},
            "reward": {a: rew[a] for a in algorithms},
            "best_data_driven": best,
        })

    groups: dict[str, list[str]] = {code: [] for code in DOMAIN_CODES}
    for task_id in tasks:
        succ = {a: cells[(task_id, a)]["success_mean"] for a in algorithms}
        rew = {a: cells[(task_id, a)]["reward_mean"] for a in algorithms}
        emit(task_id, succ, rew)
        groups[make_task(task_id).domain_code].append(task_id)

    def mean_over(task_ids: list[str], label: str):
        if not task_ids:
            return
        succ = {a: float(np.mean([cells[(t, a)]["success_mean"]
                                  for t in task_ids])) for a in algorithms}
        rew = {a: float(np.mean([cells[(t, a)]["reward_mean"]
                                 for t in task_ids])) for a in algorithms}
        emit(label, succ, rew)

    for code in DOMAIN_CODES:
        mean_over(groups[code], f"Mean-{code}")
    mean_over(list(tasks), "Mean-ALL")

    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    write_text_atomic(json_path, json.dumps({"algorithms": list(algorithms),
                                             "rows": json_rows},
                                            indent=2, sort_keys=True) + "\n")
    return csv_path


def _summary_fault(summary) -> str | None:
    """What keeps a loaded run summary from naming its checkpoints."""
    if not isinstance(summary, dict):
        return "it is not a JSON object"
    missing = [key for key in ("seeds", "train_dialogues") if key not in summary]
    if missing:
        return f"it lacks {', '.join(missing)}"
    seeds, dialogues = summary["seeds"], summary["train_dialogues"]
    if not (isinstance(seeds, list) and all(type(s) is int for s in seeds)):
        return f"seeds is {seeds!r}, not a list of integers"
    if type(dialogues) is not int:
        return f"train_dialogues is {dialogues!r}, not an integer"
    overrides = summary.get("env_overrides", {})
    if not (isinstance(overrides, dict)
            and all(isinstance(v, dict) for v in overrides.values())):
        return f"env_overrides is {overrides!r}, not a table of sections"
    return None


def _reload(out_dir: Path, task_id: str, algorithm: str,
            seeds: tuple[int, ...], test_dialogues: int,
            target_ids: list[str], built: dict | None = None) -> list[dict]:
    """Reload each seed's policy of the finished run that the summary of
    (task, algorithm) records, at its last milestone, and test it on
    each target task, all in the run's domain, under the env overrides
    the run was trained with; returns one summary point per target.
    ``built`` keeps the envs built, by task and overrides, across calls.

    Each checkpoint is loaded once, and tested on milestone 0's eval
    streams, whatever the milestone; the summary's last point was tested
    on the last milestone's streams, so on the training task the two
    differ by sampling noise."""
    path = summary_json_path(out_dir, task_id, algorithm)
    try:
        summary = json.loads(path.read_text())
    except FileNotFoundError:
        raise MissingArtifact(f"no finished run of {algorithm} on {task_id}: "
                              f"{path} does not exist") from None
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"damaged run summary {path}: {exc}") from None
    fault = _summary_fault(summary)
    if fault:
        raise MissingArtifact(f"damaged run summary {path}: {fault}")
    untrained = [seed for seed in seeds if seed not in summary["seeds"]]
    if untrained:
        raise MissingArtifact(f"seeds {untrained} are not among the seeds "
                              f"{summary['seeds']} that {path} records")
    point = summary["train_dialogues"]
    overrides = summary.get("env_overrides", {})
    key = json.dumps(overrides, sort_keys=True)
    built = {} if built is None else built
    try:
        for target in target_ids:
            if (target, key) not in built:
                built[target, key] = task_env(target, overrides)
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingArtifact(f"damaged run summary {path}: "
                              f"env_overrides {exc}") from None
    envs = [built[target, key] for target in target_ids]
    per_env = [{} for _ in envs]
    for seed in seeds:
        policy = load_policy(checkpoint_path(out_dir, task_id, algorithm,
                                             seed, point),
                             ontology=envs[0].ontology)
        for env, per_seed in zip(envs, per_env):
            per_seed[seed] = evaluate(env, policy, seed, 0, test_dialogues)
    return [summary_point(point, per_seed) for per_seed in per_env]


def evaluate_checkpoint(out_dir: Path, task_id: str, algorithm: str,
                        seeds: tuple[int, ...], test_dialogues: int,
                        eval_task_id: str | None = None) -> dict:
    """Test the reloaded policies of the finished run of (task,
    algorithm), optionally on another task in the same domain."""
    target_id = eval_task_id or task_id
    task = make_task(target_id)
    if task.domain_code != make_task(task_id).domain_code:
        raise ValueError("cross-task evaluation must stay in one domain")
    point, = _reload(out_dir, task_id, algorithm, seeds, test_dialogues,
                     [target_id])
    return {
        "trained_on": task_id,
        "evaluated_on": target_id,
        "algorithm": algorithm,
        "success_mean": point["success_mean"],
        "reward_mean": point["reward_mean"],
        "per_seed": point["per_seed"],
    }


def run_cross_task(out_dir: Path, algorithms: list[str], domains: list[str],
                   seeds: tuple[int, ...], test_dialogues: int) -> Path:
    """Reward matrix of policies trained in one noise environment and
    tested in the others; the diagonal is left blank."""
    out_dir = Path(out_dir)
    header = ["domain", "algorithm", "train_env"]
    header += [f"eval_env{j}" for j in ENV_INDICES_CROSS]
    lines = [",".join(header)]
    json_rows = []

    built: dict = {}    # each env is built once per set of overrides
    for domain in domains:
        if domain not in DOMAIN_CODES:
            raise ValueError(f"unknown domain {domain!r}")
        for algorithm in algorithms:
            for i in ENV_INDICES_CROSS:
                targets = [j for j in ENV_INDICES_CROSS if j != i]
                points = _reload(out_dir, f"env{i}-{domain}", algorithm,
                                 seeds, test_dialogues,
                                 [f"env{j}-{domain}" for j in targets], built)
                rewards = dict.fromkeys(map(str, ENV_INDICES_CROSS)) | {
                    str(j): point["reward_mean"]
                    for j, point in zip(targets, points)}
                cells = ["" if r is None else f"{r:.4f}"
                         for r in rewards.values()]
                lines.append(",".join([domain, algorithm, str(i)] + cells))
                json_rows.append({"domain": domain, "algorithm": algorithm,
                                  "train_env": i, "rewards": rewards})

    csv_path = out_dir / "cross.csv"
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    write_text_atomic(out_dir / "cross.json", json.dumps(
        {"rows": json_rows}, indent=2, sort_keys=True) + "\n")
    return csv_path
