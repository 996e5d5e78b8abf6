"""Training, evaluation and table emission.

One run = (task, algorithm, seed).  Training consumes a single RNG
stream per seed; every evaluation episode opens its own counter-based
stream, so milestone tests neither perturb learning nor depend on how
much randomness training has consumed.  All emitted files are plain
CSV plus a JSON summary, and rerunning the same settings reproduces
them byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dialbench.artifacts import write_text_atomic
from dialbench.belief_tracker import belief_dim
from dialbench.domain import DOMAIN_CODES, Ontology
from dialbench.environment import (
    MAX_TURNS,
    SUCCESS_REWARD,
    TURN_PENALTY,
    DialogueEnv,
    make_task,
)
from dialbench.policies import Policy, Transition, load_policy, make_policy
from dialbench.seeding import INIT_STREAM, TRAIN_STREAM, eval_stream, seed_stream

# A dialogue's reward lies between a failure at the turn cap and a
# success in one turn.
REWARD_MIN = -MAX_TURNS * TURN_PENALTY
REWARD_MAX = SUCCESS_REWARD - TURN_PENALTY

ENV_INDICES_CROSS = (1, 3, 6)
DEFAULT_EVAL_POINTS = (1000, 4000, 10000)


class MissingArtifact(Exception):
    """A required checkpoint or result file does not exist."""


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


@dataclass(frozen=True)
class ResultRow:
    task: str
    algorithm: str
    eval_point: int
    success: float
    reward: float
    success_std: float
    reward_std: float

    def __post_init__(self):
        if not 0.0 <= self.success <= 1.0:
            raise ValueError(f"success {self.success} outside [0, 1]")
        if not REWARD_MIN <= self.reward <= REWARD_MAX:
            raise ValueError(f"reward {self.reward} outside "
                             f"[{REWARD_MIN}, {REWARD_MAX}]")


@dataclass
class TrainResult:
    spec: RunSpec
    # curve[point][seed] = (success, reward)
    curve: dict[int, dict[int, tuple[float, float]]] = field(default_factory=dict)

    def mean_std(self, point: int) -> tuple[float, float, float, float]:
        cells = self.curve[point]
        succ = np.array([cells[s][0] for s in sorted(cells)])
        rew = np.array([cells[s][1] for s in sorted(cells)])
        return (float(succ.mean()), float(succ.std()),
                float(rew.mean()), float(rew.std()))

    def row(self, point: int) -> ResultRow:
        sm, ss, rm, rs = self.mean_std(point)
        return ResultRow(self.spec.task_id, self.spec.algorithm, point,
                         sm, rm, ss, rs)


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


def latest_checkpoint(out_dir: Path, task_id: str, algorithm: str,
                      seed: int) -> Path:
    folder = Path(out_dir) / "checkpoints" / task_id / algorithm
    best: tuple[int, Path] | None = None
    for path in folder.glob(f"seed{seed}-d*.npz"):
        try:
            point = int(path.stem.split("-d")[-1])
        except ValueError:
            continue
        if best is None or point > best[0]:
            best = (point, path)
    if best is None:
        raise MissingArtifact(
            f"no checkpoint for task={task_id} algorithm={algorithm} "
            f"seed={seed} under {folder}")
    return best[1]


def _build_policy(spec: RunSpec, env: DialogueEnv, run_seed: int,
                  policy_overrides: dict | None) -> Policy:
    obs_dim = belief_dim(env.ontology)
    overrides = dict(policy_overrides or {})
    return make_policy(spec.algorithm, obs_dim, env.action_count,
                       ontology=env.ontology,
                       init_rng=seed_stream(run_seed, INIT_STREAM),
                       **overrides)


def run_training(spec: RunSpec, ontology: Ontology | None = None,
                 error_params=None, profile=None,
                 policy_overrides: dict | None = None,
                 write_files: bool = True) -> TrainResult:
    # The env keeps no state between dialogues, so the seeds share it.
    env = DialogueEnv(make_task(spec.task_id), ontology=ontology,
                      error_params=error_params, profile=profile)
    result = TrainResult(spec, {p: {} for p in spec.eval_points})

    for run_seed in spec.seeds:
        policy = _build_policy(spec, env, run_seed, policy_overrides)
        train_rng = seed_stream(run_seed, TRAIN_STREAM)
        completed = 0
        for m_idx, point in enumerate(spec.eval_points):
            if policy.trains:
                while completed < point:
                    run_episode(env, policy, train_rng,
                                dialogue_index=completed, training=True)
                    completed += 1
            succ, rew = evaluate(env, policy, run_seed, m_idx,
                                 spec.test_dialogues)
            result.curve[point][run_seed] = (succ, rew)
            if write_files:
                policy.save(checkpoint_path(spec.out_dir, spec.task_id,
                                            spec.algorithm, run_seed, point))

    if write_files:
        write_curve_csv(result)
        write_summary_json(result)
    return result


def curve_csv_path(spec: RunSpec) -> Path:
    return Path(spec.out_dir) / "curves" / f"{spec.task_id}-{spec.algorithm}.csv"


def summary_json_path(spec: RunSpec) -> Path:
    return (Path(spec.out_dir) / "summaries"
            / f"{spec.task_id}-{spec.algorithm}.json")


def write_curve_csv(result: TrainResult) -> Path:
    spec = result.spec
    path = curve_csv_path(spec)
    header = ["dialogue_index"]
    for seed in spec.seeds:
        header += [f"success_seed{seed}", f"reward_seed{seed}"]
    header += ["success_mean", "success_std", "reward_mean", "reward_std"]
    lines = [",".join(header)]
    for point in spec.eval_points:
        cells = result.curve[point]
        row = [str(point)]
        for seed in spec.seeds:
            succ, rew = cells[seed]
            row += [f"{succ:.4f}", f"{rew:.4f}"]
        sm, ss, rm, rs = result.mean_std(point)
        row += [f"{sm:.4f}", f"{ss:.4f}", f"{rm:.4f}", f"{rs:.4f}"]
        lines.append(",".join(row))
    return write_text_atomic(path, "\n".join(lines) + "\n")


def write_summary_json(result: TrainResult) -> Path:
    spec = result.spec
    path = summary_json_path(spec)
    points = []
    for point in spec.eval_points:
        sm, ss, rm, rs = result.mean_std(point)
        points.append({
            "eval_point": point,
            "success_mean": sm,
            "success_std": ss,
            "reward_mean": rm,
            "reward_std": rs,
            "per_seed": {
                str(seed): {"success": result.curve[point][seed][0],
                            "reward": result.curve[point][seed][1]}
                for seed in spec.seeds
            },
        })
    payload = {
        "task": spec.task_id,
        "algorithm": spec.algorithm,
        "seeds": list(spec.seeds),
        "train_dialogues": spec.train_dialogues,
        "test_dialogues": spec.test_dialogues,
        "points": points,
    }
    return write_text_atomic(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _domain_of(task_id: str) -> str:
    return task_id.split("-")[1]


def run_benchmark(algorithms: list[str], tasks: list[str],
                  seeds: tuple[int, ...], dialogues: int,
                  test_dialogues: int, out_dir: Path,
                  policy_overrides: dict | None = None) -> Path:
    """Train every (algorithm, task) cell and emit the results table:
    one row per task, success/reward columns per algorithm, mean rows
    per domain and over all tasks, best data-driven reward flagged."""
    out_dir = Path(out_dir)
    cells: dict[tuple[str, str], ResultRow] = {}
    for task_id in tasks:
        for algorithm in algorithms:
            spec = RunSpec(task_id, algorithm, seeds=tuple(seeds),
                           train_dialogues=dialogues,
                           eval_points=(dialogues,),
                           test_dialogues=test_dialogues, out_dir=out_dir)
            result = run_training(spec, policy_overrides=policy_overrides)
            cells[(task_id, algorithm)] = result.row(dialogues)

    return write_benchmark_table(cells, algorithms, tasks, out_dir)


def _best_data_driven(values: dict[str, float]) -> str:
    candidates = {a: r for a, r in values.items() if a != "handcrafted"}
    if not candidates:
        return ""
    best = max(candidates.values())
    for algorithm in candidates:          # insertion order breaks ties
        if candidates[algorithm] == best:
            return algorithm
    return ""


def write_benchmark_table(cells: dict[tuple[str, str], ResultRow],
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
        row = [label]
        for algorithm in algorithms:
            row += [f"{succ[algorithm]:.4f}", f"{rew[algorithm]:.4f}"]
        row.append(_best_data_driven(rew))
        lines.append(",".join(row))
        json_rows.append({
            "task": label,
            "success": {a: succ[a] for a in algorithms},
            "reward": {a: rew[a] for a in algorithms},
            "best_data_driven": _best_data_driven(rew),
        })

    groups: dict[str, list[str]] = {code: [] for code in DOMAIN_CODES}
    for task_id in tasks:
        succ = {a: cells[(task_id, a)].success for a in algorithms}
        rew = {a: cells[(task_id, a)].reward for a in algorithms}
        emit(task_id, succ, rew)
        domain = _domain_of(task_id)
        if domain in groups:
            groups[domain].append(task_id)

    def mean_over(task_ids: list[str], label: str):
        if not task_ids:
            return
        succ = {a: float(np.mean([cells[(t, a)].success for t in task_ids]))
                for a in algorithms}
        rew = {a: float(np.mean([cells[(t, a)].reward for t in task_ids]))
               for a in algorithms}
        emit(label, succ, rew)

    for code in DOMAIN_CODES:
        mean_over(groups[code], f"Mean-{code}")
    mean_over(list(tasks), "Mean-ALL")

    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    write_text_atomic(json_path, json.dumps({"algorithms": list(algorithms),
                                             "rows": json_rows},
                                            indent=2, sort_keys=True) + "\n")
    return csv_path


def evaluate_checkpoint(out_dir: Path, task_id: str, algorithm: str,
                        seeds: tuple[int, ...], test_dialogues: int,
                        eval_task_id: str | None = None) -> dict:
    """Reload saved policies and test them, optionally on another task
    in the same domain."""
    target_id = eval_task_id or task_id
    task = make_task(target_id)
    if eval_task_id is not None:
        if _domain_of(eval_task_id) != _domain_of(task_id):
            raise ValueError("cross-task evaluation must stay in one domain")
    env = DialogueEnv(task)
    per_seed = {}
    for seed in seeds:
        path = latest_checkpoint(out_dir, task_id, algorithm, seed)
        policy = load_policy(path, ontology=env.ontology)
        succ, rew = evaluate(env, policy, seed, 0, test_dialogues)
        per_seed[seed] = {"success": succ, "reward": rew}
    succ = float(np.mean([v["success"] for v in per_seed.values()]))
    rew = float(np.mean([v["reward"] for v in per_seed.values()]))
    return {
        "trained_on": task_id,
        "evaluated_on": target_id,
        "algorithm": algorithm,
        "success_mean": succ,
        "reward_mean": rew,
        "per_seed": {str(k): v for k, v in per_seed.items()},
    }


def run_cross_task(out_dir: Path, algorithms: list[str], domains: list[str],
                   seeds: tuple[int, ...], test_dialogues: int = 500,
                   train_envs: tuple[int, ...] = ENV_INDICES_CROSS,
                   eval_envs: tuple[int, ...] = ENV_INDICES_CROSS) -> Path:
    """Reward matrix of policies trained in one noise environment and
    tested in the others; the diagonal is left blank."""
    out_dir = Path(out_dir)
    header = ["domain", "algorithm", "train_env"]
    header += [f"eval_env{j}" for j in eval_envs]
    lines = [",".join(header)]
    json_rows = []

    for domain in domains:
        if domain not in DOMAIN_CODES:
            raise ValueError(f"unknown domain {domain!r}")
        for algorithm in algorithms:
            for i in train_envs:
                row = [domain, algorithm, str(i)]
                rewards: dict[str, float | None] = {}
                for j in eval_envs:
                    if i == j:
                        row.append("")
                        rewards[str(j)] = None
                        continue
                    report = evaluate_checkpoint(
                        out_dir, f"env{i}-{domain}", algorithm, seeds,
                        test_dialogues, eval_task_id=f"env{j}-{domain}")
                    row.append(f"{report['reward_mean']:.4f}")
                    rewards[str(j)] = report["reward_mean"]
                lines.append(",".join(row))
                json_rows.append({"domain": domain, "algorithm": algorithm,
                                  "train_env": i, "rewards": rewards})

    csv_path = out_dir / "cross.csv"
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    write_text_atomic(out_dir / "cross.json", json.dumps(
        {"rows": json_rows}, indent=2, sort_keys=True) + "\n")
    return csv_path
