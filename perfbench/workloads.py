"""The benchmark's workloads: command lines for the ``dialbench`` CLI.

A workload fixes the tasks, algorithms and dialogue counts of one pass.  The
workload seed draws ``INPUT_SETS`` sets of run seeds; pass ``i`` of a run
uses set ``i % INPUT_SETS``.  Pooling several run seeds in one run keeps a
single seed's learned dialogue lengths from setting the run's figures, and
a set that comes round again must write byte-identical artifacts.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("rollout", "train-dqn", "train-mix")
INPUT_SETS = 8

ROLLOUT_TASKS = ("env1-CR", "env2-SFR", "env5-SFR", "env6-LAP")
MIX_ALGOS = ("gpsarsa", "a2c", "enac")

# Dialogue counts of a full pass, then of the two-dialogue smoke pass the
# benchmark's tests run.
SIZES = {
    "full": {
        "rollout_test": 100,
        "dqn_milestones": (30, 60, 90, 120, 150), "dqn_test": 8,
        "gpsarsa_milestones": (200, 400, 600),
        "ac_milestones": (100, 200), "mix_test": 30, "mix_eval": 60,
    },
    "smoke": {
        "rollout_test": 2,
        "dqn_milestones": (1, 2), "dqn_test": 2,
        "gpsarsa_milestones": (1, 2),
        "ac_milestones": (1, 2), "mix_test": 2, "mix_eval": 2,
    },
}


def run_seeds(seed: int, input_set: int, count: int) -> list[int]:
    """The run seeds of one input set, drawn from the workload seed."""
    if seed < 0:
        raise ValueError("the workload seed must be non-negative")
    rng = np.random.default_rng(seed)
    drawn = rng.choice(1 << 20, size=INPUT_SETS * count, replace=False)
    k = input_set % INPUT_SETS
    return [int(s) for s in drawn[k * count:(k + 1) * count]]


def _seeds(seeds: list[int]) -> str:
    return ",".join(str(s) for s in seeds)


def _train(task: str, algo: str, seeds: list[int],
           milestones: tuple[int, ...], test: int, out: str) -> list[str]:
    return ["train", "--task", task, "--algo", algo, "--seeds", _seeds(seeds),
            "--dialogues", str(milestones[-1]),
            "--eval-at", ",".join(str(m) for m in milestones),
            "--test-dialogues", str(test), "--out", out]


def commands(workload: str, seed: int, input_set: int, out: str,
             size: str = "full") -> list[list[str]]:
    """The CLI argument lists of one pass, writing under ``out``."""
    n = SIZES[size]
    if workload == "rollout":
        seeds = run_seeds(seed, input_set, len(ROLLOUT_TASKS))
        # eval-only: no training dialogues, one greedy test at point 0
        return [_train(task, "handcrafted", [s], (0,), n["rollout_test"], out)
                for task, s in zip(ROLLOUT_TASKS, seeds)]
    if workload == "train-dqn":
        return [_train("env3-SFR", "dqn", run_seeds(seed, input_set, 1),
                       n["dqn_milestones"], n["dqn_test"], out)]
    if workload == "train-mix":
        seeds = run_seeds(seed, input_set, 1)
        trains = [_train("env3-CR", algo, seeds,
                         n["gpsarsa_milestones"] if algo == "gpsarsa"
                         else n["ac_milestones"], n["mix_test"], out)
                  for algo in MIX_ALGOS]
        evals = [["eval", "--task", "env3-CR", "--algo", algo,
                  "--seeds", _seeds(seeds), "--eval-task", "env6-CR",
                  "--test-dialogues", str(n["mix_eval"]), "--out", out]
                 for algo in MIX_ALGOS]
        return trains + evals
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
