"""Training harness: specs, determinism, artifact layout, tables."""

import hashlib
import json

import numpy as np
import pytest

from dialbench.belief_tracker import belief_dim
from dialbench.domain import generate_domain
from dialbench.environment import DialogueEnv, make_task
from dialbench.harness import (
    STATS,
    MissingArtifact,
    RunSpec,
    checkpoint_path,
    curve_csv_path,
    evaluate,
    evaluate_checkpoint,
    run_benchmark,
    run_cross_task,
    run_episode,
    run_training,
    summary_json_path,
    summary_point,
    write_benchmark_table,
)
from dialbench.policies import (
    GPSarsaConfig,
    GPSarsaPolicy,
    HandcraftedPolicy,
    load_policy,
)
from dialbench.seeding import TRAIN_STREAM, seed_stream

from test_gpsarsa import q_posterior

CR = generate_domain("CR")


# ------------------------------------------------------------- specs


def test_runspec_validation():
    with pytest.raises(ValueError, match="distinct"):
        RunSpec("env1-CR", "dqn", seeds=(0, 0))
    with pytest.raises(ValueError, match="at least one"):
        RunSpec("env1-CR", "dqn", seeds=())
    with pytest.raises(ValueError, match="ascending"):
        RunSpec("env1-CR", "dqn", eval_points=(4000, 1000, 10000))
    with pytest.raises(ValueError, match="ascending"):
        RunSpec("env1-CR", "dqn", eval_points=(1000, 1000, 4000))
    with pytest.raises(ValueError, match="exceed"):
        RunSpec("env1-CR", "dqn", train_dialogues=500, eval_points=(1000,))
    with pytest.raises(ValueError, match="before the 500 training"):
        RunSpec("env1-CR", "dqn", train_dialogues=500, eval_points=(100, 400))
    with pytest.raises(ValueError, match="at least one eval point"):
        RunSpec("env1-CR", "dqn", train_dialogues=0, eval_points=())
    with pytest.raises(ValueError, match="negative"):
        RunSpec("env1-CR", "dqn", train_dialogues=0, eval_points=(-1, 0))


def test_runspec_defaults_match_protocol():
    spec = RunSpec("env1-CR", "gpsarsa")
    assert spec.seeds == tuple(range(10))
    assert spec.train_dialogues == 10000
    assert spec.eval_points == (1000, 4000, 10000)
    assert spec.test_dialogues == 500


def test_summary_point_bounds():
    summary_point(1000, {0: (0.5, -3.0)})
    with pytest.raises(ValueError, match="success"):
        summary_point(1000, {0: (1.2, 0.0)})
    with pytest.raises(ValueError, match="reward"):
        summary_point(1000, {0: (0.5, 20.0)})
    with pytest.raises(ValueError, match="reward"):
        summary_point(1000, {0: (0.5, -26.0)})


def test_summary_point_aggregation():
    point = summary_point(10, {1: (0.6, 6.0), 0: (0.8, 10.0)})
    assert point["success_mean"] == pytest.approx(0.7)
    assert point["success_std"] == pytest.approx(0.1)
    assert point["reward_mean"] == pytest.approx(8.0)
    assert point["reward_std"] == pytest.approx(2.0)
    assert point["eval_point"] == 10
    assert point["per_seed"] == {"0": {"success": 0.8, "reward": 10.0},
                                 "1": {"success": 0.6, "reward": 6.0}}


def test_summary_point_takes_seeds_in_ascending_order():
    # the float sums of the mean and std depend on the order of the terms
    values = {2: (0.1, 0.1), 0: (0.2, 0.2), 1: (0.3, 0.3)}
    point = summary_point(1, values)
    ascending = np.array([values[s][0] for s in sorted(values)])
    assert point["success_mean"] == float(ascending.mean())
    assert point["success_std"] == float(ascending.std())
    assert point["success_mean"] != float(np.array([0.1, 0.2, 0.3]).mean())


# ------------------------------------------------------------- episodes


def test_run_episode_handcrafted():
    env = DialogueEnv(make_task("env1-CR"))
    policy = HandcraftedPolicy(CR)
    result = run_episode(env, policy, seed_stream(0, TRAIN_STREAM),
                         dialogue_index=0, training=False)
    assert result.final_reward == 20.0 * result.success - result.turns
    assert 1 <= result.turns <= 25


def test_evaluate_is_deterministic():
    env = DialogueEnv(make_task("env1-CR"))
    policy = HandcraftedPolicy(CR)
    a = evaluate(env, policy, run_seed=3, milestone_index=0, episodes=10)
    b = evaluate(env, policy, run_seed=3, milestone_index=0, episodes=10)
    assert a == b
    c = evaluate(env, policy, run_seed=3, milestone_index=1, episodes=10)
    assert a != c  # different milestone, different episode streams


def test_evaluation_does_not_perturb_training():
    # two identical training runs, one with an evaluation wedged in the
    # middle; the learned models must match exactly
    def train(with_eval):
        env = DialogueEnv(make_task("env1-CR"))
        policy = GPSarsaPolicy(belief_dim(CR), env.action_count,
                               GPSarsaConfig())
        rng = seed_stream(0, TRAIN_STREAM)
        for i in range(6):
            if with_eval and i == 3:
                evaluate(env, policy, run_seed=0, milestone_index=0,
                         episodes=5)
            run_episode(env, policy, rng, dialogue_index=i, training=True)
        return policy

    plain = train(False)
    wedged = train(True)
    assert plain.total_points == wedged.total_points
    probe = np.zeros(belief_dim(CR))
    probe[0] = 1.0
    for a in range(plain.action_count):
        assert q_posterior(plain, probe, a) == q_posterior(wedged, probe, a)


# ------------------------------------------------------------- checkpoints


def test_failed_write_leaves_previous_milestone_latest(tmp_path, monkeypatch):
    policy = GPSarsaPolicy(obs_dim=3, action_count=2)
    policy.save(checkpoint_path(tmp_path, "env1-CR", "gpsarsa", 0, 100))

    def half_written(file, **arrays):
        file.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", half_written)
    with pytest.raises(OSError, match="disk full"):
        policy.save(checkpoint_path(tmp_path, "env1-CR", "gpsarsa", 0, 200))
    monkeypatch.undo()
    folder = tmp_path / "checkpoints/env1-CR/gpsarsa"
    assert [p.name for p in folder.iterdir()] == ["seed0-d100.npz"]
    assert load_policy(folder / "seed0-d100.npz").total_points == 0


def test_truncated_checkpoint_is_reported_by_path(tmp_path):
    path = checkpoint_path(tmp_path, "env1-CR", "gpsarsa", 0, 100)
    GPSarsaPolicy(obs_dim=3, action_count=2).save(path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ValueError, match="seed0-d100.npz"):
        load_policy(path)


def test_learner_checkpoint_refuses_another_domain(tmp_path):
    spec = RunSpec("env1-CR", "dqn", seeds=(0,), train_dialogues=2,
                   eval_points=(2,), test_dialogues=1, out_dir=tmp_path)
    run_training(spec, policy_overrides={"hidden1": 8, "hidden2": 4})
    path = checkpoint_path(tmp_path, "env1-CR", "dqn", 0, 2)
    sfr = generate_domain("SFR")
    with pytest.raises(ValueError) as refused:
        load_policy(path, ontology=sfr)
    message = str(refused.value)
    assert str(path) in message
    assert str(belief_dim(CR)) in message and str(belief_dim(sfr)) in message
    assert load_policy(path, ontology=CR).obs_dim == belief_dim(CR)


def test_run_training_builds_one_env_per_run(monkeypatch, tmp_path):
    from dialbench import environment

    domains = []

    def counted(code):
        domains.append(code)
        return generate_domain(code)
    monkeypatch.setattr(environment, "generate_domain", counted)
    spec = RunSpec("env1-CR", "handcrafted", seeds=(0, 1, 2),
                   train_dialogues=2, eval_points=(2,), test_dialogues=2,
                   out_dir=tmp_path)
    run_training(spec)
    assert domains == ["CR"]


# ------------------------------------------------------------- training runs


@pytest.fixture(scope="module")
def handcrafted_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    spec = RunSpec("env1-CR", "handcrafted", seeds=(0, 1), train_dialogues=10,
                   eval_points=(5, 10), test_dialogues=30, out_dir=out)
    return spec, run_training(spec)


def test_training_writes_artifacts(handcrafted_run):
    spec, _ = handcrafted_run
    assert curve_csv_path(spec.out_dir, spec.task_id, spec.algorithm).exists()
    assert summary_json_path(spec.out_dir, spec.task_id,
                             spec.algorithm).exists()
    for seed in spec.seeds:
        for point in spec.eval_points:
            assert checkpoint_path(spec.out_dir, spec.task_id, spec.algorithm,
                                   seed, point).exists()


def test_curve_csv_schema(handcrafted_run):
    spec, _ = handcrafted_run
    lines = curve_csv_path(spec.out_dir, spec.task_id,
                           spec.algorithm).read_text().splitlines()
    assert lines[0] == ("dialogue_index,success_seed0,reward_seed0,"
                        "success_seed1,reward_seed1,"
                        "success_mean,success_std,reward_mean,reward_std")
    assert len(lines) == 1 + len(spec.eval_points)
    indices = []
    for line in lines[1:]:
        cells = line.split(",")
        indices.append(int(cells[0]))
        for cell in cells[1:]:
            assert len(cell.split(".")[-1]) == 4  # %.4f everywhere
    assert indices == sorted(indices)


def test_summary_json_matches_curve(handcrafted_run):
    spec, summary = handcrafted_run
    payload = json.loads(summary_json_path(spec.out_dir, spec.task_id,
                                           spec.algorithm).read_text())
    # the record run_training returns is the one eval loads back
    assert payload == summary
    assert payload["task"] == "env1-CR"
    assert payload["algorithm"] == "handcrafted"
    assert payload["seeds"] == [0, 1]
    assert [p["eval_point"] for p in payload["points"]] == [5, 10]
    lines = curve_csv_path(spec.out_dir, spec.task_id,
                           spec.algorithm).read_text().splitlines()
    for entry, line in zip(payload["points"], lines[1:]):
        assert line.split(",")[-4:] == [f"{entry[stat]:.4f}"
                                        for stat in STATS]
        per_seed = entry["per_seed"]
        assert set(per_seed) == {"0", "1"}
        recomputed = np.mean([per_seed[s]["success"] for s in ("0", "1")])
        assert abs(recomputed - entry["success_mean"]) < 1e-12


def test_handcrafted_curve_is_flat(handcrafted_run):
    # a stateless policy shows no learning trend, only sampling noise
    _, summary = handcrafted_run
    first, second = summary["points"]
    assert abs(first["success_mean"] - second["success_mean"]) < 0.25
    assert abs(first["reward_mean"] - second["reward_mean"]) < 6.0


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        spec = RunSpec("env1-CR", "gpsarsa", seeds=(0,), train_dialogues=4,
                       eval_points=(2, 4), test_dialogues=5, out_dir=out)
        run_training(spec)
        outs.append(spec)
    curves = [curve_csv_path(s.out_dir, s.task_id, s.algorithm)
              for s in outs]
    assert curves[0].read_bytes() == curves[1].read_bytes()
    summaries = [summary_json_path(s.out_dir, s.task_id, s.algorithm)
                 for s in outs]
    assert summaries[0].read_bytes() == summaries[1].read_bytes()
    cp = [checkpoint_path(s.out_dir, s.task_id, s.algorithm, 0, 4)
          for s in outs]
    assert cp[0].read_bytes() == cp[1].read_bytes()


def test_training_skips_loop_for_fixed_policies(handcrafted_run):
    # both checkpoints of a stateless policy hold the same bytes
    spec, _ = handcrafted_run
    a = checkpoint_path(spec.out_dir, spec.task_id, spec.algorithm, 0, 5)
    b = checkpoint_path(spec.out_dir, spec.task_id, spec.algorithm, 0, 10)
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------- tables


def make_cells(algorithms, tasks, rewards):
    cells = {}
    for t in tasks:
        for a in algorithms:
            r = rewards[(t, a)]
            cells[(t, a)] = summary_point(
                100, {0: (min(max(r / 20 + 0.5, 0), 1), r)})
    return cells


def test_benchmark_table_layout(tmp_path):
    algorithms = ["handcrafted", "gpsarsa", "dqn"]
    tasks = ["env1-CR", "env3-CR", "env1-SFR"]
    rewards = {
        ("env1-CR", "handcrafted"): 14.0, ("env1-CR", "gpsarsa"): 12.0,
        ("env1-CR", "dqn"): 9.0,
        ("env3-CR", "handcrafted"): 11.0, ("env3-CR", "gpsarsa"): 8.0,
        ("env3-CR", "dqn"): 10.0,
        ("env1-SFR", "handcrafted"): 9.0, ("env1-SFR", "gpsarsa"): 7.0,
        ("env1-SFR", "dqn"): 7.0,
    }
    cells = make_cells(algorithms, tasks, rewards)
    csv_path = write_benchmark_table(cells, algorithms, tasks, tmp_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("task,handcrafted_success,handcrafted_reward,"
                        "gpsarsa_success,gpsarsa_reward,dqn_success,dqn_reward,"
                        "best_data_driven")
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["env1-CR", "env3-CR", "env1-SFR",
                      "Mean-CR", "Mean-SFR", "Mean-ALL"]
    by_label = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    # the handcrafted baseline never wins the data-driven flag
    assert by_label["env1-CR"][-1] == "gpsarsa"
    assert by_label["env3-CR"][-1] == "dqn"
    # ties resolve to the first algorithm in column order
    assert by_label["env1-SFR"][-1] == "gpsarsa"
    # with no data-driven algorithm the flag column stays empty
    only = {(t, "handcrafted"): cells[(t, "handcrafted")] for t in tasks}
    lines = write_benchmark_table(only, ["handcrafted"], tasks,
                                  tmp_path / "handcrafted"
                                  ).read_text().splitlines()
    assert lines[0] == ("task,handcrafted_success,handcrafted_reward,"
                        "best_data_driven")
    assert all(line.endswith(",") for line in lines[1:])


def test_benchmark_mean_rows_recompute(tmp_path):
    algorithms = ["gpsarsa", "dqn"]
    tasks = ["env1-CR", "env3-CR", "env6-CR"]
    rng = np.random.default_rng(0)
    rewards = {(t, a): float(rng.uniform(-5, 15))
               for t in tasks for a in algorithms}
    cells = make_cells(algorithms, tasks, rewards)
    write_benchmark_table(cells, algorithms, tasks, tmp_path)
    payload = json.loads((tmp_path / "benchmark.json").read_text())
    rows = {r["task"]: r for r in payload["rows"]}
    for a in algorithms:
        expected = np.mean([rows[t]["reward"][a] for t in tasks])
        assert abs(rows["Mean-CR"]["reward"][a] - expected) < 1e-9
        assert abs(rows["Mean-ALL"]["reward"][a] - expected) < 1e-9
        expected_s = np.mean([rows[t]["success"][a] for t in tasks])
        assert abs(rows["Mean-ALL"]["success"][a] - expected_s) < 1e-9


def test_run_benchmark_end_to_end(tmp_path):
    csv_path = run_benchmark(["handcrafted"], ["env1-CR"], seeds=(0,),
                             dialogues=2, test_dialogues=3, out_dir=tmp_path)
    lines = csv_path.read_text().splitlines()
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["env1-CR", "Mean-CR", "Mean-ALL"]
    # no data-driven algorithm in the run: the flag column stays empty
    assert all(line.endswith(",") for line in lines[1:])
    assert (tmp_path / "benchmark.json").exists()


# SHA-256 of the results table of a 2-task x 2-policy grid, its three
# seeds given out of order: over three seeds the bits of a mean depend on
# the order of its terms, and benchmark.json shows them.  Recorded with
# numpy 2.4 and its bundled OpenBLAS 0.3.31 on an x86-64 Xeon.
PINNED_TABLE = {
    "benchmark.csv":
        "37bdbdf519d85479322a724f3d1ee5613ec087191f6069a2fec6301dd0489adf",
    "benchmark.json":
        "9555b0b3a4644715e04511a45ff8b6e2ce0c7d7b8a3f01b5bcf05716a130743f",
}


def test_benchmark_table_bytes_are_pinned(tmp_path):
    """Any change to the runs of a cell, to the seed order of its means or
    to how the table renders them changes these bytes."""
    run_benchmark(["handcrafted", "gpsarsa"], ["env1-CR", "env2-SFR"],
                  seeds=(2, 0, 1), dialogues=4, test_dialogues=3,
                  out_dir=tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_TABLE} == PINNED_TABLE


# ------------------------------------------------------------- cross-task


@pytest.fixture(scope="module")
def cross_checkpoints(tmp_path_factory):
    out = tmp_path_factory.mktemp("cross-runs")
    for env_index in (1, 3, 6):
        spec = RunSpec(f"env{env_index}-CR", "handcrafted", seeds=(0,),
                       train_dialogues=2, eval_points=(2,), test_dialogues=3,
                       out_dir=out)
        run_training(spec)
    return out


def test_evaluate_checkpoint_same_task(cross_checkpoints):
    report = evaluate_checkpoint(cross_checkpoints, "env1-CR", "handcrafted",
                                 seeds=(0,), test_dialogues=4)
    assert report["trained_on"] == "env1-CR"
    assert report["evaluated_on"] == "env1-CR"
    assert 0.0 <= report["success_mean"] <= 1.0
    assert "0" in report["per_seed"]


def test_evaluate_checkpoint_cross_env(cross_checkpoints):
    report = evaluate_checkpoint(cross_checkpoints, "env1-CR", "handcrafted",
                                 seeds=(0,), test_dialogues=4,
                                 eval_task_id="env3-CR")
    assert report["evaluated_on"] == "env3-CR"


def test_evaluate_checkpoint_rejects_cross_domain(cross_checkpoints):
    with pytest.raises(ValueError, match="one domain"):
        evaluate_checkpoint(cross_checkpoints, "env1-CR", "handcrafted",
                            seeds=(0,), test_dialogues=4,
                            eval_task_id="env1-SFR")


def test_evaluate_checkpoint_missing_artifact(tmp_path):
    with pytest.raises(MissingArtifact):
        evaluate_checkpoint(tmp_path, "env1-CR", "dqn", seeds=(0,),
                            test_dialogues=4)


def test_cross_task_matrix(cross_checkpoints):
    csv_path = run_cross_task(cross_checkpoints, ["handcrafted"], ["CR"],
                              seeds=(0,), test_dialogues=3)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("domain,algorithm,train_env,"
                        "eval_env1,eval_env3,eval_env6")
    assert len(lines) == 4
    # diagonal blank, off-diagonal populated
    for row, env_index in zip(lines[1:], (1, 3, 6)):
        cells = row.split(",")
        assert cells[2] == str(env_index)
        assert [cell == "" for cell in cells[3:]] == [
            j == env_index for j in (1, 3, 6)]
    payload = json.loads((cross_checkpoints / "cross.json").read_text())
    assert payload["rows"][0]["rewards"]["1"] is None
    assert payload["rows"][0]["rewards"]["3"] is not None


@pytest.fixture(scope="module")
def cross_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("cross-grid")
    for algorithm in ("handcrafted", "gpsarsa"):
        for env_index in (1, 3, 6):
            run_training(RunSpec(f"env{env_index}-CR", algorithm,
                                 seeds=(0, 1, 2), train_dialogues=4,
                                 eval_points=(4,), test_dialogues=3,
                                 out_dir=out))
    return out


# SHA-256 of the cross matrix of a handcrafted and a GP-SARSA run on each
# of env1, env3 and env6 of CR, three seeds each, in ascending order.
# Recorded with numpy 2.4 and its bundled OpenBLAS 0.3.31 on an x86-64 Xeon.
PINNED_CROSS = {
    "cross.csv":
        "d72311ca2999c8723b46638c17be734ca88e5c1f286e56044f8788059294a86a",
    "cross.json":
        "c406843dc3b36386498c5d0c4c24eac8ccff6678e4048eb92e59d84538e61e2e",
}


def test_cross_bytes_are_pinned(cross_grid):
    """Any change to the reloaded policies, their test streams, the seed
    order of the means or how the matrix renders them changes these bytes."""
    run_cross_task(cross_grid, ["handcrafted", "gpsarsa"], ["CR"],
                   seeds=(0, 1, 2), test_dialogues=3)
    assert {name: hashlib.sha256((cross_grid / name).read_bytes()).hexdigest()
            for name in PINNED_CROSS} == PINNED_CROSS


def test_cross_does_not_depend_on_seed_order(cross_grid):
    matrices = []
    for seeds in ((2, 0, 1), (0, 1, 2)):
        run_cross_task(cross_grid, ["handcrafted", "gpsarsa"], ["CR"],
                       seeds=seeds, test_dialogues=3)
        matrices.append((cross_grid / "cross.json").read_bytes())
    assert matrices[0] == matrices[1]


def test_cross_reloads_each_run_once(monkeypatch, cross_grid):
    from dialbench import environment, harness

    loads, domains = [], []

    def counted_load(path, ontology=None):
        loads.append(path.name)
        return load_policy(path, ontology=ontology)

    def counted_domain(code):
        domains.append(code)
        return generate_domain(code)
    monkeypatch.setattr(harness, "load_policy", counted_load)
    monkeypatch.setattr(environment, "generate_domain", counted_domain)
    run_cross_task(cross_grid, ["handcrafted"], ["CR"], seeds=(0, 1),
                   test_dialogues=2)
    # three runs of two seeds; each env of the domain is built once
    assert sorted(loads) == ["seed0-d4.npz"] * 3 + ["seed1-d4.npz"] * 3
    assert domains == ["CR"] * 3


def test_cross_task_missing_checkpoint(tmp_path):
    with pytest.raises(MissingArtifact):
        run_cross_task(tmp_path, ["dqn"], ["CR"], seeds=(0,),
                       test_dialogues=3)


def test_cross_task_unknown_domain(cross_checkpoints):
    with pytest.raises(ValueError, match="unknown domain"):
        run_cross_task(cross_checkpoints, ["handcrafted"], ["XX"], seeds=(0,),
                       test_dialogues=3)
