"""Command-line interface: verbs, flag plumbing, exit codes."""

import argparse
import json
import shutil

import pytest

from dialbench import bench_cli, harness
from dialbench.bench_cli import main
from dialbench.config import KEYS, SECTIONS
from dialbench.environment import DialogueEnv, list_tasks, make_task
from dialbench.policies import load_checkpoint, load_policy, save_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- list-tasks


def test_list_tasks(capsys):
    code, out, _ = run_cli(capsys, "list-tasks")
    assert code == 0
    assert out.splitlines() == list_tasks()


# ------------------------------------------------------------- exit codes


def test_unknown_task_exits_2(capsys):
    code, _, err = run_cli(capsys, "train", "--task", "env9-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--dialogues", "2", "--eval-at", "2",
                           "--test-dialogues", "2")
    assert code == 2
    assert "config error" in err


def test_unknown_algorithm_exits_2(capsys):
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "tabular", "--seeds", "0")
    assert code == 2
    assert "unknown algorithm" in err


def test_missing_task_exits_2(capsys):
    code, _, err = run_cli(capsys, "train", "--algo", "handcrafted")
    assert code == 2
    assert "missing --task" in err


def test_bad_seed_list_exits_2(capsys):
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0,x")
    assert code == 2


def test_eval_without_checkpoints_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--task", "env1-CR",
                           "--algo", "dqn", "--seeds", "0",
                           "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 3
    assert "missing artifact" in err


def test_cross_without_checkpoints_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cross", "--algo", "dqn", "--domains", "CR",
                           "--seeds", "0", "--test-dialogues", "2",
                           "--out", str(tmp_path))
    assert code == 3


def test_truncated_checkpoint_exits_3(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "handcrafted", "--seeds", "0",
                         "--dialogues", "2", "--eval-at", "2",
                         "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "checkpoints/env1-CR/handcrafted/seed0-d2.npz"
    path.write_bytes(path.read_bytes()[:40])
    code, _, err = run_cli(capsys, "eval", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 3
    assert str(path) in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "handcrafted",
                           "--config", "/nonexistent.ini")
    assert code == 2


@pytest.mark.parametrize("make", [
    lambda tmp_path: tmp_path,
    lambda tmp_path: tmp_path / "run.ini",
], ids=["directory", "latin-1"])
def test_unreadable_config_file_exits_2(capsys, tmp_path, make):
    (tmp_path / "run.ini").write_bytes(b"[harness]\nout = caf\xe9\n")
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "handcrafted", "--dialogues", "1",
                           "--config", str(make(tmp_path)),
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err.startswith("config error: cannot read")
    assert not (tmp_path / "runs").exists()


def test_eval_points_above_dialogues_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--dialogues", "5", "--eval-at", "100",
                           "--out", str(tmp_path))
    assert code == 2
    assert "eval point 100 exceeds the 5 training dialogues" in err


def test_train_rejects_task_lists(capsys, tmp_path):
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR,env2-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--out", str(tmp_path))
    assert code == 2
    assert "one task" in err


def test_bad_eval_task_exits_2(capsys, tmp_path):
    for eval_task, message in (("env9-CR", "unknown task id"),
                               ("env01-CR", "unknown task id"),
                               ("env1-SFR", "domain of --task")):
        code, _, err = run_cli(capsys, "eval", "--task", "env1-CR",
                               "--algo", "handcrafted", "--seeds", "0",
                               "--eval-task", eval_task,
                               "--out", str(tmp_path))
        assert code == 2
        assert message in err


def test_unknown_cross_domain_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cross", "--algo", "handcrafted",
                           "--domains", "CR,XX", "--seeds", "0",
                           "--out", str(tmp_path))
    assert code == 2
    assert "unknown domain 'XX'" in err


def test_repeated_seeds_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "benchmark", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0,0",
                           "--dialogues", "2", "--out", str(tmp_path))
    assert code == 2
    assert "distinct" in err


def train_cr_checkpoints(capsys, out):
    for env in (1, 3, 6):
        code, _, _ = run_cli(capsys, "train", "--task", f"env{env}-CR",
                             "--algo", "handcrafted", "--seeds", "0",
                             "--dialogues", "2", "--eval-at", "2",
                             "--test-dialogues", "2", "--out", str(out))
        assert code == 0


@pytest.mark.parametrize("verb, flag, value, message", [
    ("benchmark", "--task", ",", "tasks must not be empty"),
    ("benchmark", "--algo", ",", "algorithms must not be empty"),
    ("cross", "--domains", ",", "domains must not be empty"),
    ("cross", "--domains", "", "domains must not be empty"),
    ("benchmark", "--task", "env1-CR,env1-CR,env2-CR",
     "tasks must be distinct"),
    ("benchmark", "--algo", "handcrafted,handcrafted",
     "algorithms must be distinct"),
    ("cross", "--domains", "CR,CR", "domains must be distinct"),
])
def test_empty_or_repeated_lists_exit_2(capsys, tmp_path, verb, flag, value,
                                        message):
    # an empty list gave a header-only table, a repeated entry repeated rows
    # or columns and counted twice in the means
    if verb == "cross":
        train_cr_checkpoints(capsys, tmp_path)
        argv = ["--algo", "handcrafted", "--domains", "CR"]
    else:
        argv = ["--task", "env1-CR", "--algo", "handcrafted",
                "--dialogues", "2"]
    argv[argv.index(flag) + 1] = value
    code, _, err = run_cli(capsys, verb, *argv, "--seeds", "0",
                           "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 2
    assert message in err
    assert not (tmp_path / "benchmark.csv").exists()
    assert not (tmp_path / "cross.csv").exists()


@pytest.mark.parametrize("key, text", [
    ("seeds", "0,x"),
    ("dialogues", "1.5"),
    ("dialogues", "yes"),
    ("eval_at", "1,x"),
    ("test_dialogues", "abc"),
])
def test_harness_key_refused_alike_from_flag_and_file(capsys, tmp_path, key,
                                                      text):
    # (`out` takes any text as a directory name, so it has no refusal)
    argv = ["train", "--task", "env1-CR", "--algo", "handcrafted",
            "--out", str(tmp_path)]
    code, _, from_flag = run_cli(capsys, *argv,
                                 f"--{key.replace('_', '-')}", text)
    assert code == 2
    ini = tmp_path / "run.ini"
    ini.write_text(f"[harness]\n{key} = {text}\n")
    code, _, from_file = run_cli(capsys, *argv, "--config", str(ini))
    assert code == 2
    assert from_flag == from_file
    assert from_flag.startswith(f"config error: {key} must be ")
    assert not (tmp_path / "checkpoints").exists()


@pytest.mark.parametrize("algo, setting", [
    ("dqn", "[policy]\nanneal_dialogues = 0\n"),
    ("a2c", "[policy]\nanneal_dialogues = 0\n"),
    ("dqn", "[policy]\ntarget_sync_dialogues = 0\n"),
    ("gpsarsa", "[policy]\nrefresh_every = 0\n"),
    ("dqn", "[policy]\nbuffer_size = 0\ntrain_after = 0\n"),
    ("a2c", "[policy]\nwindow = 0\n"),
    ("handcrafted", "[errormodel]\ntail_decay = -1\n"),
    ("handcrafted", "[errormodel]\nresidual_floor = -0.5\n"),
    ("handcrafted", "[errormodel]\nresidual_spread = -0.5\n"),
    ("handcrafted", "[errormodel]\nconf_tail_a = 0\n"),
    ("handcrafted", "[errormodel]\nconf_correct_b = 0\n"),
    ("dqn", "[policy]\nminibatch = 0\n"),
    ("handcrafted", "[errormodel]\np_confuse_acttype = nan\n"),
    ("handcrafted", "[errormodel]\np_null_top = inf\n"),
    ("handcrafted", "[errormodel]\nconf_correct_a = nan\n"),
    ("dqn", "[policy]\nlr = nan\n"),
    ("dqn", "[policy]\ngamma = nan\n"),
    ("dqn", "[policy]\nhidden1 = 0\n"),
    ("a2c", "[policy]\nhidden2 = 0\n"),
    ("enac", "[policy]\nhidden1 = -1\n"),
    ("enac", "[policy]\nbatch_episodes = 0\n"),
    ("gpsarsa", "[policy]\nsigma2 = -1.0\n"),
    ("gpsarsa", "[policy]\nmax_points = 0\n"),
    ("dqn", "[policy]\ngamma = -2.0\n"),
    ("dqn", "[policy]\neps0 = 1.5\n"),
    ("dqn", "[policy]\neps_final = -0.1\n"),
    ("dqn", "[policy]\nlr = -0.1\n"),
    ("gpsarsa", "[policy]\ngamma = 5.0\n"),
    ("gpsarsa", "[policy]\njitter = -1.0\n"),
    ("gpsarsa", "[policy]\njitter = 0\n"),
    ("gpsarsa", "[policy]\nscale = -1.0\n"),
    ("enac", "[policy]\ngamma = 1.5\n"),
    ("enac", "[policy]\nstep_size = -0.1\n"),
    ("enac", "[policy]\nridge = -1.0\n"),
    ("a2c", "[policy]\nlr = -0.1\n"),
    ("a2c", "[policy]\niw_clip = -1.0\n"),
    ("a2c", "[policy]\niw_clip = 0\n"),
    ("a2c", "[policy]\nentropy_beta = -0.01\n"),
    ("a2c", "[policy]\nupdate_episodes = 0\n"),
    ("a2c", "[policy]\nupdate_episodes = -3\n"),
    ("dqn", "[policy]\ntrain_after = -5\n"),
    ("dqn", "[policy]\ntrain_steps_per_turn = -1\n"),
    ("gpsarsa", "[policy]\nnu = -1.0\n"),
    ("handcrafted", "[errormodel]\np_null_top = 1.5\n"),
    ("handcrafted", "[errormodel]\nw_conf_inform = -0.5\n"),
    ("handcrafted", "[errormodel]\np_confuse_acttype = 1.1\n"
                    "p_confuse_slot = -0.5\n"),
    ("handcrafted", "[errormodel]\ntrue_pos_decay = 1.5\n"),
])
def test_out_of_range_setting_exits_2_before_any_dialogue(
        capsys, tmp_path, monkeypatch, algo, setting):
    # each of these used to fail inside a dialogue, with a traceback
    def no_dialogue(*args, **kwargs):
        raise AssertionError("a dialogue ran")
    monkeypatch.setattr(harness, "run_episode", no_dialogue)
    ini = tmp_path / "run.ini"
    ini.write_text(setting)
    key = setting.splitlines()[1].split()[0]
    code, _, err = run_cli(capsys, "train", "--task", "env3-CR",
                           "--algo", algo, "--seeds", "0",
                           "--dialogues", "4", "--test-dialogues", "2",
                           "--config", str(ini), "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err and key in err
    assert not (tmp_path / "checkpoints").exists()


def test_every_verb_declares_what_it_reads():
    parser = bench_cli.build_parser()
    verbs = next(action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert set(bench_cli.READS) == set(verbs) - {"list-tasks"}
    for verb, reads in bench_cli.READS.items():
        assert set(reads) <= set(SECTIONS)
        for section, keys in reads.items():
            if keys is not bench_cli.ALL and KEYS[section] is not None:
                assert set(keys) <= set(KEYS[section])
        # each [harness] key a verb reads can also come from its flag
        flags = {action.dest for action in verbs[verb]._actions}
        assert set(reads["harness"]) <= flags


@pytest.mark.parametrize("source,seed", [("flag", -1), ("config", -1),
                                         ("flag", 1 << 128)])
def test_out_of_range_seed_exits_2(capsys, tmp_path, source, seed):
    argv = ["train", "--task", "env1-CR", "--algo", "handcrafted",
            "--dialogues", "0", "--test-dialogues", "1",
            "--out", str(tmp_path)]
    if source == "flag":
        argv += ["--seeds", str(seed)]
    else:
        ini = tmp_path / "run.ini"
        ini.write_text(f"[harness]\nseeds = 0, {seed}\n")
        argv += ["--config", str(ini)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"seeds must lie in 0 .. 2**128 - 1, got {seed}" in err


@pytest.mark.parametrize("verb", ["train", "benchmark"])
def test_negative_dialogues_exit_2(capsys, tmp_path, verb):
    code, _, err = run_cli(capsys, verb, "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--dialogues", "-1", "--test-dialogues", "1",
                           "--out", str(tmp_path))
    assert code == 2
    assert "training dialogues must not be negative, got -1" in err


def test_zero_test_dialogues_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--dialogues", "2", "--eval-at", "2",
                           "--test-dialogues", "0", "--out", str(tmp_path))
    assert code == 2
    assert "at least 1" in err


def test_checkpoint_of_another_domain_exits_3(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR", "--algo", "dqn",
                         "--seeds", "0", "--dialogues", "2", "--eval-at", "2",
                         "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 0
    checkpoints = tmp_path / "checkpoints"
    (checkpoints / "env1-CR").rename(checkpoints / "env1-SFR")
    summaries = tmp_path / "summaries"
    (summaries / "env1-CR-dqn.json").rename(summaries / "env1-SFR-dqn.json")
    code, _, err = run_cli(capsys, "eval", "--task", "env1-SFR",
                           "--algo", "dqn", "--seeds", "0",
                           "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 3
    assert "width" in err


def train_dqn(out, seeds, dialogues, *extra):
    assert main(["train", "--task", "env1-CR", "--algo", "dqn",
                 "--seeds", seeds, "--dialogues", dialogues,
                 "--test-dialogues", "2", "--out", str(out), *extra]) == 0


@pytest.fixture(scope="module")
def dqn_run(tmp_path_factory):
    """The output folder of an env1-CR DQN run: seed 0, 2 dialogues."""
    out = tmp_path_factory.mktemp("dqn")
    train_dqn(out, "0", "2")
    return out


def _without(entries: dict, key: str) -> dict:
    return {k: v for k, v in entries.items() if k != key}


def _with_config(header: dict, **changes) -> dict:
    return {**header, "config": {**header["config"], **changes}}


@pytest.mark.parametrize("malform, message", [
    (lambda algo, header, arrays: ("tabular", header, arrays),
     "unknown algorithm 'tabular'"),
    (lambda algo, header, arrays: (algo, _with_config(header, momentum=0.9),
                                   arrays),
     "momentum"),
    (lambda algo, header, arrays: (algo, _with_config(header, minibatch=0),
                                   arrays),
     "minibatch must be at least 1"),
    (lambda algo, header, arrays: (algo, header, _without(arrays, "w2")),
     "KeyError: 'w2'"),
    (lambda algo, header, arrays: (algo, header,
                                   {**arrays, "w3": arrays["w3"][:, 1:]}),
     "w3 has shape"),
    (lambda algo, header, arrays: (algo, _without(header, "config"), arrays),
     "KeyError: 'config'"),
], ids=["unknown-algorithm", "unknown-config-key", "config-out-of-range",
        "missing-array", "w3-of-another-width", "header-lacks-config"])
def test_checkpoint_that_does_not_rebuild_exits_3(capsys, tmp_path, dqn_run,
                                                  malform, message):
    # a file that does not rebuild its policy is a bad artifact, not an
    # internal fault with a traceback
    shutil.copytree(dqn_run / "summaries", tmp_path / "summaries")
    name = "checkpoints/env1-CR/dqn/seed0-d2.npz"
    path = tmp_path / name
    path.parent.mkdir(parents=True)
    save_checkpoint(path, *malform(*load_checkpoint(dqn_run / name)))
    code, _, err = run_cli(capsys, "eval", "--task", "env1-CR",
                           "--algo", "dqn", "--seeds", "0",
                           "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 3
    assert str(path) in err and message in err


def test_internal_fault_is_not_a_config_error(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")
    monkeypatch.setattr(bench_cli, "run_training", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["train", "--task", "env1-CR", "--algo", "handcrafted",
              "--seeds", "0", "--dialogues", "2", "--eval-at", "2",
              "--out", str(tmp_path)])


# ------------------------------------------------------------- train


def test_train_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0,1",
                           "--dialogues", "4", "--eval-at", "2,4",
                           "--test-dialogues", "5", "--out", str(tmp_path))
    assert code == 0
    assert "env1-CR handcrafted @2:" in out
    assert "env1-CR handcrafted @4:" in out
    assert (tmp_path / "curves" / "env1-CR-handcrafted.csv").exists()
    assert (tmp_path / "checkpoints/env1-CR/handcrafted/seed1-d4.npz").exists()


def test_train_then_eval_round_trip(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "handcrafted", "--seeds", "0",
                         "--dialogues", "2", "--eval-at", "2",
                         "--test-dialogues", "3", "--out", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--test-dialogues", "3", "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["trained_on"] == "env1-CR"
    assert report["evaluated_on"] == "env1-CR"
    assert 0.0 <= report["success_mean"] <= 1.0


@pytest.fixture(scope="module")
def retrained(tmp_path_factory):
    """A DQN run (seeds 0 and 1, 4 dialogues, default widths), then a
    second run in the same folder (seed 0, 2 dialogues, hidden1 = 8)."""
    out = tmp_path_factory.mktemp("retrained")
    train_dqn(out, "0,1", "4")
    ini = out / "narrow.ini"
    ini.write_text("[policy]\nhidden1 = 8\n")
    train_dqn(out, "0", "2", "--config", str(ini))
    return out


def test_eval_loads_the_checkpoint_the_summary_names(capsys, retrained):
    # seed0-d4.npz of the first run is the higher-numbered file, but the
    # summary records the second run, which ended at 2 dialogues
    code, out, _ = run_cli(capsys, "eval", "--task", "env1-CR", "--algo", "dqn",
                           "--seeds", "0", "--test-dialogues", "20",
                           "--out", str(retrained))
    assert code == 0
    policy = load_policy(retrained / "checkpoints/env1-CR/dqn/seed0-d2.npz")
    assert policy.config.hidden1 == 8
    success, reward = harness.evaluate(DialogueEnv(make_task("env1-CR")),
                                       policy, 0, 0, 20)
    assert json.loads(out)["per_seed"]["0"] == {"success": success,
                                                "reward": reward}


def test_eval_report_does_not_depend_on_seed_order(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "handcrafted", "--seeds", "0,1,2,3",
                         "--dialogues", "1", "--out", str(tmp_path))
    assert code == 0
    reports = []
    for seeds in ("0,1,2,3", "3,1,0,2", "2,3,1,0"):
        code, out, _ = run_cli(capsys, "eval", "--task", "env1-CR",
                               "--algo", "handcrafted", "--seeds", seeds,
                               "--test-dialogues", "7", "--out", str(tmp_path))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1] == reports[2]


def test_eval_of_a_seed_the_run_did_not_train_exits_3(capsys, retrained):
    code, _, err = run_cli(capsys, "eval", "--task", "env1-CR", "--algo", "dqn",
                           "--seeds", "0,1", "--test-dialogues", "2",
                           "--out", str(retrained))
    assert code == 3
    assert "env1-CR-dqn.json" in err and "[0]" in err


def test_eval_after_a_failed_run_exits_3(capsys, tmp_path, monkeypatch):
    train_dqn(tmp_path, "0,1", "2")
    run_episode = harness.run_episode
    calls = []

    def fails_on_seed_1(env, policy, rng, dialogue_index, training):
        # seed 0 makes 2 training and 2 test dialogues, then saves its
        # last checkpoint; seed 1's first dialogue fails
        calls.append(training)
        if len(calls) > 4:
            raise RuntimeError("killed")
        return run_episode(env, policy, rng, dialogue_index, training)

    monkeypatch.setattr(harness, "run_episode", fails_on_seed_1)
    spec = harness.RunSpec("env1-CR", "dqn", seeds=(0, 1), train_dialogues=2,
                           eval_points=(2,), test_dialogues=2,
                           out_dir=tmp_path)
    with pytest.raises(RuntimeError, match="killed"):
        harness.run_training(spec, policy_overrides={"hidden1": 8})
    monkeypatch.undo()
    assert load_policy(tmp_path / "checkpoints/env1-CR/dqn/seed0-d2.npz"
                       ).config.hidden1 == 8
    # seed 0's checkpoint is of the failed run, seed 1's of the first one
    code, _, err = run_cli(capsys, "eval", "--task", "env1-CR", "--algo", "dqn",
                           "--seeds", "0,1", "--test-dialogues", "2",
                           "--out", str(tmp_path))
    assert code == 3
    assert "env1-CR-dqn.json" in err


@pytest.mark.parametrize("damage, fault", [
    (lambda text: text[:30], "(char 30)"),
    (lambda text: '{"seeds": [0]}', "lacks train_dialogues"),
    (lambda text: '{"seeds": 0, "train_dialogues": 2}',
     "seeds is 0, not a list of integers"),
    (lambda text: '{"seeds": [0], "train_dialogues": 2, '
                  '"env_overrides": {"simuser": "x"}}',
     "not a table of sections"),
    (lambda text: '{"seeds": [0], "train_dialogues": 2, '
                  '"env_overrides": {"errormodel": {"p_null_top": 2.0}}}',
     "env_overrides bad [errormodel] override"),
], ids=["cut", "no-train-dialogues", "seeds-not-a-list",
        "overrides-not-sections", "override-out-of-range"])
def test_eval_of_a_damaged_summary_exits_3(capsys, tmp_path, damage, fault):
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "handcrafted", "--seeds", "0",
                         "--dialogues", "2", "--eval-at", "2",
                         "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 0
    summary = harness.summary_json_path(tmp_path, "env1-CR", "handcrafted")
    summary.write_text(damage(summary.read_text()))
    code, _, err = run_cli(capsys, "eval", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 3
    assert str(summary) in err and fault in err
    assert "Traceback" not in err


def test_config_file_supplies_settings(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(f"""
[task]
name = env1-CR

[policy]
algorithm = handcrafted

[harness]
seeds = 0
dialogues = 2
eval_at = 2
test_dialogues = 3
out = {tmp_path / "runs"}
""")
    code, out, _ = run_cli(capsys, "train", "--config", str(ini))
    assert code == 0
    assert (tmp_path / "runs" / "curves" / "env1-CR-handcrafted.csv").exists()


def test_flags_override_config(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("""
[task]
name = env1-CR

[policy]
algorithm = handcrafted

[harness]
seeds = 7
dialogues = 2
eval_at = 2
test_dialogues = 3
""")
    out_dir = tmp_path / "flagged"
    code, _, _ = run_cli(capsys, "train", "--config", str(ini),
                         "--seeds", "3", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "checkpoints/env1-CR/handcrafted/seed3-d2.npz").exists()
    assert not (out_dir / "checkpoints/env1-CR/handcrafted/seed7-d2.npz").exists()


def test_config_profile_and_errormodel_applied(capsys, tmp_path):
    # overriding the error model changes evaluation results on env1
    def run(with_noise):
        out = tmp_path / ("noisy" if with_noise else "clean")
        argv = ["train", "--task", "env1-CR", "--algo", "handcrafted",
                "--seeds", "0", "--dialogues", "2", "--eval-at", "2",
                "--test-dialogues", "40", "--out", str(out)]
        if with_noise:
            ini = tmp_path / "noise.ini"
            ini.write_text("[errormodel]\npreset = noisy30\n")
            argv += ["--config", str(ini)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        return (out / "curves" / "env1-CR-handcrafted.csv").read_text()

    assert run(False) != run(True)


@pytest.mark.parametrize("overrides", [
    {"errormodel": {"p_empty_nbest": 1.0}},
    {"errormodel": {"p_empty_nbest": 1.0}, "simuser": {"profile": "unfriendly"}},
], ids=["errormodel", "errormodel-and-simuser"])
def test_eval_applies_the_env_overrides_the_run_was_trained_with(
        capsys, tmp_path, overrides):
    # the summary records the [errormodel] and [simuser] sections, and eval
    # tests the reloaded run under them: on the preset env6-CR it read
    # 0.720 against the summary's 0.665 and 0.475
    ini = tmp_path / "run.ini"
    ini.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in overrides.items()))
    run = ("--task", "env6-CR", "--algo", "handcrafted", "--seeds", "0,1",
           "--test-dialogues", "100", "--out", str(tmp_path))
    code, _, _ = run_cli(capsys, "train", *run, "--dialogues", "0",
                         "--config", str(ini))
    assert code == 0
    summary = json.loads(
        (tmp_path / "summaries/env6-CR-handcrafted.json").read_text())
    assert summary["env_overrides"] == overrides
    code, out, _ = run_cli(capsys, "eval", *run)
    assert code == 0
    report, point = json.loads(out), summary["points"][-1]
    assert [report[k] for k in ("per_seed", "success_mean", "reward_mean")] \
        == [point[k] for k in ("per_seed", "success_mean", "reward_mean")]


def test_errormodel_ser_is_refused(capsys, tmp_path):
    # the task fixes the error rate; the env would silently replace it
    ini = tmp_path / "ser.ini"
    ini.write_text("[errormodel]\nser = 0.45\n")
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--dialogues", "2", "--eval-at", "2",
                           "--test-dialogues", "2",
                           "--config", str(ini), "--out", str(tmp_path))
    assert code == 2
    assert "ser" in err and "env1-CR" in err and "fixed rate 0.0" in err
    assert not (tmp_path / "checkpoints").exists()


@pytest.mark.parametrize("verb, section", [
    ("benchmark", "[errormodel]\npreset = noisy30\n"),
    ("benchmark", "[simuser]\nprofile = unfriendly\n"),
    ("eval", "[errormodel]\npreset = noisy30\n"),
    ("eval", "[simuser]\nprofile = unfriendly\n"),
    ("eval", "[policy]\nalgorithm = handcrafted\nhidden1 = 16\n"),
    ("cross", "[errormodel]\npreset = noisy30\n"),
    ("cross", "[simuser]\nprofile = unfriendly\n"),
    ("cross", "[policy]\nentity_threshold = 2\n"),
])
def test_verbs_refuse_sections_they_ignore(capsys, tmp_path, verb, section):
    for env in (1, 3, 6):
        code, _, _ = run_cli(capsys, "train", "--task", f"env{env}-CR",
                             "--algo", "handcrafted", "--seeds", "0",
                             "--dialogues", "2", "--eval-at", "2",
                             "--test-dialogues", "2", "--out", str(tmp_path))
        assert code == 0
    ini = tmp_path / "run.ini"
    ini.write_text(section)
    argv = {"benchmark": ["--task", "env1-CR", "--dialogues", "2"],
            "eval": ["--task", "env1-CR"],
            "cross": ["--domains", "CR"]}[verb]
    code, _, err = run_cli(capsys, verb, *argv, "--algo", "handcrafted",
                           "--seeds", "0", "--test-dialogues", "2",
                           "--config", str(ini), "--out", str(tmp_path))
    assert code == 2
    assert f"{verb} " in err and "config error" in err
    assert not (tmp_path / "benchmark.csv").exists()


@pytest.mark.parametrize("verb, setting, named", [
    ("benchmark", "[harness]\neval_at = 1,2\n", "[harness] eval_at"),
    ("eval", "[harness]\ndialogues = 5\n", "[harness] dialogues"),
    ("eval", "[harness]\neval_at = 2\n", "[harness] eval_at"),
    ("cross", "[harness]\ndialogues = 5\n", "[harness] dialogues"),
    ("cross", "[harness]\neval_at = 2\n", "[harness] eval_at"),
    ("cross", "[task]\nname = env1-CR\n", "[task]"),
])
def test_verbs_refuse_settings_they_ignore(capsys, tmp_path, verb, setting,
                                           named):
    ini = tmp_path / "run.ini"
    ini.write_text(setting)
    argv = {"benchmark": ["--task", "env1-CR", "--dialogues", "2"],
            "eval": ["--task", "env1-CR"],
            "cross": ["--domains", "CR"]}[verb]
    code, _, err = run_cli(capsys, verb, *argv, "--algo", "handcrafted",
                           "--seeds", "0", "--test-dialogues", "2",
                           "--config", str(ini), "--out", str(tmp_path))
    assert code == 2
    assert f"{verb} does not read {named}" in err
    assert not (tmp_path / "benchmark.csv").exists()


def test_cross_takes_no_task_flag(capsys, tmp_path):
    # cross tests every task of each --domains domain
    with pytest.raises(SystemExit) as exc:
        main(["cross", "--task", "env9-XX", "--algo", "handcrafted",
              "--domains", "CR", "--seeds", "0", "--test-dialogues", "1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--task" in capsys.readouterr().err
    assert not (tmp_path / "cross.csv").exists()


def test_numeric_out_is_a_directory_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "out.ini"
    ini.write_text("[harness]\nout = 123\n")
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "handcrafted", "--seeds", "0",
                         "--dialogues", "2", "--eval-at", "2",
                         "--test-dialogues", "1", "--config", str(ini))
    assert code == 0
    assert (tmp_path / "123/curves/env1-CR-handcrafted.csv").exists()


def test_eval_reads_the_policy_algorithm(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "handcrafted", "--seeds", "0",
                         "--dialogues", "2", "--eval-at", "2",
                         "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 0
    ini = tmp_path / "run.ini"
    ini.write_text("[policy]\nalgorithm = handcrafted\n")
    code, out, _ = run_cli(capsys, "eval", "--task", "env1-CR", "--seeds", "0",
                           "--test-dialogues", "2", "--config", str(ini),
                           "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["algorithm"] == "handcrafted"


def test_train_dialogues_is_the_last_milestone(capsys, tmp_path, monkeypatch):
    run_episode = harness.run_episode
    trained = []

    def counted(env, policy, rng, dialogue_index, training):
        trained.append(training)
        return run_episode(env, policy, rng, dialogue_index, training)

    monkeypatch.setattr(harness, "run_episode", counted)
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "gpsarsa", "--seeds", "0",
                         "--dialogues", "5", "--test-dialogues", "1",
                         "--out", str(tmp_path))
    assert code == 0
    assert trained.count(True) == 5
    summary = json.loads(
        (tmp_path / "summaries/env1-CR-gpsarsa.json").read_text())
    assert summary["train_dialogues"] == 5
    assert [p["eval_point"] for p in summary["points"]] == [5]

    # without --eval-at, the default points below N come first
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR",
                         "--algo", "handcrafted", "--seeds", "0",
                         "--dialogues", "5000", "--test-dialogues", "1",
                         "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(
        (tmp_path / "summaries/env1-CR-handcrafted.json").read_text())
    assert [p["eval_point"] for p in summary["points"]] == [1000, 4000, 5000]

    # given points must end at N
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "gpsarsa", "--seeds", "0",
                           "--dialogues", "5", "--eval-at", "1,2",
                           "--test-dialogues", "1", "--out", str(tmp_path))
    assert code == 2
    assert "eval points end at 2, before the 5 training dialogues" in err
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "gpsarsa", "--seeds", "0",
                           "--dialogues", "5", "--eval-at", "2,5,8",
                           "--test-dialogues", "1", "--out", str(tmp_path))
    assert code == 2
    assert "eval point 8 exceeds the 5 training dialogues" in err


def test_policy_overrides_survive_reload(capsys, tmp_path):
    ini = tmp_path / "dqn.ini"
    ini.write_text("[policy]\neps0 = 0.2\nhidden1 = 16\nhidden2 = 8\n")
    code, _, _ = run_cli(capsys, "train", "--task", "env1-CR", "--algo", "dqn",
                         "--seeds", "0", "--dialogues", "2", "--eval-at", "2",
                         "--test-dialogues", "2", "--config", str(ini),
                         "--out", str(tmp_path))
    assert code == 0
    policy = load_policy(tmp_path / "checkpoints/env1-CR/dqn/seed0-d2.npz")
    assert policy.config.eps0 == 0.2
    assert policy.config.hidden1 == 16


def test_unknown_policy_key_exits_2(capsys, tmp_path):
    ini = tmp_path / "typo.ini"
    ini.write_text("[policy]\nepsilon0 = 0.2\n")
    code, _, err = run_cli(capsys, "train", "--task", "env1-CR",
                           "--algo", "dqn", "--seeds", "0",
                           "--dialogues", "2", "--eval-at", "2",
                           "--config", str(ini), "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err and "'epsilon0'" in err
    assert not (tmp_path / "checkpoints").exists()
    # a key of one learner is refused when another algorithm is chosen
    ini.write_text("[policy]\nhidden1 = 16\n")
    code, _, err = run_cli(capsys, "benchmark", "--task", "env1-CR",
                           "--algo", "dqn,handcrafted", "--seeds", "0",
                           "--dialogues", "2", "--config", str(ini),
                           "--out", str(tmp_path))
    assert code == 2
    assert "not a setting of handcrafted" in err


def test_policy_value_of_the_wrong_type_exits_2(capsys, tmp_path):
    ini = tmp_path / "bad.ini"
    argv = ("train", "--task", "env1-CR", "--algo", "dqn", "--seeds", "0",
            "--dialogues", "2", "--eval-at", "2", "--test-dialogues", "2",
            "--config", str(ini), "--out", str(tmp_path))
    for bad in ("hidden1 = abc", "hidden1 = 16.5", "lr = yes"):
        ini.write_text(f"[policy]\n{bad}\n")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, bad
        key = bad.split()[0]
        kind = "int" if key == "hidden1" else "float"
        assert "config error" in err and f"'{key}'" in err and kind in err
        assert not (tmp_path / "checkpoints").exists()
    # an integer serves for a float field
    ini.write_text("[policy]\nlr = 1\nhidden1 = 4\nhidden2 = 4\n")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


def test_errormodel_value_of_the_wrong_type_exits_2(capsys, tmp_path):
    ini = tmp_path / "bad.ini"
    argv = ("train", "--task", "env3-CR", "--algo", "handcrafted",
            "--seeds", "0", "--dialogues", "2", "--eval-at", "2",
            "--test-dialogues", "2", "--config", str(ini),
            "--out", str(tmp_path))
    for bad in ("nbest_max = 2.5", "nbest_max = true", "p_drop_item = abc",
                "tail_decay = no"):
        ini.write_text(f"[errormodel]\n{bad}\n")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, bad
        key = bad.split()[0]
        kind = "int" if key == "nbest_max" else "float"
        assert "config error" in err and f"'{key}'" in err and kind in err
        assert not (tmp_path / "checkpoints").exists()
    # an integer serves for a float field
    ini.write_text("[errormodel]\nnbest_max = 3\np_drop_item = 0\n")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


# ------------------------------------------------------------- benchmark


def test_benchmark_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "benchmark", "--task", "env1-CR,env2-CR",
                           "--algo", "handcrafted", "--seeds", "0",
                           "--dialogues", "2", "--test-dialogues", "3",
                           "--out", str(tmp_path))
    assert code == 0
    table = (tmp_path / "benchmark.csv").read_text().splitlines()
    labels = [line.split(",")[0] for line in table[1:]]
    assert labels == ["env1-CR", "env2-CR", "Mean-CR", "Mean-ALL"]


# ------------------------------------------------------------- cross


def test_cross_smoke(capsys, tmp_path):
    for env in (1, 3, 6):
        code, _, _ = run_cli(capsys, "train", "--task", f"env{env}-CR",
                             "--algo", "handcrafted", "--seeds", "0",
                             "--dialogues", "2", "--eval-at", "2",
                             "--test-dialogues", "2", "--out", str(tmp_path))
        assert code == 0
    code, out, _ = run_cli(capsys, "cross", "--algo", "handcrafted",
                           "--domains", "CR", "--seeds", "0",
                           "--test-dialogues", "2", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "cross.csv").read_text().splitlines()
    assert lines[0] == "domain,algorithm,train_env,eval_env1,eval_env3,eval_env6"
    assert len(lines) == 4
