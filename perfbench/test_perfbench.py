"""Tests of the benchmark itself: patching, self time and smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import hostspeed
import run
import tracing
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def import_program() -> None:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from dialbench import bench_cli, harness  # noqa: F401


def _snapshot() -> dict:
    """Every attribute of every program module and class, by identity."""
    import_program()
    owners = []
    for module in tracing._program_modules():
        owners.append(module)
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
    return {id(o): (o, dict(vars(o))) for o in owners}


def _assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)


def test_patching_restores_every_function():
    before = _snapshot()
    from dialbench import harness, policies
    from dialbench.policies import HandcraftedPolicy

    tracer = tracing.Tracer()
    with tracing.patched(tracer.replacements()):
        assert harness.run_episode is not before[id(harness)][1]["run_episode"]
        # an inherited method is shadowed on the subclass only
        assert "end_dialogue" in vars(HandcraftedPolicy)
        assert policies.Policy.end_dialogue is \
            before[id(policies.base)][1]["Policy"].end_dialogue
    _assert_same(before, _snapshot())

    log = tracing.DialogueLog(harness.run_episode)
    with pytest.raises(RuntimeError):
        with tracing.patched(log.replacements()):
            raise RuntimeError("restored on error too")
    _assert_same(before, _snapshot())


def test_every_span_name_resolves_to_a_patch():
    import_program()
    targets = tracing.traced_targets()
    assert {name for name, _, _ in targets} == set(tracing.span_names())
    assert all(places for _, places, _ in targets)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    step = tracer.wrap("environment.DialogueEnv.step",
                       lambda: time.sleep(0.02))

    def episode():
        time.sleep(0.01)
        step()
        step()

    tracer.wrap("harness.run_episode", episode, new_dialogue=True)()
    totals = tracing.span_totals(tracer.arrays())
    calls, self_s = totals["harness.run_episode"]
    assert calls == 1 and 0.01 <= self_s < 0.02
    calls, self_s = totals["environment.DialogueEnv.step"]
    assert calls == 2 and self_s >= 0.04
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.dialogue) == [0, 0, 0]


def test_turn_rate_counts_every_dialogue():
    def one_pass(ms):
        return run.Pass(1.0, "", {}, 1, 0,
                        [(0, m, 10, True) for m in ms], 0.0, scales={0: 1.0})

    steady = one_pass([10.0] * 10)
    # one dialogue in ten carries a batch update ten times its cost
    batch = one_pass([10.0] * 9 + [100.0])
    assert run.turn_rate([steady], None) == pytest.approx(1000.0)
    assert run.turn_rate([batch], None) == pytest.approx(1e3 * 100 / 190)
    # passes are pooled: a pass of short dialogues weighs in by its turns
    short = run.Pass(1.0, "", {}, 1, 0, [(0, 10.0, 2, True)] * 10, 0.0,
                     scales={0: 1.0})
    assert run.turn_rate([steady, short], True) == \
        pytest.approx(1e3 * 120 / 200)
    assert run.turn_rate([steady], False) == 0.0


def test_turn_rate_scales_each_command_to_the_reference_speed():
    # two commands of one pass, the second run while the host was half as
    # fast: both read the same once scaled
    p = run.Pass(1.0, "", {}, 2, 0,
                 [(0, 10.0, 10, False), (1, 20.0, 10, False)], 0.0,
                 scales={0: 1.0, 1: 0.5})
    assert run.turn_rate([p], None) == pytest.approx(1000.0)
    assert run.turn_rate([p], None, scaled=False) == \
        pytest.approx(1e3 * 20 / 30)
    samples = [hostspeed.REFERENCE_S * 2] * 3
    assert hostspeed.scale(samples) == pytest.approx(0.5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    plain = run.measure(workload, 3, 1e-3, trace=False, size="smoke",
                        probes=1)
    traced = run.measure(workload, 3, 1e-3, trace=True, size="smoke")
    for outcome, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        result = outcome["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
        for spec in BENCHMARK[kind]:
            assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    # tracing draws no random numbers and changes no artifact
    assert plain["details"]["digests"][0] == traced["details"]["digests"][0]

    metrics = traced["result"]["metrics"]
    self_total = sum(v["value"] for k, v in metrics.items()
                     if k.endswith(".self_s"))
    assert 0 < self_total <= traced["details"]["traced_wall_s"]
    assert metrics["harness.run_episode.calls"]["value"] == \
        plain["details"]["dialogues_per_pass"]


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = run.main(["--workload", "rollout", "--seed", "0",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
