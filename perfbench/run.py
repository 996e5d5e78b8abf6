"""Run one workload of the dialbench benchmark and print its metrics.

    python3 perfbench/run.py --workload rollout --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program comes from its ``src/``
directory.  A run repeats passes of ``dialbench`` commands (see
``workloads.py``) until ``--seconds`` are used up.  Each command runs in a
fresh process of its own, as it does for a user of the command line, one
dialogue at a time and one command at a time.  Every pass's curve CSVs,
summary JSONs and eval reports are hashed and checked: against the
recorded reference for the reference seed, and against the earlier pass
whenever an input set comes round again.  Times in the gated metrics are
scaled to a reference host speed, read by a fixed kernel that runs in the
same processes (see ``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same inputs, checks that both write
identical artifacts, prints the per-layer metrics and keeps the spans
under ``.perfbench/``.  The last line of standard output is the result
object; the line before it holds details such as machine facts.
"""

from __future__ import annotations

import os

# One client and no extra threads: BLAS runs on the command's own thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.util import find_spec
from pathlib import Path

import numpy as np

import hostspeed
from tracing import LAYERS, join_spans, span_names, span_totals
from workloads import INPUT_SETS, WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
# setup_s: the median over groups of fresh processes, spread over the run,
# of each group's fastest probe, at the reference host speed
SETUP_GROUPS = 4
SETUP_PROBES = 3
COMMAND_TIMEOUT_S = 150


class MissingProgram(Exception):
    """The checkout holds no dialbench sources to benchmark."""


def check_program() -> None:
    if not (SRC / "dialbench" / "__init__.py").is_file():
        raise MissingProgram(f"no dialbench package under {SRC}")


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_present": find_spec("numba") is not None,
        "DIALBENCH_NUMBA": os.environ.get("DIALBENCH_NUMBA"),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def cpu_seconds() -> float:
    """CPU time of this process and of the command processes it waited
    for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _child(mode: str, record: Path, argv: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, str(record), str(SRC),
         *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen) -> str:
    """Wait for a child, killing it if it outlives its time; return the
    rest of its standard output."""
    try:
        return proc.communicate(timeout=COMMAND_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.communicate()[0]


@dataclass
class Pass:
    wall_s: float
    digest: str
    files: dict[str, str]
    commands: int
    failed_commands: int
    # per dialogue: command index, wall ms, turns, training
    dialogues: list[tuple[int, float, int, bool]]
    eval_success: float
    # per command: factor to the reference host speed (untraced passes)
    scales: dict[int, float] = field(default_factory=dict)
    # seconds spent sampling the host-speed kernel in the pass
    kernel_s: float = 0.0
    spans: list[dict[str, np.ndarray]] = field(default_factory=list)
    gp_points: list[int] = field(default_factory=list)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_outputs(out: Path, reports: dict[str, str]) -> tuple[str, dict]:
    """SHA-256 of each curve CSV, summary JSON and eval report, and one
    digest over all of them."""
    files = {}
    for pattern in ("curves/*.csv", "summaries/*.json"):
        for path in sorted(out.glob(pattern)):
            files[path.relative_to(out).as_posix()] = _sha256(path.read_bytes())
    for name, text in reports.items():
        files[name] = _sha256(text.encode())
    listing = "".join(f"{name} {h}\n" for name, h in sorted(files.items()))
    return _sha256(listing.encode()), files


def final_success(out: Path) -> float:
    """Mean greedy success at the last milestone over the pass's summaries."""
    values = [json.loads(path.read_text())["points"][-1]["success_mean"]
              for path in sorted(out.glob("summaries/*.json"))]
    return float(np.mean(values)) if values else float("nan")


def run_pass(argvs: list[list[str]], out: Path, mode: str) -> Pass:
    """Run each command of a pass in its own process (``mode`` is ``log``
    or ``trace``) and hash what the pass wrote."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    record = out / "record"
    reports, dialogues, spans, gp_points = {}, [], [], []
    scales, kernel_s = {}, 0.0
    failed = 0
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        proc = _child(mode, record, argv)
        _finish(proc)
        try:
            data = json.loads(record.with_suffix(".json").read_text())
        except FileNotFoundError:
            data = {"code": None}
        if proc.returncode != 0 or data["code"] != 0:
            print(f"command failed ({proc.returncode}, {data['code']}): "
                  f"dialbench {' '.join(argv)}", file=sys.stderr)
            failed += 1
            continue
        dialogues += [(i, ms, turns, training) for ms, turns, training
                      in zip(data["ms"], data["turns"], data["training"])]
        if data["kernel_s"]:
            scales[i] = hostspeed.scale(data["kernel_s"])
            kernel_s += data["kernel_spent_s"]
        if argv[0] == "eval":
            reports[f"eval/{argv[argv.index('--algo') + 1]}.json"] = \
                data["stdout"]
        if mode == "trace":
            with np.load(record.with_suffix(".npz")) as payload:
                gp_points += payload["gp_points"].tolist()
                spans.append({k: payload[k] for k in payload.files
                              if k != "gp_points"})
        for suffix in (".json", ".npz"):
            record.with_suffix(suffix).unlink(missing_ok=True)
    wall = time.perf_counter() - start
    digest, files = digest_outputs(out, reports)
    return Pass(wall, digest, files, len(argvs), failed, dialogues,
                final_success(out), scales, kernel_s, spans, gp_points)


def probe_setup(argv: list[str], out: Path) -> tuple[float, float] | None:
    """Seconds from process start to the first dialogue of ``argv``, raw
    and at the reference host speed that the process measured next."""
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(out)
    start = time.perf_counter()
    proc = _child("probe", out / "record", argv)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    rest = _finish(proc)
    if line.strip() != "first-dialogue" or proc.returncode != 0:
        return None
    try:
        kernel_s = float(rest)
    except ValueError:
        return None
    return elapsed, elapsed * hostspeed.scale([kernel_s])


class Run:
    """Counters and output checks shared by untraced and traced runs."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        # input set -> (digest, per-file hashes) of its first pass
        self.outputs: dict[int, tuple[str, dict[str, str]]] = {}
        reference = json.loads(REFERENCE.read_text())
        self.reference = (reference["digests"].get(workload)
                          if size == "full" and seed == reference["seed"]
                          else None)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"output check failed: {what}", file=sys.stderr)

    def record(self, p: Pass, input_set: int) -> None:
        """Count a pass's commands and dialogues and check its artifacts
        against the recorded reference, or an earlier pass of the same
        inputs."""
        self.attempted += p.commands + len(p.dialogues)
        self.failed += p.failed_commands
        k = input_set % INPUT_SETS
        if k in self.outputs:
            self.check(p.digest == self.outputs[k][0],
                       f"input set {k} wrote different artifacts when repeated")
            return
        self.outputs[k] = (p.digest, p.files)
        if self.reference is not None:
            self.check(p.digest == self.reference[k],
                       f"{self.workload} seed {self.seed} input set {k} "
                       "differs from the recorded reference digest")


def time_for_another(start: float, last: float, seconds: float) -> bool:
    """Whether a pass as long as the last one still ends within the run."""
    return time.perf_counter() - start + last <= seconds


def median(values) -> float:
    return float(statistics.median(values))


def tail(values: np.ndarray, per_pass: int) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it in one
    pass, so the percentile is fixed by the workload, not by run length."""
    q = max(50.0, 100.0 * (1.0 - 10.0 / per_pass))
    return q, float(np.percentile(values, q))


def turn_rate(passes: list[Pass], training: bool | None,
              scaled: bool = True) -> float:
    """Turns per second over the dialogues of one mode (all if None) in
    every pass of the run, at the reference host speed unless ``scaled``
    is false.

    Dialogues are grouped into kinds: the command that ran them, and
    training or greedy test.  A kind's time per turn is its summed
    dialogue time over its summed turns, across passes, so learner work
    that runs in a few dialogues only (a batch update, a periodic refresh)
    counts in full, and a pass whose learned dialogues are short weighs in
    by its turns.  The kinds are averaged by their dialogue counts, which
    the workload fixes, so the learned dialogue lengths do not weight them.
    """
    rows = np.array([(i, ms * (p.scales[i] if scaled else 1.0), turns, tr)
                     for p in passes for i, ms, turns, tr in p.dialogues
                     if training is None or tr == training], dtype=float)
    if not len(rows):
        return 0.0
    kind = rows[:, 0] * 2 + rows[:, 3]
    total_ms = sum(np.count_nonzero(kind == k) * rows[kind == k, 1].sum()
                   / rows[kind == k, 2].sum() for k in np.unique(kind))
    return 1e3 * len(rows) / total_ms


def probe_group(run: Run, argv: list[str], out: Path,
                probes: int) -> tuple[float, float] | None:
    """The fastest of ``probes`` set-up probes run back to back, as
    (raw, scaled) seconds: the set-up time with the least interference
    from the host."""
    times = [probe_setup(argv, out) for _ in range(probes)]
    run.attempted += len(times)
    run.failed += sum(t is None for t in times)
    return min((t for t in times if t is not None), default=None,
               key=lambda t: t[1])


def measure_untraced(run: Run, inputs, out: Path, seconds: float,
                     probes: int) -> tuple[dict, dict]:
    # One set-up group before each of the first passes, so the groups
    # sample the host over the run rather than over its first seconds.
    setups: list[tuple[float, float] | None] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        if len(setups) < SETUP_GROUPS:
            setups.append(probe_group(run, inputs(0)[0], out, probes))
        p = run_pass(inputs(len(passes)), out, "log")
        run.record(p, len(passes))
        passes.append(p)
        if p.failed_commands or not time_for_another(
                start, time.perf_counter() - lap, seconds):
            break
    while len(setups) < SETUP_GROUPS:
        setups.append(probe_group(run, inputs(0)[0], out, probes))
    setups = [s for s in setups if s is not None]

    scales = [x for p in passes for x in p.scales.values()]
    ms = np.array([d[1] for d in passes[0].dialogues])
    q, dialogue_tail = tail(ms, len(ms)) if len(ms) else (0.0, 0.0)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (median(s[1] for s in setups) if setups else 0.0, "s"),
        "turns_per_s": (turn_rate(passes, None), "1/s"),
        # the largest command process; Linux reports kilobytes
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }
    details = {
        "passes": len(passes),
        "dialogues_per_pass": len(passes[0].dialogues),
        "turns_per_pass": int(sum(d[2] for d in passes[0].dialogues)),
        "wall_s": median(p.wall_s - p.kernel_s for p in passes),
        "raw_setup_s": median(s[0] for s in setups) if setups else 0.0,
        "raw_turns_per_s": turn_rate(passes, None, scaled=False),
        "host_scale": median(scales) if scales else 0.0,
        "train_turns_per_s": turn_rate(passes, True),
        "eval_turns_per_s": turn_rate(passes, False),
        "dialogue_ms_p50": float(np.median(ms)) if len(ms) else 0.0,
        "dialogue_ms_tail": dialogue_tail,
        "dialogue_ms_tail_percentile": q,
        "dialogue_ms_samples": len(ms),
        "eval_success": passes[0].eval_success,
        "setup_group_fastest_s": [s[1] for s in setups],
    }
    return metrics, details


def measure_traced(run: Run, inputs, out: Path,
                   seconds: float) -> tuple[dict, dict, dict]:
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        argvs = inputs(len(plain))
        u = run_pass(argvs, out, "log")
        run.record(u, len(plain))
        t = run_pass(argvs, out, "trace")
        run.attempted += t.commands
        run.failed += t.failed_commands
        run.check(t.digest == u.digest,
                  "the traced pass wrote different artifacts")
        plain.append(u)
        traced.append(t)
        if (u.failed_commands or t.failed_commands
                or not time_for_another(start, u.wall_s + t.wall_s, seconds)):
            break

    spans = join_spans([s for p in traced for s in p.spans])
    totals = span_totals(spans)
    n = len(traced)
    wall = median(p.wall_s for p in traced)
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
        layer_self[name.split(".")[0]] += self_s / n
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.share"] = (self_s / wall, "fraction")

    def per(num: str, den: str) -> float:
        d = totals[den][0]
        return totals[num][0] / d if d else 0.0

    gp_points = [x for p in traced for x in p.gp_points]
    metrics["action_space.compute_mask.calls_per_step"] = (
        per("action_space.compute_mask", "environment.DialogueEnv.step"),
        "calls/step")
    metrics["domain.query.calls_per_step"] = (
        per("domain.query", "environment.DialogueEnv.step"), "calls/step")
    metrics["policies.dqn.train_steps_per_turn"] = (
        per("policies.dqn.train_step", "policies.dqn.observe"), "steps/turn")
    metrics["policies.gpsarsa.dictionary_points"] = (
        float(np.mean(gp_points)) if gp_points else 0.0, "points")
    metrics["tracing_overhead"] = (
        median(t.wall_s / (u.wall_s - u.kernel_s)
               for t, u in zip(traced, plain)), "ratio")
    details = {
        "pairs": n,
        "dialogues_per_pass": len(plain[0].dialogues),
        "traced_wall_s": wall,
        "untraced_wall_s": median(p.wall_s - p.kernel_s for p in plain),
        "spans": len(spans["name"]),
    }
    return metrics, details, spans


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object and its details."""
    check_program()
    facts = machine_facts()
    out = WORK / f"{workload}-{os.getpid()}"
    run = Run(workload, seed, size)

    def inputs(i: int) -> list[list[str]]:
        return commands(workload, seed, i, str(out), size)

    start, cpu = time.perf_counter(), cpu_seconds()
    try:
        if trace:
            metrics, details, spans = measure_traced(run, inputs, out,
                                                     seconds)
            path = WORK / f"spans-{workload}-seed{seed}.npz"
            np.savez(path, names=np.array(span_names()), **spans)
            details["spans_file"] = str(path)
        else:
            metrics, details = measure_untraced(run, inputs, out, seconds,
                                                probes)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    facts["cpu_per_wall"] = ((cpu_seconds() - cpu)
                             / (time.perf_counter() - start))
    details.update({
        "workload": workload,
        "seed": seed,
        "machine": facts,
        "digests": {k: digest for k, (digest, _) in run.outputs.items()},
        "files": run.outputs[0][1] if 0 in run.outputs else {},
        "reference_checked": run.reference is not None,
        "failed_ratio": run.failed / max(run.attempted, 1),
    })
    return {
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
        "details": details,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": outcome["details"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
