"""Run one ``dialbench`` command in this fresh process and record it.

    python3 perfbench/child.py <mode> <record> <src dir> <dialbench args>...

Each command of a pass runs in its own process, as it does for a user of
the ``dialbench`` command line.  ``mode`` is one of

- ``probe``: print ``first-dialogue`` when the first dialogue starts; the
  caller times process start to that line.  Then print the mean seconds of
  the host-speed kernel (``hostspeed.py``) over ``PROBE_KERNELS`` runs and
  exit 0.
- ``log``: run the command with a clock pair around each dialogue, and
  sample the host-speed kernel between dialogues.
- ``trace``: run the command with every traced function wrapped.

``log`` and ``trace`` write the exit code, standard output, dialogue
timings and kernel samples to ``<record>.json`` and, when tracing, the
spans to ``<record>.npz``.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

PROBE_KERNELS = 10


class FirstDialogue(Exception):
    """Raised in place of the first dialogue; not a ValueError, so the
    command line does not report it as a configuration error."""


def main(argv: list[str]) -> int:
    mode, record, src, args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    from dialbench import bench_cli, harness

    import numpy as np

    import hostspeed
    from tracing import DialogueLog, Tracer, patched, references

    if mode == "probe":
        def stop(*_args, **_kwargs):
            raise FirstDialogue

        with patched({p: stop for p in references(harness.run_episode)}):
            try:
                bench_cli.main(args)
                return 1
            except FirstDialogue:
                print("first-dialogue", flush=True)
        hostspeed.kernel()
        samples = [hostspeed.kernel() for _ in range(PROBE_KERNELS)]
        print(sum(samples) / len(samples), flush=True)
        return 0

    sampler = hostspeed.Sampler() if mode == "log" else None
    log = DialogueLog(harness.run_episode,
                      sampler.sample if sampler else None)
    tracer = Tracer()
    if mode == "log":
        replacements = log.replacements()
    elif mode == "trace":
        replacements = tracer.replacements()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    stdout = io.StringIO()
    with patched(replacements), redirect_stdout(stdout):
        code = bench_cli.main(args)
    if mode == "trace":
        np.savez(record + ".npz", gp_points=np.array(tracer.gp_points),
                 **tracer.arrays())
    with open(record + ".json", "w") as f:
        json.dump({"code": code, "stdout": stdout.getvalue(), "ms": log.ms,
                   "turns": log.turns, "training": log.training,
                   "kernel_s": sampler.samples if sampler else [],
                   "kernel_spent_s": sampler.spent_s if sampler else 0.0},
                  f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
