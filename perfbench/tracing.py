"""Per-layer tracing from outside the program.

The benchmark replaces public functions of the ``dialbench`` modules with
timing wrappers, at every place a module holds a reference to them, and
puts the originals back afterwards.  Nothing under ``src/`` changes, and a
wrapper only reads the clock, so tracing draws no random numbers and
changes no artifact.

Spans are kept in memory (one per wrapped call: name, start, end, parent
span and dialogue id), written out when the traced command's process ends,
and joined into one file when the run ends.  A span's self time is its
duration minus the durations of its direct children; each command is
single-threaded with no queues, so busy time stands in for wait time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layer -> traced functions, named as the module defines them.
LAYER_FUNCTIONS = {
    "simulated_user": ("sample_params", "sample_goal",
                       "SimulatedUser.respond", "is_goal_fulfilled"),
    "error_channel": ("corrupt",),
    "belief_tracker": ("update", "flatten"),
    "action_space": ("compute_mask", "summary_to_master"),
    "domain": ("generate_domain", "query"),
    "environment": ("DialogueEnv.reset", "DialogueEnv.step",
                    "DialogueEnv.result"),
    "rl_core": ("forward", "forward_cache", "backward", "adam_step"),
    "harness": ("run_episode", "evaluate", "write_curve_csv",
                "write_summary_json"),
    "seeding": ("seed_stream",),
}

# Policy methods traced per algorithm.  The handcrafted policy never
# trains, so its inherited no-op ``observe`` is never called and is left
# out.
POLICY_METHODS = {
    "handcrafted": ("act", "end_dialogue"),
    "gpsarsa": ("act", "observe", "end_dialogue"),
    "dqn": ("act", "observe", "end_dialogue", "train_step"),
    "a2c": ("act", "observe", "end_dialogue", "update"),
    "enac": ("act", "observe", "end_dialogue", "update"),
}

LAYERS = tuple(LAYER_FUNCTIONS) + ("policies",)
SPAN_FIELDS = {"name": np.int32, "start": np.float64, "end": np.float64,
               "parent": np.int64, "dialogue": np.int64}


def span_names() -> list[str]:
    """Every traced span name, ``<layer>.<function>``."""
    names = [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items()
             for fn in fns]
    names += [f"policies.{algo}.{m}" for algo, methods in POLICY_METHODS.items()
              for m in methods]
    names += ["policies.save", "policies.load_policy"]
    return names


def _program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dialbench"
                                  or name.startswith("dialbench."))]


@contextmanager
def patched(replacements: dict[tuple[object, str], object]):
    """Set ``owner.attr = value`` for each entry and restore on exit.

    An attribute the owner only inherited is deleted again rather than
    set, so a class is left exactly as it was found.
    """
    saved = []
    try:
        for (owner, attr), value in replacements.items():
            had_own = attr in vars(owner)
            saved.append((owner, attr, had_own,
                          vars(owner)[attr] if had_own else None))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, had_own, old in reversed(saved):
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def references(target) -> list[tuple[object, str]]:
    """Every ``(module, name)`` in the program that refers to ``target``."""
    return [(module, name) for module in _program_modules()
            for name, value in vars(module).items() if value is target]


def _resolve_method(cls: type, name: str):
    for klass in cls.__mro__:
        if name in vars(klass):
            return vars(klass)[name]
    raise AttributeError(f"{cls.__name__} has no method {name!r}")


def traced_targets() -> list[tuple[str, list[tuple[object, str]], object]]:
    """(span name, places to patch, original) for every traced function."""
    import importlib

    from dialbench import policies

    targets = []
    for layer, fns in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"dialbench.{layer}")
        for fn in fns:
            if "." in fn:
                cls_name, method = fn.split(".")
                cls = getattr(module, cls_name)
                targets.append((f"{layer}.{fn}", [(cls, method)],
                                _resolve_method(cls, method)))
            else:
                original = getattr(module, fn)
                targets.append((f"{layer}.{fn}", references(original),
                                original))
    classes = {cls.algorithm: cls for cls in (
        policies.HandcraftedPolicy, policies.GPSarsaPolicy,
        policies.DQNPolicy, policies.A2CPolicy, policies.ENACPolicy)}
    for algo, methods in POLICY_METHODS.items():
        cls = classes[algo]
        for method in methods:
            targets.append((f"policies.{algo}.{method}", [(cls, method)],
                            _resolve_method(cls, method)))
    for cls in classes.values():
        targets.append(("policies.save", [(cls, "save")],
                        _resolve_method(cls, "save")))
    targets.append(("policies.load_policy", references(policies.load_policy),
                    policies.load_policy))
    return targets


class DialogueLog:
    """Per-dialogue wall time, turns and mode, from a hook on
    ``harness.run_episode``: one clock pair per dialogue, so untraced
    runs carry it too.

    A dialogue's turns are the user's opening plus one per system action.
    The opening costs the env stack about as much as an exchange, so
    counting it keeps the time per turn from depending on how short the
    learned dialogues are.

    ``before``, if given, is called ahead of each dialogue, outside its
    clock pair.
    """

    def __init__(self, run_episode, before=None):
        self.original = run_episode
        self.before = before
        self.signature = inspect.signature(run_episode)
        self.ms: list[float] = []
        self.turns: list[int] = []
        self.training: list[bool] = []

    def hook(self):
        original, before = self.original, self.before

        @functools.wraps(original)
        def run_episode(*args, **kwargs):
            bound = self.signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if before is not None:
                before()
            start = perf_counter()
            result = original(*args, **kwargs)
            self.ms.append((perf_counter() - start) * 1e3)
            self.turns.append(int(result.turns) + 1)
            self.training.append(bool(bound.arguments["training"]))
            return result
        return run_episode

    def replacements(self) -> dict[tuple[object, str], object]:
        hook = self.hook()
        return {place: hook for place in references(self.original)}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = span_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.dialogue = array("q")
        self._stack: list[int] = []
        self._dialogue = -1
        # GP-SARSA dictionary size after each training dialogue
        self.gp_points: list[int] = []

    def wrap(self, span: str, original, new_dialogue: bool = False,
             after=None):
        code = self._index[span]
        names, starts, ends = self.name, self.start, self.end
        parents, dialogues, stack = self.parent, self.dialogue, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if new_dialogue:
                self._dialogue += 1
            i = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            dialogues.append(self._dialogue)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result
        return traced

    def replacements(self) -> dict[tuple[object, str], object]:
        out = {}
        for span, places, original in traced_targets():
            extra = {}
            if span == "harness.run_episode":
                extra = {"new_dialogue": True,
                         "after": self._gp_sampler(original)}
            wrapper = self.wrap(span, original, **extra)
            for place in places:
                out[place] = wrapper
        return out

    def _gp_sampler(self, run_episode):
        signature = inspect.signature(run_episode)

        def sample(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            policy = bound.arguments["policy"]
            if bound.arguments["training"] and policy.algorithm == "gpsarsa":
                self.gp_points.append(int(policy.total_points))
        return sample

    def arrays(self) -> dict[str, np.ndarray]:
        return {field: np.array(getattr(self, field), dtype=dtype)
                for field, dtype in SPAN_FIELDS.items()}


def join_spans(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Concatenate spans recorded by separate processes, renumbering
    parent spans and dialogue ids so they stay unique."""
    joined = {field: [] for field in SPAN_FIELDS}
    spans = dialogues = 0
    for part in parts:
        parent = part["parent"].copy()
        parent[parent >= 0] += spans
        dialogue = part["dialogue"].copy()
        dialogue[dialogue >= 0] += dialogues
        for field, values in (("name", part["name"]),
                              ("start", part["start"]), ("end", part["end"]),
                              ("parent", parent), ("dialogue", dialogue)):
            joined[field].append(values)
        spans += len(parent)
        dialogues += int(dialogue.max()) + 1 if len(dialogue) else 0
    return {field: np.concatenate(values) if values
            else np.zeros(0, dtype=SPAN_FIELDS[field])
            for field, values in joined.items()}


def span_totals(spans: dict[str, np.ndarray]) -> dict[str, tuple[int, float]]:
    """Per span name: calls and self seconds (duration minus direct
    children)."""
    names = span_names()
    name = spans["name"].astype(np.int64)
    duration = spans["end"] - spans["start"]
    child = np.zeros(len(duration))
    nested = spans["parent"] >= 0
    np.add.at(child, spans["parent"][nested], duration[nested])
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=duration - child, minlength=len(names))
    return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(names)}
