"""The benchmark's workloads.

Each module provides `inputs(seed)`, the seeded inputs as plain values,
`build(inputs)`, which imports normforge and turns them into program
objects (this is what set-up time measures),
`ops(state)`, the fixed list of operations one round performs, each with a
check of its output, `IN_PROCESS`, whether the operations run in this
process (times scaled to the reference speed, peak RSS of this process) or
in child processes (unscaled, peak RSS of the largest child), and
optionally `layer_extras(state, lats)`, per-layer values the tracer cannot
see, from the traced rounds' (label, seconds) latencies.
"""

import random


class Op:
    """One timed operation: `run()` is timed, `check(output)` is not."""

    __slots__ = ("label", "run", "check", "desc")

    def __init__(self, label, run, check, desc):
        self.label = label
        self.run = run
        self.check = check
        self.desc = desc


class State:
    """A workload's program objects; `tracer` is set during traced rounds."""

    tracer = None


def rng_for(workload, seed):
    """The workload's input generator; the same seed gives the same inputs."""
    return random.Random(f"{workload}:{seed}")
