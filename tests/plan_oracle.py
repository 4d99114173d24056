"""Brute-force stage planner: the slow oracle that solve_exact is checked against.

It enumerates every composition of the layer target and prices each stage
with stagegrow.memory's byte formula, so it shares no code with the
planner's dynamic program.
"""
import itertools
from math import comb

from stagegrow.memory import ModelShape, stage_state_bytes
from stagegrow.planner import StagePlan


class InstanceTooLargeError(ValueError):
    """Brute-force enumeration would exceed its composition limit."""


def brute_force_plan(layer_target: int, stage_count: int, shape: ModelShape,
                     limit: int = 2_000_000) -> tuple[StagePlan, int]:
    """Enumerate every composition; returns (best plan, its peak bytes).

    Ties on the peak break by lexicographically smaller later-stage bytes,
    then by larger early increments; with the integer coefficients here
    ties cannot actually occur between distinct plans, but the rule keeps
    the choice total.
    """
    if not 1 <= stage_count <= layer_target:
        raise ValueError(f"cannot split {layer_target} layers into {stage_count} stages")
    n_compositions = comb(layer_target - 1, stage_count - 1)
    if n_compositions > limit:
        raise InstanceTooLargeError(
            f"{n_compositions} compositions exceeds limit {limit}")
    # Stage bytes are linear in (new layers, prior layers): read both
    # slopes off the memory formula once.
    per_new = stage_state_bytes((1,), 1, shape).total_bytes
    per_prior = stage_state_bytes((1, 1), 2, shape).total_bytes - per_new
    best_key = None
    best_plan = None
    for cuts in itertools.combinations(range(1, layer_target), stage_count - 1):
        cum = (*cuts, layer_target)
        inc = tuple(b - a for a, b in zip((0, *cuts), cum))
        per = tuple(per_new * n + per_prior * prior
                    for n, prior in zip(inc, (0, *cum[:-1])))
        key = (max(per), tuple(reversed(per)), tuple(-n for n in inc))
        if best_key is None or key < best_key:
            best_key = key
            best_plan = inc
    return StagePlan(best_plan), best_key[0]
