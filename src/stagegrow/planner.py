"""Stage planning: split a layer budget so the worst stage needs the least memory.

Given a target depth L and a stage count K, choose increments n_1..n_K
(each >= 1, summing to L) minimizing the maximum over stages of

    bytes(i) = 16 n_i P + 2 N_{i-1} P + 16 N_{i-1} E,   N_i = n_1 + .. + n_i

that is, memory.stage_params(N_{i-1}, n_i) priced at memory.state_bytes.
Its slopes c1 = bytes(0, 1) = 16 P and c2 = bytes(1, 0) = 2 P + 16 E are
positive, so it is strictly increasing in both arguments, which makes a
small min-max dynamic program over (stage, cumulative layers) exact.

Two solvers:

    solve_exact    dynamic program, provably optimal, O(K L^2) integer ops
    solve_rounded  closed-form equal-memory relaxation rounded to integers

The relaxation sets all stage byte totals equal, giving a geometric layer
profile n_{i+1} = q n_i with ratio q = (14 P - 16 E) / 16 P and

    n_1 = L (1 - q) / (1 - q^K).

Also here: the FLOP rate, stage_flops, through which every FLOP figure
goes (the trainer's ledger, token_budget, flops_vanilla).  A full
forward+backward pass costs about 6 FLOPs per parameter per token; a frozen
parameter skips the backward weight work and costs about 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .memory import ModelShape, StagePlan, stage_params, state_bytes

FLOPS_PER_TRAINABLE_PARAM_TOKEN = 6
FLOPS_PER_FROZEN_PARAM_TOKEN = 2


class PlanInfeasibleError(ValueError):
    """No valid plan exists for the requested layer/stage counts."""


class BudgetError(ValueError):
    """A compute budget cannot cover even one step per stage."""


def _stage_bytes(prior: int, new: int, shape: ModelShape) -> int:
    """Non-embedding state bytes of a stage adding `new` layers on `prior`."""
    params = stage_params(prior, new, shape)
    return state_bytes(params.trainable, params.frozen_layer)


def _check_targets(layer_target: int, stage_count: int) -> None:
    if stage_count < 1:
        raise ValueError(f"stage_count must be >= 1, got {stage_count}")
    if layer_target < 1:
        raise ValueError(f"layer_target must be >= 1, got {layer_target}")
    if stage_count > layer_target:
        raise PlanInfeasibleError(
            f"cannot split {layer_target} layers into {stage_count} stages of >= 1 layer")


def solve_exact(layer_target: int, stage_count: int, shape: ModelShape) -> StagePlan:
    """Optimal plan by dynamic programming over (stage, cumulative layers).

    M[i][N] is the best achievable worst-stage bytes using exactly i stages
    to reach N layers.  Among peak-optimal plans, reconstruction walks
    backward choosing the smallest feasible last-stage bytes at every step,
    i.e. it minimizes (bytes_K, ..., bytes_1) lexicographically.

    Embedding add-ons shift every stage by the same constant, so they cannot
    change the argmin and are deliberately not a parameter here.
    """
    _check_targets(layer_target, stage_count)
    L, K = layer_target, stage_count

    def bytes_of(prior: int, new: int) -> int:
        return _stage_bytes(prior, new, shape)

    infinite = float("inf")
    # M[i] maps cumulative layer count -> minimal worst-stage bytes so far.
    prev = {0: 0}
    tables: list[dict[int, int]] = [prev]
    for i in range(1, K + 1):
        cur: dict[int, int] = {}
        # Stage i can end anywhere that leaves >= 1 layer per remaining stage.
        for total in range(i, L - (K - i) + 1):
            best = infinite
            for prior, worst in prev.items():
                if prior >= total:
                    continue
                cand = max(worst, bytes_of(prior, total - prior))
                if cand < best:
                    best = cand
            cur[total] = best
        tables.append(cur)
        prev = cur
    objective = tables[K][L]

    # Backward greedy: at each stage pick the predecessor with the cheapest
    # stage bytes among those still compatible with the optimal peak.
    cumulative = [0] * (K + 1)
    cumulative[K] = L
    for i in range(K, 0, -1):
        total = cumulative[i]
        best_key = None
        best_prior = None
        for prior, worst in tables[i - 1].items():
            if prior >= total or worst > objective:
                continue
            b = bytes_of(prior, total - prior)
            if b > objective:
                continue
            key = (b, -prior)
            if best_key is None or key < best_key:
                best_key = key
                best_prior = prior
        assert best_prior is not None, "DP table inconsistent"
        cumulative[i - 1] = best_prior

    plan = StagePlan(tuple(
        cumulative[i] - cumulative[i - 1] for i in range(1, K + 1)))
    got = max(bytes_of(prior, new) for prior, new in plan.stages)
    assert got == objective, "reconstructed plan misses DP objective"
    return plan


def equal_memory_relaxation(layer_target: int, stage_count: int,
                            shape: ModelShape) -> list[float]:
    """Continuous stage sizes that equalize per-stage bytes exactly.

    Geometric profile n_{i+1} = q n_i with q = (14P - 16E)/16P.  Raises
    PlanInfeasibleError when q <= 0 (adapters so large that later stages can
    never match stage 1 at positive size).
    """
    _check_targets(layer_target, stage_count)
    if stage_count == 1:
        return [float(layer_target)]
    c1, c2 = _stage_bytes(0, 1, shape), _stage_bytes(1, 0, shape)
    q = (c1 - c2) / c1  # (14P - 16E) / 16P
    if q <= 0.0:
        raise PlanInfeasibleError(
            "equal-memory ratio is non-positive; adapter cost swamps the "
            "frozen-layer saving at this shape")
    n1 = layer_target * (1.0 - q) / (1.0 - q ** stage_count)
    return [n1 * q ** i for i in range(stage_count)]


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def solve_rounded(layer_target: int, stage_count: int, shape: ModelShape) -> StagePlan:
    """Plan from the equal-memory relaxation, rounded half-up per stage.

    Stages 1..K-1 round independently; the last stage absorbs the remainder
    so the total stays exact.  Infeasible when the relaxation has no
    positive solution or rounding pushes any stage below one layer.
    """
    sizes = equal_memory_relaxation(layer_target, stage_count, shape)
    inc = [_round_half_up(x) for x in sizes[:-1]]
    inc.append(layer_target - sum(inc))
    if any(n < 1 for n in inc):
        raise PlanInfeasibleError(
            f"rounded plan {inc} leaves a stage below one layer")
    return StagePlan(tuple(inc))


# ---------------------------------------------------------------------------
# Training-compute estimates
# ---------------------------------------------------------------------------

def flops_vanilla(params: int, tokens: int) -> int:
    """Classic full-training estimate: 6 * params * tokens."""
    return stage_flops(params, 0, tokens)


def stage_flops(trainable_params: int, frozen_params: int, tokens: int) -> int:
    """One stage: trainable params cost 6/token, frozen params 2/token."""
    if min(trainable_params, frozen_params, tokens) < 0:
        raise ValueError("parameter and token counts must be non-negative")
    return (FLOPS_PER_TRAINABLE_PARAM_TOKEN * trainable_params
            + FLOPS_PER_FROZEN_PARAM_TOKEN * frozen_params) * tokens


def flops_staged(stages: Iterable[tuple[int, int, int]]) -> int:
    """Sum stage_flops over (trainable, frozen, tokens) triples."""
    return sum(stage_flops(t, f, tok) for t, f, tok in stages)


def stage_param_counts(plan, shape: ModelShape) -> list[tuple[int, int]]:
    """Non-embedding (trainable, frozen) counts of memory.stage_params per stage."""
    plan = StagePlan.of(plan)
    stages = (stage_params(prior, new, shape) for prior, new in plan.stages)
    return [(s.trainable, s.frozen_layer) for s in stages]


def split_steps(total_steps: int, stage_count: int, growth_fraction: float) -> list[int]:
    """Integer optimizer steps per stage under the recursive fraction rule.

    Each growth event fires after growth_fraction of the steps remaining at
    that stage's start; the final stage takes everything left.  A fraction
    of 1.0 degenerates to all steps in stage 1 (growth at the very end).
    """
    if total_steps < 0:
        raise ValueError(f"total_steps must be >= 0, got {total_steps}")
    if stage_count < 1:
        raise ValueError(f"stage_count must be >= 1, got {stage_count}")
    if not 0.0 < growth_fraction <= 1.0:
        raise ValueError(f"growth_fraction must be in (0, 1], got {growth_fraction}")
    steps = []
    remaining = total_steps
    for _ in range(stage_count - 1):
        s = _round_half_up(growth_fraction * remaining)
        s = min(s, remaining)
        steps.append(s)
        remaining -= s
    steps.append(remaining)
    return steps


@dataclass(frozen=True)
class StageBudget:
    stage: int
    trainable_params: int
    frozen_params: int
    steps: int
    tokens: int
    flops: int


@dataclass(frozen=True)
class FlopsBudget:
    per_stage: tuple[StageBudget, ...]
    total_steps: int
    total_tokens: int
    total_flops: int


def token_budget(plan, shape: ModelShape, flops_budget: int,
                 growth_fraction: float, batch_tokens: int) -> FlopsBudget:
    """Steps/tokens per stage so staged training spends closest to `flops_budget`.

    A total step count spends what its split_steps split costs at each
    stage's stage_flops.  No stage loses a step when the total grows, so
    that spend rises with every step, and bisection finds the largest total
    within the budget.  Of the totals that fund one step per stage, the one
    whose spend is closest to the budget wins, ties to fewer steps.
    BudgetError when even the cheapest funded total costs more than the
    budget.
    """
    plan = StagePlan.of(plan)
    if flops_budget <= 0:
        raise BudgetError(f"flops_budget must be positive, got {flops_budget}")
    if batch_tokens < 1:
        raise ValueError(f"batch_tokens must be >= 1, got {batch_tokens}")

    counts = stage_param_counts(plan, shape)
    step_flops = [stage_flops(t, f, batch_tokens) for t, f in counts]

    def spend(total_steps: int) -> int:
        steps = split_steps(total_steps, len(plan), growth_fraction)
        return sum(s * c for s, c in zip(steps, step_flops))

    # spend(low) <= budget < spend(high), as every step costs >= min(step_flops).
    low, high = 0, int(flops_budget // min(step_flops)) + 1
    while high - low > 1:
        mid = (low + high) // 2
        if spend(mid) <= flops_budget:
            low = mid
        else:
            high = mid
    if min(split_steps(low, len(plan), growth_fraction)) < 1:
        raise BudgetError(
            f"budget {flops_budget} cannot fund one step per stage at "
            f"batch_tokens={batch_tokens}")
    total_steps = low if flops_budget - spend(low) <= spend(high) - flops_budget else high
    steps = split_steps(total_steps, len(plan), growth_fraction)

    per_stage = tuple(
        StageBudget(stage=i, trainable_params=t, frozen_params=f, steps=s,
                    tokens=s * batch_tokens, flops=s * c)
        for i, (s, (t, f), c) in enumerate(zip(steps, counts, step_flops), start=1))
    return FlopsBudget(
        per_stage=per_stage,
        total_steps=total_steps,
        total_tokens=total_steps * batch_tokens,
        total_flops=sum(b.flops for b in per_stage))
