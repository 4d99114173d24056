import random

import pytest

from plan_oracle import InstanceTooLargeError, brute_force_plan
from stagegrow.memory import ModelShape, plan_peak_bytes
from stagegrow.planner import (BudgetError, PlanInfeasibleError, StagePlan,
                               equal_memory_relaxation, solve_exact,
                               solve_rounded, split_steps, stage_flops,
                               stage_param_counts, token_budget)

SHAPE_1536 = ModelShape(hidden_dim=1536, layer_count=24, adapter_rank=128)
SHAPE_1600 = ModelShape(hidden_dim=1600, layer_count=12, adapter_rank=128)
SHAPE_2048 = ModelShape(hidden_dim=2048, layer_count=24, adapter_rank=128)


# ---------------------------------------------------------------------------
# StagePlan container
# ---------------------------------------------------------------------------

def test_stage_plan_basics():
    plan = StagePlan((14, 10))
    assert plan.cumulative == (14, 24)
    assert plan.stages == ((0, 14), (14, 10))
    assert StagePlan((3, 1, 2)).stages == ((0, 3), (3, 1), (4, 2))
    assert plan.describe() == "14 -> 24"
    assert list(plan) == [14, 10]
    assert len(plan) == 2


def test_stage_plan_validation():
    with pytest.raises(ValueError):
        StagePlan(())
    with pytest.raises(ValueError):
        StagePlan((3, 0))
    with pytest.raises(ValueError):
        StagePlan((3, -1))


# ---------------------------------------------------------------------------
# Exact solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L,K,shape,expected", [
    (24, 2, SHAPE_1536, (14, 10)),
    (24, 2, SHAPE_2048, (13, 11)),
    (24, 3, SHAPE_2048, (10, 8, 6)),
    (12, 2, SHAPE_1600, (7, 5)),
    (24, 1, SHAPE_1536, (24,)),
])
def test_solve_exact_known_plans(L, K, shape, expected):
    assert solve_exact(L, K, shape).increments == expected


@pytest.mark.parametrize("L,K,shape,peak", [
    (24, 2, SHAPE_2048, 11_203_813_376),
    (24, 3, SHAPE_2048, 8_246_607_872),
    (24, 2, SHAPE_1536, 6_342_475_776),
    (12, 2, SHAPE_1600, 3_440_998_400),
])
def test_solve_exact_known_peaks(L, K, shape, peak):
    plan = solve_exact(L, K, shape)
    assert plan_peak_bytes(plan, shape).peak_bytes == peak


def test_brute_force_hand_oracle():
    # d=3, r=1: P = 12*9 + 2*3 = 114, E = 19*1*3 = 57.
    # Stage bytes = 1824*n_i + 1140*prior.  All four splits of L=5, K=2:
    #   (1,4) -> max(1824, 8436) = 8436
    #   (2,3) -> max(3648, 7752) = 7752
    #   (3,2) -> max(5472, 7068) = 7068   <- best
    #   (4,1) -> max(7296, 6384) = 7296
    shape = ModelShape(hidden_dim=3, layer_count=5, adapter_rank=1)
    plan, peak = brute_force_plan(5, 2, shape)
    assert plan.increments == (3, 2)
    assert peak == 7068
    assert solve_exact(5, 2, shape).increments == (3, 2)


@pytest.mark.parametrize("shape", [
    ModelShape(hidden_dim=3, layer_count=14, adapter_rank=1),
    ModelShape(hidden_dim=48, layer_count=14, adapter_rank=4),
    ModelShape(hidden_dim=96, layer_count=14, adapter_rank=0),
])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_exact_matches_brute_force_grid(shape, K):
    for L in range(K, 15):
        exact = solve_exact(L, K, shape)
        brute, peak = brute_force_plan(L, K, shape)
        assert exact.increments == brute.increments, (L, K)
        assert plan_peak_bytes(exact, shape).peak_bytes == peak


@pytest.mark.parametrize("L,K,shape", [
    (24, 2, SHAPE_1536),
    (24, 3, SHAPE_2048),
    (12, 2, SHAPE_1600),
    (17, 4, ModelShape(hidden_dim=48, layer_count=17, adapter_rank=4)),
])
def test_exact_never_beaten_by_rounded(L, K, shape):
    exact = plan_peak_bytes(solve_exact(L, K, shape), shape).peak_bytes
    rounded = plan_peak_bytes(solve_rounded(L, K, shape), shape).peak_bytes
    assert exact <= rounded


def test_single_stage_is_whole_model():
    shape = ModelShape(hidden_dim=48, layer_count=9, adapter_rank=4)
    assert solve_exact(9, 1, shape).increments == (9,)
    assert solve_rounded(9, 1, shape).increments == (9,)


def test_infeasible_stage_counts():
    shape = ModelShape(hidden_dim=48, layer_count=3, adapter_rank=4)
    with pytest.raises(PlanInfeasibleError):
        solve_exact(3, 4, shape)
    with pytest.raises(PlanInfeasibleError):
        solve_rounded(3, 4, shape)
    with pytest.raises(ValueError):
        solve_exact(3, 0, shape)
    with pytest.raises(ValueError):
        solve_exact(0, 1, shape)


def test_brute_force_limit():
    shape = ModelShape(hidden_dim=48, layer_count=40, adapter_rank=4)
    with pytest.raises(InstanceTooLargeError):
        brute_force_plan(40, 8, shape, limit=100)


# ---------------------------------------------------------------------------
# Equal-memory relaxation and rounding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L,K,shape,n1", [
    (24, 2, SHAPE_1536, 13.7688),
    (24, 2, SHAPE_2048, 13.5131),
    (12, 2, SHAPE_1600, 6.8636),
])
def test_relaxation_first_stage(L, K, shape, n1):
    sizes = equal_memory_relaxation(L, K, shape)
    assert sizes[0] == pytest.approx(n1, abs=1e-3)
    assert sum(sizes) == pytest.approx(L, abs=1e-9)
    # Geometric decay: constant ratio between consecutive stages.
    assert sizes[1] / sizes[0] < 1.0


@pytest.mark.parametrize("L,K,shape,expected", [
    (24, 2, SHAPE_1536, (14, 10)),
    (24, 2, SHAPE_2048, (14, 10)),
    (12, 2, SHAPE_1600, (7, 5)),
    (24, 3, SHAPE_2048, (10, 8, 6)),
])
def test_solve_rounded_known_plans(L, K, shape, expected):
    assert solve_rounded(L, K, shape).increments == expected


def test_relaxation_infeasible_when_adapters_dominate():
    # d=3, r=2: 14P = 1596 < 16E = 1824, so the equal-memory ratio is
    # negative and no positive geometric profile exists.
    shape = ModelShape(hidden_dim=3, layer_count=6, adapter_rank=2)
    with pytest.raises(PlanInfeasibleError):
        equal_memory_relaxation(6, 2, shape)
    with pytest.raises(PlanInfeasibleError):
        solve_rounded(6, 2, shape)
    # The exact solver has no such restriction.
    assert solve_exact(6, 2, shape).cumulative[-1] == 6


# ---------------------------------------------------------------------------
# Compute estimates
# ---------------------------------------------------------------------------

def test_flops_vanilla_exact_integer():
    assert stage_flops(368_000_000, 0, 7_200_000_000) == \
        15_897_600_000_000_000_000
    with pytest.raises(ValueError):
        stage_flops(-1, 0, 10)


def test_nonembedding_param_totals():
    # Whole-model N*P counts used in full-training estimates.
    assert 12 * 30_723_200 == 368_678_400
    assert 24 * 28_314_624 == 679_550_976
    assert 24 * 50_335_744 == 1_208_057_856


def test_stage_param_counts_known():
    counts = stage_param_counts((14, 10), SHAPE_1536)
    assert counts == [(396_404_736, 0), (335_443_968, 396_404_736)]
    counts = stage_param_counts((7, 5), SHAPE_1600)
    assert counts == [(215_062_400, 0), (180_854_400, 215_062_400)]


def test_stage_flops_rates():
    assert stage_flops(10, 0, 7) == 6 * 10 * 7
    assert stage_flops(0, 10, 7) == 2 * 10 * 7
    assert stage_flops(3, 5, 11) == (6 * 3 + 2 * 5) * 11
    with pytest.raises(ValueError):
        stage_flops(-1, 0, 0)


def test_flops_staged_two_stage_hand_sum():
    # (7, 5) at d=1600, r=128, with a 75/25 token split of 11.88e9.
    stages = [
        (215_062_400, 0, 8_910_000_000),
        (180_854_400, 215_062_400, 2_970_000_000),
    ]
    assert stage_flops(*stages[0]) == 1_290_374_400 * 8_910_000_000
    assert stage_flops(*stages[1]) == 1_515_251_200 * 2_970_000_000
    assert sum(stage_flops(*s) for s in stages) == 15_997_531_968_000_000_000


# ---------------------------------------------------------------------------
# Step splitting and token budgeting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("total,K,frac,expected", [
    (1000, 2, 0.75, [750, 250]),
    (1000, 3, 0.75, [750, 188, 62]),
    (1000, 2, 1.0, [1000, 0]),
    (100, 4, 0.5, [50, 25, 13, 12]),
    (7, 1, 0.75, [7]),
    (0, 2, 0.5, [0, 0]),
])
def test_split_steps_cases(total, K, frac, expected):
    got = split_steps(total, K, frac)
    assert got == expected
    assert sum(got) == total


def test_split_steps_validation():
    with pytest.raises(ValueError):
        split_steps(10, 2, 0.0)
    with pytest.raises(ValueError):
        split_steps(10, 2, 1.5)
    with pytest.raises(ValueError):
        split_steps(-1, 2, 0.5)
    with pytest.raises(ValueError):
        split_steps(10, 0, 0.5)


def test_token_budget_known_small_model():
    budget = token_budget((7, 5), SHAPE_1600, 16_300_000_000_000_000_000,
                          growth_fraction=0.75, batch_tokens=360_000)
    assert budget.total_steps == 33_624
    assert budget.total_tokens == 12_104_640_000
    assert [b.steps for b in budget.per_stage] == [25_218, 8_406]
    # The realized spend sits within one step's cost of the target.
    worst_step = max(b.flops // b.steps for b in budget.per_stage)
    assert abs(budget.total_flops - 16_300_000_000_000_000_000) <= worst_step


def test_token_budget_known_mid_model():
    budget = token_budget((14, 10), SHAPE_1536, 55_500_000_000_000_000_000,
                          growth_fraction=0.75, batch_tokens=688_000)
    assert budget.total_steps == 32_460
    assert budget.total_tokens == 22_332_480_000


@pytest.mark.parametrize("seed", range(10))
def test_token_budget_consistency(seed):
    rnd = random.Random(seed)
    d = rnd.choice([48, 96, 384])
    K = rnd.randrange(1, 4)
    L = rnd.randrange(K, K + 8)
    shape = ModelShape(hidden_dim=d, layer_count=L, adapter_rank=rnd.choice([0, 4, 8]))
    plan = solve_exact(L, K, shape)
    batch = rnd.choice([512, 4096])
    frac = rnd.choice([0.5, 0.75])
    target = rnd.randrange(10**13, 10**15)
    budget = token_budget(plan, shape, target, frac, batch)
    assert budget.total_steps == sum(b.steps for b in budget.per_stage)
    assert budget.total_tokens == sum(b.tokens for b in budget.per_stage)
    assert budget.total_flops == sum(b.flops for b in budget.per_stage)
    assert all(b.steps >= 1 for b in budget.per_stage)
    assert all(b.tokens == b.steps * batch for b in budget.per_stage)
    expect = sum(stage_flops(b.trainable_params, b.frozen_params, b.tokens)
                 for b in budget.per_stage)
    assert budget.total_flops == expect


def test_token_budget_too_small():
    with pytest.raises(BudgetError):
        token_budget((7, 5), SHAPE_1600, 1000, 0.75, 1)
    with pytest.raises(BudgetError):
        token_budget((7, 5), SHAPE_1600, -5, 0.75, 512)
    with pytest.raises(ValueError):
        token_budget((7, 5), SHAPE_1600, 10**18, 0.75, 0)


def _closest_funded_steps(plan, shape, flops_budget, frac, batch):
    """Brute force: the split, funding every stage, whose spend is closest.

    Scans every total from 0.  A total of T steps spends at least
    T * min(stage cost), so totals past 2 * budget / min(stage cost) cost
    over twice the budget and lose to any funded total within it.  None
    when no funded total fits the budget.
    """
    rates = [stage_flops(t, f, batch) for t, f in stage_param_counts(plan, shape)]
    funded = []
    for total in range(2 * flops_budget // min(rates) + 2):
        steps = split_steps(total, len(plan), frac)
        spend = sum(s * c for s, c in zip(steps, rates))
        if min(steps) >= 1:
            funded.append((abs(spend - flops_budget), total, spend, steps))
    if not funded or min(spend for _, _, spend, _ in funded) > flops_budget:
        return None
    return min(funded)[3]


def _random_budget_cases(rnd, n):
    for _ in range(n):
        plan = StagePlan(tuple(rnd.randrange(1, 6) for _ in range(rnd.randrange(1, 7))))
        shape = ModelShape(rnd.randrange(1, 40), sum(plan), adapter_rank=rnd.randrange(0, 9))
        frac = rnd.choice([0.5, 0.75, 1.0, round(rnd.uniform(0.05, 1.0), 3)])
        batch = rnd.randrange(1, 9)
        step = stage_flops(*stage_param_counts(plan, shape)[-1], batch)
        yield plan, shape, rnd.randrange(1, 200 * step), frac, batch


def _cheapest_funded_cases(rnd, n):
    """Budgets from half to all of the cheapest funded spend."""
    for plan, shape, _, frac, batch in _random_budget_cases(rnd, n):
        rates = [stage_flops(t, f, batch) for t, f in stage_param_counts(plan, shape)]
        funded = (t for t in range(1000) if min(split_steps(t, len(plan), frac)) >= 1)
        first = next(funded, None)
        if first is None:  # a fraction of 1.0 funds no later stage
            continue
        steps = split_steps(first, len(plan), frac)
        cheapest = sum(s * c for s, c in zip(steps, rates))
        for budget in (cheapest // 2, rnd.randrange(cheapest // 2, cheapest + 1),
                       cheapest - 1, cheapest):
            yield plan, shape, max(budget, 1), frac, batch


def test_token_budget_matches_brute_force():
    rnd = random.Random(16)
    cases = [((2, 3, 1, 3, 5, 5), ModelShape(3, 19, adapter_rank=1), 514_964, 0.5, 3),
             *_random_budget_cases(rnd, 200), *_cheapest_funded_cases(rnd, 50)]
    for plan, shape, flops_budget, frac, batch in cases:
        want = _closest_funded_steps(plan, shape, flops_budget, frac, batch)
        try:
            got = [b.steps for b in token_budget(plan, shape, flops_budget, frac,
                                                 batch).per_stage]
        except BudgetError:
            got = None
        assert got == want, (plan, shape, flops_budget, frac, batch)
    # The instance the float split rule missed: 62 steps are 1,456 FLOPs
    # over the budget, where 61 are 8,120 short.
    assert sum(_closest_funded_steps(*cases[0])) == 62


def test_token_budget_refuses_less_than_one_step_per_stage():
    # (7, 5) at d=1600 and a 0.75 fraction: the cheapest funded total is
    # 3 steps, split (2, 1).
    (t1, f1), (t2, f2) = stage_param_counts((7, 5), SHAPE_1600)
    cheapest = 2 * stage_flops(t1, f1, 360_000) + stage_flops(t2, f2, 360_000)
    for flops_budget in (cheapest // 2, cheapest - 1):
        with pytest.raises(BudgetError):
            token_budget((7, 5), SHAPE_1600, flops_budget, 0.75, 360_000)
    budget = token_budget((7, 5), SHAPE_1600, cheapest, 0.75, 360_000)
    assert [b.steps for b in budget.per_stage] == [2, 1]
    assert budget.total_flops == cheapest
