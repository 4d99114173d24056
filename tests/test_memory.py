import numpy as np
import pytest

from stagegrow.memory import (ModelShape, StageMemory, StagePlan, adapter_params,
                              embedding_params, format_gb, gigabytes,
                              layer_params, plan_peak_bytes, stage_params,
                              stage_state_bytes, state_bytes,
                              vanilla_state_bytes)


def ffn_width(d: int) -> int:
    # The nearest integer to 8d/3; its fractional part is 0, 1/3 or 2/3.
    return round(8 * d / 3)


def per_layer_oracle(d: int) -> int:
    # Count the arrays directly: 4 attention (d x d), gate/up (f x d),
    # down (d x f) with f = round(8d/3), two gain vectors.
    f = ffn_width(d)
    return 4 * d * d + 2 * f * d + d * f + 2 * d


def per_layer_adapter_oracle(d: int, r: int) -> int:
    # One (out, r) + (r, in) pair per matrix.
    f = ffn_width(d)
    total = 4 * (d * r + r * d)            # attention, square
    total += 2 * (f * r + r * d)           # gate, up
    total += d * r + r * f                 # down
    return total


@pytest.mark.parametrize("d", [3, 12, 48, 96, 384, 1536])
def test_layer_params_matches_array_census(d):
    # 8d/3 is an integer here, so the 12d^2 + 2d accounting model coincides
    # with a literal census of the arrays.
    assert layer_params(d) == per_layer_oracle(d)


@pytest.mark.parametrize("d", [1, 1600, 2048])
def test_layer_params_accounting_model_off_multiples_of_three(d):
    # Off multiples of 3 the default width rounds 8d/3 to the nearest
    # integer, shifting the census by exactly d while the accounting model
    # keeps the nominal fractional width.  All byte figures elsewhere use
    # the accounting model, so pin the deviation rather than hide it.
    f = ffn_width(d)
    assert abs(8 * d - 3 * f) == 1
    assert abs(per_layer_oracle(d) - layer_params(d)) == d


@pytest.mark.parametrize("d,expected", [
    (1, 14),
    (96, 110_784),
    (1536, 28_314_624),
    (1600, 30_723_200),
    (2048, 50_335_744),
])
def test_layer_params_known_values(d, expected):
    assert layer_params(d) == expected


def test_fourteen_layer_total():
    # 14 layers at d=2048, non-embedding: the "700M-class" depth target.
    assert 14 * layer_params(2048) == 704_700_416


@pytest.mark.parametrize("d,r", [(3, 1), (48, 4), (96, 8), (1536, 128)])
def test_adapter_params_matches_factor_census(d, r):
    assert adapter_params(d, r) == per_layer_adapter_oracle(d, r)
    assert adapter_params(d, r) == 19 * r * d


@pytest.mark.parametrize("d,r", [(1600, 128), (2048, 128)])
def test_adapter_params_accounting_model_off_multiples_of_three(d, r):
    # Same nominal-width convention as layer_params: census shifts by r.
    assert abs(per_layer_adapter_oracle(d, r) - adapter_params(d, r)) == r
    assert adapter_params(d, r) == 19 * r * d


@pytest.mark.parametrize("d,r,expected", [
    (1536, 128, 3_735_552),
    (2048, 128, 4_980_736),
    (1600, 128, 3_891_200),
    (96, 8, 14_592),
])
def test_adapter_params_known_values(d, r, expected):
    assert adapter_params(d, r) == expected


def test_seven_adapted_layers():
    assert 7 * adapter_params(1600, 128) == 27_238_400


def test_adapter_rank_zero():
    assert adapter_params(512, 0) == 0


@pytest.mark.parametrize("layers,d,expected", [
    (24, 2048, 19_328_925_696),
    (12, 1600, 5_898_854_400),
    (24, 1536, 10_872_815_616),
])
def test_vanilla_state_bytes_known_values(layers, d, expected):
    assert vanilla_state_bytes(layers, d) == expected
    # 16 bytes per parameter, straight product.
    assert vanilla_state_bytes(layers, d) == 16 * layers * layer_params(d)


@pytest.mark.parametrize("plan,d,r,expected", [
    ((14, 10), 1536, 128, (6_342_475_776, 6_159_912_960)),
    ((11, 8, 5), 2048, 128, (8_859_090_944, 8_426_971_136, 7_453_761_536)),
    ((7, 5), 1600, 128, (3_440_998_400, 3_323_795_200)),
    ((10, 8, 6), 2048, 128, (8_053_719_040, 8_246_607_872, 8_078_770_176)),
])
def test_stage_bytes_known_plans(plan, d, r, expected):
    shape = ModelShape(hidden_dim=d, layer_count=sum(plan), adapter_rank=r)
    est = plan_peak_bytes(plan, shape)
    assert est.per_stage_bytes == expected
    # Re-derive each stage from scratch: 16 new + 2 frozen + 16 adapters.
    p, e = layer_params(d), adapter_params(d, r)
    for i, n in enumerate(plan):
        prior = sum(plan[:i])
        assert expected[i] == 16 * n * p + 2 * prior * p + 16 * prior * e


def test_stage_rule_and_byte_rate():
    shape = ModelShape(hidden_dim=48, layer_count=7, adapter_rank=4)
    p, e = layer_params(48), adapter_params(48, 4)
    params = stage_params(3, 4, shape)
    assert params == (4 * p, 3 * p, 3 * e, 0)
    assert params.trainable == 4 * p + 3 * e
    assert state_bytes(1) == 16 and state_bytes(0, 1) == 2
    assert (state_bytes(params.trainable, params.frozen_layer)
            == stage_state_bytes((3, 4), 2, shape).total_bytes)


def test_first_stage_equals_vanilla():
    for d, r, plan in [(3, 1, (2, 2)), (48, 8, (5, 3, 1)), (1536, 128, (14, 10))]:
        shape = ModelShape(hidden_dim=d, layer_count=sum(plan), adapter_rank=r)
        got = stage_state_bytes(plan, 1, shape)
        assert got.total_bytes == vanilla_state_bytes(plan[0], d)


@pytest.mark.parametrize("seed", range(20))
def test_stage_breakdown_additivity(seed):
    import random
    rnd = random.Random(seed)
    d = rnd.randrange(1, 300)
    r = rnd.randrange(0, 64)
    plan = [rnd.randrange(1, 9) for _ in range(rnd.randrange(1, 5))]
    emb = rnd.choice([0, 1000, 123_456])
    shape = ModelShape(hidden_dim=d, layer_count=sum(plan), adapter_rank=r)
    for i in range(1, len(plan) + 1):
        s = stage_state_bytes(plan, i, shape, embedding_params=emb)
        assert s.total_bytes == (s.new_layer_state_bytes + s.frozen_param_bytes
                                 + s.adapter_state_bytes + s.embedding_state_bytes)
        if emb == 0:
            assert s.embedding_state_bytes == 0


def test_monotone_in_new_and_prior_layers():
    shape = ModelShape(hidden_dim=48, layer_count=12, adapter_rank=4)
    base = stage_state_bytes((3, 4), 2, shape).total_bytes
    more_new = stage_state_bytes((3, 5), 2, shape).total_bytes
    more_prior = stage_state_bytes((4, 4), 2, shape).total_bytes
    assert more_new > base
    assert more_prior > base


def test_embedding_addon_shifts_all_stages_equally():
    shape = ModelShape(hidden_dim=96, layer_count=8, adapter_rank=8)
    emb = embedding_params(256, 96)
    plain = plan_peak_bytes((4, 4), shape)
    shifted = plan_peak_bytes((4, 4), shape, embedding_params=emb)
    deltas = {b - a for a, b in zip(plain.per_stage_bytes, shifted.per_stage_bytes)}
    assert deltas == {16 * emb}
    assert plain.peak_stage == shifted.peak_stage


def test_embedding_params_helper():
    assert embedding_params(256, 96) == 2 * 256 * 96 + 96
    assert embedding_params(256, 96, tied=True) == 256 * 96 + 96


def test_peak_selection():
    shape = ModelShape(hidden_dim=1536, layer_count=24, adapter_rank=128)
    est = plan_peak_bytes((14, 10), shape)
    assert est.peak_bytes == 6_342_475_776
    assert est.peak_stage == 1


def test_stage_index_out_of_range():
    shape = ModelShape(hidden_dim=48, layer_count=4)
    with pytest.raises(IndexError):
        stage_state_bytes((2, 2), 3, shape)
    with pytest.raises(IndexError):
        stage_state_bytes((2, 2), 0, shape)


def test_invalid_plan_rejected():
    shape = ModelShape(hidden_dim=48, layer_count=4)
    with pytest.raises(ValueError):
        stage_state_bytes((2, 0), 1, shape)
    with pytest.raises(ValueError):
        plan_peak_bytes((), shape)


@pytest.mark.parametrize("increments", [(2.7, 1), (2, True), (True,), (2.0, 2),
                                        (np.float64(2.0),), ("2",)])
def test_plan_rejects_non_integer_increments(increments):
    with pytest.raises(ValueError, match="integer"):
        StagePlan(increments)
    with pytest.raises(ValueError, match="integer"):
        stage_state_bytes(increments, 1, ModelShape(hidden_dim=48, layer_count=4))


def test_plan_takes_numpy_integers_as_python_ints():
    plan = StagePlan((np.int64(3), np.uint8(2)))
    assert plan.increments == (3, 2)
    assert all(type(n) is int for n in plan.increments)
    assert plan == StagePlan((3, 2))


def test_shape_validation():
    with pytest.raises(ValueError):
        ModelShape(hidden_dim=0, layer_count=1)
    with pytest.raises(ValueError):
        ModelShape(hidden_dim=4, layer_count=0)
    with pytest.raises(ValueError):
        ModelShape(hidden_dim=4, layer_count=1, adapter_rank=-1)
    with pytest.raises(ValueError):
        layer_params(0)
    with pytest.raises(ValueError):
        adapter_params(4, -1)


def test_gigabytes_decimal():
    assert gigabytes(1_000_000_000) == 1.0
    assert format_gb(6_342_475_776) == "6.342 GB"


def test_stage_memory_is_frozen_record():
    s = StageMemory(1, 2, 0, 32, 0, 0)
    with pytest.raises(AttributeError):
        s.new_layers = 5
