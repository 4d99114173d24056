"""Optimizer-state memory accounting for staged decoder training.

Everything here is exact integer arithmetic over parameter counts, from one
stage rule and one byte rate; every byte figure in the package derives from
these two (the FLOP rate is stagegrow.planner.stage_flops).

`stage_params` is the stage rule.  During stage i of a grown schedule the
n_i freshly added layers train, while the N_{i-1} previously trained layers
sit frozen with trainable adapters on top.  A decoder layer with hidden size
d, LLaMA-style (4 attention d x d matrices, gate/up/down feed-forward at
width 8d/3, two norm gain vectors) carries P = 12 d^2 + 2 d parameters; a
rank-r adapter pair on each of its matrices adds E = 19 r d.

`state_bytes` is the byte rate, for fp16-style weights with an Adam-style
optimizer kept in 32-bit:

    trainable parameter: 2 (weight) + 2 (grad) + 12 (optimizer moments) = 16 B
    frozen parameter:    2 (weight)                                     =  2 B

so bytes(i) = 16 n_i P + 2 N_{i-1} P + 16 N_{i-1} E.  Embeddings, when
modelled at all, are a constant 16 B/param add-on in every stage; it shifts
all stages equally and can never change which stage is the peak or which
plan minimizes it.  Every function taking a plan normalizes it through
`StagePlan.of`.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

TRAINABLE_BYTES = 16  # weight + grad + two optimizer moments
FROZEN_BYTES = 2      # weight only


@dataclass(frozen=True)
class ModelShape:
    """Static shape info that the byte and FLOPs formulas range over."""

    hidden_dim: int
    layer_count: int
    adapter_rank: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.layer_count < 1:
            raise ValueError(f"layer_count must be >= 1, got {self.layer_count}")
        if self.adapter_rank < 0:
            raise ValueError(f"adapter_rank must be >= 0, got {self.adapter_rank}")


@dataclass(frozen=True)
class StagePlan:
    """Layer increments per stage; stage i trains increments[i-1] new layers."""

    increments: tuple[int, ...]

    def __post_init__(self) -> None:
        inc = tuple(self.increments)
        if not inc:
            raise ValueError("a plan needs at least one stage")
        for n in inc:
            # numpy integers pass; a bool or a float (even an integral one) does not.
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise ValueError(f"every increment must be an integer, got {inc}")
            if n < 1:
                raise ValueError(f"every stage must add at least one layer, got {inc}")
        object.__setattr__(self, "increments", tuple(map(int, inc)))

    @classmethod
    def of(cls, plan) -> StagePlan:
        """`plan` itself if it is a StagePlan, else the plan of its increments."""
        return plan if isinstance(plan, cls) else cls(tuple(plan))

    def __iter__(self):
        return iter(self.increments)

    def __len__(self) -> int:
        return len(self.increments)

    @property
    def cumulative(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.increments))

    @property
    def stages(self) -> tuple[tuple[int, int], ...]:
        """(prior, new) layer counts of each stage: stage i adds new on prior."""
        priors = itertools.accumulate(self.increments[:-1], initial=0)
        return tuple(zip(priors, self.increments))

    def describe(self) -> str:
        """Cumulative depth chain, e.g. '14 -> 24'."""
        return " -> ".join(str(n) for n in self.cumulative)


def layer_params(hidden_dim: int) -> int:
    """Parameters in one decoder layer: 12 d^2 + 2 d.

    4 attention projections (d x d) + three feed-forward matrices at width
    8d/3 (8 d^2 total) + two norm gain vectors (2 d).
    """
    if hidden_dim < 1:
        raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim}")
    return 12 * hidden_dim * hidden_dim + 2 * hidden_dim


def adapter_params(hidden_dim: int, rank: int) -> int:
    """Adapter parameters for one fully adapted layer: 19 r d.

    Each of the 7 matrices gets a rank-r factor pair sized (out, r) and
    (r, in); with ffn width 8d/3 the per-layer total collapses to 19 r d.
    """
    if hidden_dim < 1:
        raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim}")
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank}")
    return 19 * rank * hidden_dim


def embedding_params(vocab_size: int, hidden_dim: int, tied: bool = False) -> int:
    """Parameters in the embedding class: V*d in, V*d out (unless tied), final gain."""
    table = vocab_size * hidden_dim
    return (table if tied else 2 * table) + hidden_dim


class StageParams(NamedTuple):
    """Non-embedding parameters by role while one stage trains."""

    new_layer: int
    frozen: int
    adapter: int

    @property
    def trainable(self) -> int:
        return self.new_layer + self.adapter


def stage_params(prior_layers: int, new_layers: int, shape: ModelShape) -> StageParams:
    """The stage rule: new layers train, prior layers freeze under adapters."""
    p = layer_params(shape.hidden_dim)
    e = adapter_params(shape.hidden_dim, shape.adapter_rank)
    return StageParams(new_layers * p, prior_layers * p, prior_layers * e)


def state_bytes(trainable: int, frozen: int = 0) -> int:
    """The byte rate: 16 B per trainable parameter, 2 B per frozen one."""
    return TRAINABLE_BYTES * trainable + FROZEN_BYTES * frozen


def vanilla_state_bytes(layer_count: int, hidden_dim: int, embedding_params: int = 0) -> int:
    """Bytes to train all layers at once: 16 B/param across the board."""
    return state_bytes(layer_params(hidden_dim) * layer_count + embedding_params)


@dataclass(frozen=True)
class StageMemory:
    """Byte breakdown for one stage; total is the sum of the parts."""

    stage: int  # 1-based
    new_layers: int
    prior_layers: int
    new_layer_state_bytes: int
    frozen_param_bytes: int
    adapter_state_bytes: int
    embedding_state_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return (self.new_layer_state_bytes + self.frozen_param_bytes
                + self.adapter_state_bytes + self.embedding_state_bytes)


def stage_state_bytes(plan, stage: int, shape: ModelShape,
                      embedding_params: int = 0) -> StageMemory:
    """Optimizer-state bytes while stage `stage` (1-based) of `plan` trains.

    New layers cost 16 B/param, previously grown layers 2 B/param frozen plus
    16 B/param for their adapters.  With no prior layers (stage 1) this
    reduces to vanilla_state_bytes over the stage's own layers.
    """
    plan = StagePlan.of(plan)
    if not 1 <= stage <= len(plan):
        raise IndexError(f"stage {stage} out of range 1..{len(plan)}")
    n_prior, n_new = plan.stages[stage - 1]
    params = stage_params(n_prior, n_new, shape)
    return StageMemory(
        stage=stage,
        new_layers=n_new,
        prior_layers=n_prior,
        new_layer_state_bytes=state_bytes(params.new_layer),
        frozen_param_bytes=state_bytes(0, params.frozen),
        adapter_state_bytes=state_bytes(params.adapter),
        embedding_state_bytes=state_bytes(embedding_params),
    )


@dataclass(frozen=True)
class MemoryEstimate:
    """Per-stage byte totals for a whole plan, plus the peak."""

    stages: tuple[StageMemory, ...]

    @property
    def per_stage_bytes(self) -> tuple[int, ...]:
        return tuple(s.total_bytes for s in self.stages)

    @property
    def peak_bytes(self) -> int:
        return max(self.per_stage_bytes)

    @property
    def peak_stage(self) -> int:
        """1-based index of the first stage attaining the peak."""
        per = self.per_stage_bytes
        return per.index(max(per)) + 1


def plan_peak_bytes(plan, shape: ModelShape, embedding_params: int = 0) -> MemoryEstimate:
    """Evaluate stage_state_bytes for every stage of `plan`."""
    plan = StagePlan.of(plan)
    return MemoryEstimate(tuple(
        stage_state_bytes(plan, i, shape, embedding_params)
        for i in range(1, len(plan) + 1)
    ))


def gigabytes(num_bytes: int) -> float:
    """Decimal gigabytes, the unit used for human-facing reports."""
    return num_bytes / 1e9


def format_gb(num_bytes: int) -> str:
    return f"{gigabytes(num_bytes):.3f} GB"
