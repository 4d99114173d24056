"""stagegrow: plan, grow, and train small decoders stage by stage.

The package splits into planning math (exact integer accounting, no model
needed) and a runnable toy stack (numpy autodiff, decoder, trainer) whose
measured censuses reconcile with the planning formulas.
"""

from .memory import (MemoryEstimate, ModelShape, ParamCounts, StageMemory,
                     adapter_params, embedding_params, gigabytes, layer_params,
                     plan_peak_bytes, stage_state_bytes, vanilla_state_bytes)
from .planner import (BudgetError, FlopsBudget, PlanInfeasibleError,
                      StagePlan, equal_memory_relaxation, flops_staged,
                      flops_vanilla, solve_exact, solve_rounded, split_steps,
                      stage_flops, stage_param_counts, token_budget)
from .autodiff import NonFiniteError, Tensor
from .model import (ModelConfig, ToyModel, build_model, forward,
                    named_parameters, param_counts, trainable_parameters)
from .growth import (GrowthError, GrowthOptions, attach_adapters,
                     freeze_layers, grow, insertion_gaps, merge_adapters,
                     reset_adapters)
from .checkpoint import (CheckpointError, DigestError, load_checkpoint,
                         save_checkpoint)
from .data import (CorpusError, EvalOptions, PplReport, TokenStream,
                   batch_cycle, batches, load_corpus, perplexity, window_count)
from .trainer import (RunLedger, RunResult, StageRecord, TrainConfig,
                      adamw_step, clip_gradients, lr_at, run_schedule,
                      simulated_bytes)

__version__ = "0.1.0"
