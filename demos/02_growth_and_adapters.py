"""Show the three structural moves: grow, freeze+adapt, merge.

Everything here is exact or near-exact by construction, and the script
prints the deviations so you can see which is which: growth with zeroed
residual outputs changes nothing (bit-exact), adapter attachment changes
nothing (A starts at zero), and merging a trained adapter back into its
frozen matrix only costs one float32 rounding.

Run: python3 demos/02_growth_and_adapters.py
"""
import numpy as np

from stagegrow.growth import (GrowthOptions, attach_adapters, freeze_layers,
                              grow, insertion_gaps, merge_adapters)
from stagegrow.model import ModelConfig, build_model, forward, param_counts

rng = np.random.default_rng(0)
config = ModelConfig(hidden_dim=48, head_count=4, vocab_size=256, max_seq_len=32)
model = build_model(config, 4, seed=0)
ids = rng.integers(0, 256, size=(2, 24))
reference = forward(model, ids).data.copy()
print(f"base model: {len(model.layers)} layers, "
      f"{param_counts(model).total:,} params")

# Where do new layers land?  Gap g means "above old layer g".
print("\ninsertion gaps for 2 new layers into 4 old ones:")
for position in ("upper", "intermediate", "lower", "random"):
    print(f"  {position:13s} -> gaps {insertion_gaps(4, 2, position, seed=7)}")

# Growth with function-preserving init: the new layers' residual output
# projections are zeroed, so they contribute exactly nothing at first.
options = GrowthOptions(position="upper", init="mean", fpi=True,
                        adapter_rank=4)
new_at = grow(model, 2, options, seed=7)
old_at = [i for i in range(len(model.layers)) if i not in new_at]
after_growth = forward(model, ids).data
print(f"\ngrew 4 -> {len(model.layers)} layers with fpi "
      f"(new layers at {new_at})")
print(f"  max |logit delta|: {np.max(np.abs(after_growth - reference)):.1e}"
      "  (bit-exact)")

# Freeze the original stack and attach rank-4 factors to every matrix in it.
freeze_layers(model, old_at)
attach_adapters(model, old_at, options, seed=1)
after_attach = forward(model, ids).data
counts = param_counts(model)
print(f"\nfroze 4 layers, attached rank-4 adapters: "
      f"{counts.adapter:,} adapter params, {counts.trainable:,} trainable")
print(f"  max |logit delta| vs pre-attach: "
      f"{np.max(np.abs(after_attach - after_growth)):.1e}  (A starts at 0)")

# Pretend training moved the factors, then fold them into the base weights.
for i in old_at:
    for adapter in model.layers[i].adapters.values():
        adapter.a.data[...] = rng.normal(0, 0.05, adapter.a.data.shape
                                         ).astype(np.float32)
adapted = forward(model, ids).data.copy()
merge_adapters(model)
merged = forward(model, ids).data
rel = np.max(np.abs(merged - adapted)) / np.max(np.abs(adapted))
print("\nrandomized the factors, merged them into the frozen weights")
print(f"  relative logit deviation after merge: {rel:.1e}"
      "  (one float32 rounding)")
print(f"  adapters left on the model: {sum(len(l.adapters) for l in model.layers)}")
