"""Run one ``stagegrow`` CLI command in this process, measured from outside.

    python3 benchmarks/instrument.py --mode MODE --result OUT.json
        [--trace-dir DIR] -- <stagegrow arguments>

The command runs through ``stagegrow.cli.main``, the user's own path.  The
measurement replaces module-level public functions by attribute
(``data.batch_cycle``, ``model.forward``, ``autodiff.<op>``, ...); no file
of the program changes.  Modes:

light   one clock read per ``next()`` on ``data.batch_cycle`` and per
        ``model.forward`` call, plus entry and exit of ``data.perplexity``.
        End-to-end metrics come from these stamps.
probe   stops the process at the first training step or eval batch.  The
        time of the stop, against the parent's spawn time, is set-up time.
trace   spans around every wrapped call, op and backward closure, matmul
        FLOP attribution by weight operand, and tracemalloc peaks per
        step.  Spans stay in memory and are written at exit as a Chrome
        trace-event file (``<name>.trace.json``) and a flat per-function
        table (``<name>.modules.tsv``).

All clocks are ``time.monotonic_ns`` (CLOCK_MONOTONIC, shared by every
process on the machine), so the parent can subtract its spawn time.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

OPS = ("matmul", "add", "mul", "scale", "silu", "softmax", "rms_norm",
       "embedding", "cross_entropy", "reshape", "transpose", "rope")
ROLES = ("attn_proj", "attn_core", "ffn", "adapter", "head")
# trainer function -> (metric key, whether it is a whole-run total rather
# than a per-step figure)
TRAINER_FUNCS = {"adamw_step": ("trainer.adamw_ms", False),
                 "clip_gradients": ("trainer.clip_ms", False),
                 "grow": ("growth.grow_ms", True),
                 "merge_adapters": ("growth.merge_ms", True),
                 "freeze_layers": ("growth.freeze_ms", True),
                 "attach_adapters": ("growth.attach_ms", True)}
ATTN_MATRICES = ("w_q", "w_k", "w_v", "w_o")
FFN_MATRICES = ("w_gate", "w_up", "w_down")
MIB = 1024.0 * 1024.0

now = time.monotonic_ns


class Stamps:
    """Clock reads shared by all modes: the raw input of end-to-end metrics."""

    def __init__(self, stop_at_first_unit: Path | None = None):
        self.steps: list[int] = []     # one per next() on batch_cycle
        self.evals: list[dict] = []    # one per data.perplexity call
        self.first_unit: int | None = None
        self._stop_to = stop_at_first_unit

    def unit_started(self, t: int) -> None:
        if self.first_unit is None:
            self.first_unit = t
            if self._stop_to is not None:
                self._stop_to.write_text(json.dumps({"first_unit_ns": t}))
                os._exit(0)

    def to_dict(self) -> dict:
        return {"steps": self.steps, "evals": self.evals,
                "first_unit_ns": self.first_unit}


def install_stamps(stamps: Stamps, tracer: "Tracer | None" = None) -> None:
    """Wrap batch_cycle, model.forward and perplexity with clock reads."""
    from stagegrow import data, model

    orig_cycle, orig_forward, orig_ppl = data.batch_cycle, model.forward, data.perplexity

    def batch_cycle(*args, **kwargs):
        it = orig_cycle(*args, **kwargs)
        while True:
            t = now()
            stamps.unit_started(t)
            stamps.steps.append(t)
            if tracer is None:
                batch = next(it)
            else:
                tracer.step_started(t)
                batch = tracer.timed_call("data", "batch_cycle.next", next, (it,), {},
                                          acc_key="data.batch_wait_ms")
            yield batch

    def forward(*args, **kwargs):
        t = now()
        if stamps.evals and stamps.evals[-1]["exit_ns"] is None:
            stamps.evals[-1]["forward_ns"].append(t)
            stamps.unit_started(t)
            if tracer is not None:
                tracer.eval_batch_started()
        if tracer is None:
            return orig_forward(*args, **kwargs)
        return tracer.forward(orig_forward, args, kwargs)

    def perplexity(*args, **kwargs):
        call = {"enter_ns": now(), "exit_ns": None, "tokens": None, "forward_ns": []}
        stamps.evals.append(call)
        if tracer is not None:
            tracer.eval_started()
            report = tracer.timed_call("data", "perplexity", orig_ppl, args, kwargs,
                                       acc_key="data.perplexity_ms", total=True)
        else:
            report = orig_ppl(*args, **kwargs)
        call["exit_ns"] = now()
        call["tokens"] = report.tokens
        call["loss"] = report.loss
        if tracer is not None:
            tracer.eval_finished()
        return report

    data.batch_cycle = batch_cycle
    model.forward = forward
    data.perplexity = perplexity


class Tracer:
    """Spans, per-module times and matmul FLOP attribution for one process.

    Work is grouped into segments: ("train", k) holds the steps of stage k,
    ("eval", j) the batches of the j-th perplexity call.  Per-step figures
    are totals of a segment divided by its unit count (steps or batches).
    """

    def __init__(self):
        self.spans: list[list] = []   # [label, start, end, parent, unit]
        self.stack: list[int] = []
        self.unit_labels: list[str] = []
        self.unit: int | None = None
        self.stage = 1
        self.train_seg: tuple = ("train", 1)
        self.seg: tuple = self.train_seg
        self.eval_count = 0
        self.acc = defaultdict(lambda: defaultdict(float))
        self.units = defaultdict(int)
        self.totals = defaultdict(float)    # whole-process figures
        self.peaks = defaultdict(list)      # seg -> tracemalloc peak per unit
        self.retained = defaultdict(list)   # seg -> current bytes at unit start
        self.unit_open = False
        self.scope = "embed"
        self.param_names: dict[int, tuple[str, object]] = {}
        self.closure_ns = 0
        self.last_save_end: int | None = None
        self.boundary_ns = 0.0
        self.analytic = {"forward_calls": 0, "mismatched_calls": 0,
                         "analytic_flops": 0, "executed_flops": 0}
        self.fwd_matmul_flops = 0

    # -- spans ------------------------------------------------------------

    def open(self, label: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([label, now(), 0, parent, self.unit])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> int:
        end = now()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        return end - span[1]

    def timed_call(self, module: str, func: str, fn, args, kwargs, *,
                   acc_key: str | None = None, total: bool = False):
        idx = self.open(f"{module}.{func}")
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.close(idx)
            if acc_key is not None:
                if total:
                    self.totals[acc_key] += dt
                else:
                    self.acc[self.seg][acc_key] += dt

    # -- units (training steps, eval batches) -------------------------------

    def _new_unit(self, label: str) -> None:
        self.unit = len(self.unit_labels)
        self.unit_labels.append(label)

    def _memory_boundary(self, opening: bool) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self.unit_open:
            self.peaks[self.seg].append(peak)
        if opening:
            self.retained[self.seg].append(current)
        tracemalloc.reset_peak()
        self.unit_open = opening

    def step_started(self, t: int) -> None:
        if self.last_save_end is not None and self.units[self.train_seg] == 0:
            self.boundary_ns += t - self.last_save_end
        self.seg = self.train_seg
        self._memory_boundary(opening=True)
        self.units[self.seg] += 1
        self._new_unit(f"train.stage{self.stage}.step{self.units[self.seg]}")

    def eval_started(self) -> None:
        self._memory_boundary(opening=False)
        self.eval_count += 1
        self.seg = ("eval", self.eval_count)

    def eval_batch_started(self) -> None:
        self._memory_boundary(opening=True)
        self.units[self.seg] += 1
        self._new_unit(f"eval{self.eval_count}.batch{self.units[self.seg]}")

    def eval_finished(self) -> None:
        self._memory_boundary(opening=False)
        self.seg = self.train_seg
        self.unit = None

    def stage_grown(self) -> None:
        self.stage += 1
        self.train_seg = ("train", self.stage)
        self.seg = self.train_seg

    # -- model ------------------------------------------------------------

    def forward(self, orig_forward, args, kwargs):
        from stagegrow import model as model_lib
        mdl, tokens = args[0], args[1]
        self.param_names = {}
        for name, t in model_lib.named_parameters(mdl):
            self.param_names[id(t.data)] = (name, t)
        self.scope = "embed"
        before = self.fwd_matmul_flops
        idx = self.open("model.forward")
        try:
            out = orig_forward(*args, **kwargs)
        finally:
            self.acc[self.seg]["model.forward_ms"] += self.close(idx)
            self.scope = "loss"
        executed = self.fwd_matmul_flops - before
        expected = analytic_forward_flops(mdl, tokens)
        self.analytic["forward_calls"] += 1
        self.analytic["analytic_flops"] += expected
        self.analytic["executed_flops"] += executed
        self.analytic["mismatched_calls"] += int(executed != expected)
        return out

    def _param(self, t) -> tuple[str, object] | None:
        arr = t.data
        hit = self.param_names.get(id(arr))
        if hit is None and arr.base is not None:
            hit = self.param_names.get(id(arr.base))
        return hit

    def _matmul_role(self, b) -> tuple[str, str, object | None]:
        """(role, scope, weight tensor) for a matmul whose weight operand is b."""
        hit = self._param(b)
        if hit is None:
            return "attn_core", self.scope, None
        name, weight = hit
        parts = name.split(".")
        if parts[0] in ("embed", "unembed"):
            return "head", "head", weight
        if parts[0] == "layers":
            scope = f"layer{parts[1]}"
            if parts[2] == "adapters":
                return "adapter", scope, None
            if parts[2] in ATTN_MATRICES:
                return "attn_proj", scope, weight
            if parts[2] in FFN_MATRICES:
                return "ffn", scope, weight
        return "unknown", self.scope, None

    # -- autodiff ---------------------------------------------------------

    def wrap_op(self, op: str, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            if op == "rms_norm":
                hit = tracer._param(args[1])
                if hit is not None:
                    parts = hit[0].split(".")
                    tracer.scope = f"layer{parts[1]}" if parts[0] == "layers" else "head"
            idx = tracer.open(f"autodiff.{op}")
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = tracer.close(idx)
            acc = tracer.acc[tracer.seg]
            acc[f"autodiff.fwd_ms.{op}"] += dt
            acc["autodiff.nodes"] += 1
            acc[f"scope.fwd.{tracer.scope}"] += dt
            role = weight = a = None
            scope, flops_back = tracer.scope, 0
            if op == "matmul":
                a, b = args[0], args[1]
                role, scope, weight = tracer._matmul_role(b)
                flops = 2 * out.data.size * a.data.shape[-1]
                tracer.fwd_matmul_flops += flops
                tracer._count_matmul(role, scope, weight, flops, dt, "fwd", a)
                # Backward computes one product per operand that needs a grad.
                flops_back = flops * (int(a.requires_grad) + int(b.requires_grad))
            if out._backward is not None:
                out._backward = tracer._timed_backward(
                    out._backward, op, scope, role, weight, flops_back, a)
            return out

        return wrapper

    def _count_matmul(self, role, scope, weight, flops, dt, phase, a) -> None:
        acc = self.acc[self.seg]
        acc["matmul.flops_total"] += flops
        if role in ROLES:
            acc[f"model.matmul_{phase}_ms.{role}"] += dt
            acc[f"matmul.flops.role.{role}"] += flops
        if scope == "head" or scope.startswith("layer"):
            acc[f"matmul.flops.scope.{scope}"] += flops
        if weight is not None and role in ("attn_proj", "ffn"):
            kind = "trainable" if weight.requires_grad else "frozen"
            acc[f"matmul.flops.{kind}"] += flops
            if phase == "fwd":
                tokens = a.data.size // a.data.shape[-1]
                acc[f"matmul.param_tokens.{kind}"] += weight.data.size * tokens

    def _timed_backward(self, closure, op, scope, role, weight, flops, a):
        tracer = self

        def timed():
            idx = tracer.open(f"autodiff.{op}.backward")
            try:
                closure()
            finally:
                dt = tracer.close(idx)
            tracer.closure_ns += dt
            acc = tracer.acc[tracer.seg]
            acc[f"autodiff.bwd_ms.{op}"] += dt
            acc[f"scope.bwd.{scope}"] += dt
            if op == "matmul":
                tracer._count_matmul(role, scope, weight, flops, dt, "bwd", a)

        return timed

    def wrap_backward(self, orig):
        tracer = self

        def backward(self_tensor):
            before = tracer.closure_ns
            idx = tracer.open("autodiff.Tensor.backward")
            try:
                orig(self_tensor)
            finally:
                dt = tracer.close(idx)
            acc = tracer.acc[tracer.seg]
            acc["trainer.backward_ms"] += dt
            acc["autodiff.backward_overhead_ms"] += dt - (tracer.closure_ns - before)

        return backward

    # -- output -----------------------------------------------------------

    def write_trace(self, directory: Path, name: str) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        child_ns = defaultdict(int)
        for label, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = defaultdict(lambda: [0, 0, 0])
        with open(directory / f"{name}.trace.json", "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, (label, start, end, parent, unit) in enumerate(self.spans):
                module, _, func = label.partition(".")
                event = {"name": func, "cat": module, "ph": "X", "pid": pid,
                         "tid": 1, "ts": start / 1e3, "dur": (end - start) / 1e3,
                         "args": {"id": i, "parent": parent,
                                  "step": None if unit is None else self.unit_labels[unit]}}
                fh.write(("," if i else "") + json.dumps(event) + "\n")
                row = table[label]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child_ns[i]
            fh.write("]}\n")
        with open(directory / f"{name}.modules.tsv", "w") as fh:
            fh.write("module\tfunction\tcalls\ttotal_ms\tself_ms\n")
            for label, (calls, total, self_ns) in sorted(
                    table.items(), key=lambda kv: -kv[1][2]):
                module, _, func = label.partition(".")
                fh.write(f"{module}\t{func}\t{calls}\t{total / 1e6:.3f}\t"
                         f"{self_ns / 1e6:.3f}\n")

    def summary(self) -> dict:
        """Per-step module figures of this process's main segment, and totals.

        The main segment is the last training stage if the process trained,
        else its last perplexity call.
        """
        train_segs = sorted(s for s in self.units if s[0] == "train" and self.units[s])
        eval_segs = sorted(s for s in self.units if s[0] == "eval" and self.units[s])
        main = train_segs[-1] if train_segs else (eval_segs[-1] if eval_segs else None)
        out: dict = {"main_segment": list(main) if main else None, "metrics": {},
                     "invariants": {}}
        m = out["metrics"]
        if main is not None:
            acc, n = self.acc[main], self.units[main]

            def per_unit_ms(key: str) -> float:
                return acc.get(key, 0.0) / n / 1e6

            for op in OPS:
                m[f"autodiff.fwd_ms.{op}"] = per_unit_ms(f"autodiff.fwd_ms.{op}")
                m[f"autodiff.bwd_ms.{op}"] = per_unit_ms(f"autodiff.bwd_ms.{op}")
            m["autodiff.backward_overhead_ms"] = per_unit_ms("autodiff.backward_overhead_ms")
            m["autodiff.nodes_per_step"] = acc.get("autodiff.nodes", 0.0) / n
            peaks = self.peaks[main]
            m["autodiff.step_peak_mb"] = (max(peaks) if peaks else 0) / MIB
            retained = sorted(self.retained[main])
            m["autodiff.retained_mb"] = retained[len(retained) // 2] / MIB if retained else 0.0
            for role in ROLES:
                m[f"model.matmul_fwd_ms.{role}"] = per_unit_ms(f"model.matmul_fwd_ms.{role}")
                m[f"model.matmul_bwd_ms.{role}"] = per_unit_ms(f"model.matmul_bwd_ms.{role}")
                m[f"model.matmul_gflop.{role}"] = acc.get(f"matmul.flops.role.{role}", 0) / n / 1e9
            for i in range(8):
                m[f"model.layer{i}.fwd_ms"] = per_unit_ms(f"scope.fwd.layer{i}")
                m[f"model.layer{i}.bwd_ms"] = per_unit_ms(f"scope.bwd.layer{i}")
            m["model.forward_ms"] = per_unit_ms("model.forward_ms")
            if main[0] == "train":
                m["trainer.clip_ms"] = per_unit_ms("trainer.clip_ms")
                m["trainer.adamw_ms"] = per_unit_ms("trainer.adamw_ms")
                m["trainer.loss_ms"] = per_unit_ms("autodiff.fwd_ms.cross_entropy")
                m["trainer.backward_ms"] = per_unit_ms("trainer.backward_ms")
                m["data.batch_wait_ms"] = per_unit_ms("data.batch_wait_ms")
            inv = out["invariants"]
            inv["matmul_flops_total"] = acc.get("matmul.flops_total", 0)
            inv["matmul_flops_by_role"] = sum(
                acc.get(f"matmul.flops.role.{r}", 0) for r in ROLES)
            inv["matmul_flops_by_scope"] = sum(
                v for k, v in acc.items() if k.startswith("matmul.flops.scope."))
        if train_segs:
            trainable = frozen = trainable_pt = frozen_pt = 0.0
            for seg in train_segs:
                acc = self.acc[seg]
                trainable += acc.get("matmul.flops.trainable", 0)
                frozen += acc.get("matmul.flops.frozen", 0)
                trainable_pt += acc.get("matmul.param_tokens.trainable", 0)
                frozen_pt += acc.get("matmul.param_tokens.frozen", 0)
            m["model.trainable_flops_per_param_token"] = (
                trainable / trainable_pt if trainable_pt else 0.0)
            m["model.frozen_flops_per_param_token"] = frozen / frozen_pt if frozen_pt else 0.0
            m["trainer.boundary_ms"] = self.boundary_ns / 1e6
            for key in ("growth.merge_ms", "growth.grow_ms", "growth.freeze_ms",
                        "growth.attach_ms", "checkpoint.save_ms", "data.perplexity_ms"):
                m[key] = self.totals.get(key, 0.0) / 1e6
        if "checkpoint.load_ms" in self.totals:
            m["checkpoint.load_ms"] = self.totals["checkpoint.load_ms"] / 1e6
        if "checkpoint.blob_bytes" in self.totals:
            m["checkpoint.blob_bytes"] = self.totals["checkpoint.blob_bytes"]
        m["data.load_corpus_ms"] = self.totals.get("data.load_corpus_ms", 0.0) / 1e6
        out["invariants"].update(self.analytic)
        return out


def analytic_forward_flops(mdl, tokens) -> int:
    """Forward matmul FLOPs of one forward call, from the shapes alone.

    Per token: 24 d^2 per layer, 4 T d of attention core per layer,
    38 r d per adapted layer (all seven matrices adapted) and 2 V d for
    the output head.
    """
    batch, seq = tokens.shape
    d = mdl.config.hidden_dim
    per_token = 2 * mdl.config.vocab_size * d
    for layer in mdl.layers:
        per_token += 24 * d * d + 4 * seq * d
        if layer.adapters:
            rank = next(iter(layer.adapters.values())).rank
            per_token += 38 * rank * d
    return per_token * batch * seq


def install_tracer(tracer: Tracer) -> None:
    from stagegrow import autodiff, checkpoint, data, trainer

    for op in OPS:
        setattr(autodiff, op, tracer.wrap_op(op, getattr(autodiff, op)))
    autodiff.Tensor.backward = tracer.wrap_backward(autodiff.Tensor.backward)

    for func, (key, total) in TRAINER_FUNCS.items():
        def wrapper(*args, _orig=getattr(trainer, func), _func=func, _key=key,
                    _total=total, **kwargs):
            if _func == "grow":
                tracer.stage_grown()
            return tracer.timed_call("trainer", _func, _orig, args, kwargs,
                                     acc_key=_key, total=_total)

        setattr(trainer, func, wrapper)

    orig_load_corpus = data.load_corpus
    orig_save, orig_load = checkpoint.save_checkpoint, checkpoint.load_checkpoint

    def load_corpus(*args, **kwargs):
        return tracer.timed_call("data", "load_corpus", orig_load_corpus, args,
                                 kwargs, acc_key="data.load_corpus_ms", total=True)

    def save_checkpoint(*args, **kwargs):
        directory = tracer.timed_call("checkpoint", "save_checkpoint", orig_save,
                                      args, kwargs, acc_key="checkpoint.save_ms",
                                      total=True)
        tracer.last_save_end = now()
        tracer.totals["checkpoint.blob_bytes"] = (
            Path(directory) / checkpoint.BLOB_NAME).stat().st_size
        return directory

    def load_checkpoint(*args, **kwargs):
        loaded, manifest = tracer.timed_call(
            "checkpoint", "load_checkpoint", orig_load, args, kwargs,
            acc_key="checkpoint.load_ms", total=True)
        tracer.totals["checkpoint.blob_bytes"] = manifest["blob_bytes"]
        return loaded, manifest

    data.load_corpus = load_corpus
    checkpoint.save_checkpoint = save_checkpoint
    checkpoint.load_checkpoint = load_checkpoint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("light", "probe", "trace"), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--trace-name", default="run")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    if args.mode == "trace":
        tracemalloc.start()
    sys.path.insert(0, str(ROOT / "src"))
    from stagegrow import cli

    stamps = Stamps(args.result if args.mode == "probe" else None)
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        install_tracer(tracer)
    install_stamps(stamps, tracer)

    status = cli.main(command)
    result = {"stamps": stamps.to_dict(),
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracemalloc.stop()
        result["trace"] = tracer.summary()
        if args.trace_dir is not None:
            tracer.write_trace(args.trace_dir, args.trace_name)
    args.result.write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
