"""Outside-in tracer for the masksep package.

``Tracer.install()`` replaces each named public function with a timing
wrapper. A function is rebound under every name that refers to it in any
loaded ``masksep`` module, so ``rl.forward``, ``pipeline.forward`` and
``separator.forward`` all reach the same wrapper; methods are replaced on
their class. Spans (name, start, end, parent, run id) are kept in memory
and written out once, after the traced commands finish.

``layer_metrics()`` turns the spans into the per-layer metrics the
benchmark reports. A target the program no longer defines is skipped and
its metrics read 0, so the tracer keeps working when code is deleted.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "masksep"


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _forward_work(args, kwargs, result):
    model, log_mag = args[0], args[1]
    rows = log_mag.shape[0] * log_mag.shape[1]
    h, k = model.hidden_width, model.k_sources
    return {"separator.forward.rows": rows,
            "separator.gemm_gflop": 2e-9 * rows * h * (model.input_dim + k)}


def _backward_work(args, kwargs, result):
    model, cache = args[0], args[1]
    rows = cache.features.shape[0]
    h, k = model.hidden_width, model.k_sources
    # d_w2 and d_hidden are rows x h x k each, d_w1 is rows x in x h
    return {"separator.gemm_gflop": 2e-9 * rows * h * (model.input_dim + 2 * k)}


def _special_work(args, kwargs, result):
    return {"special.elements": _size(args[0])}


# (module, attribute or Class.method, counter function or None)
TARGETS = (
    ("separator", "forward", _forward_work),
    ("separator", "backward", _backward_work),
    ("separator", "params_equal", None),
    ("separator", "snapshot", None),
    ("special", "digamma", _special_work),
    ("special", "trigamma", _special_work),
    ("special", "log_gamma", _special_work),
    ("policy", "params_from_proposal", None),
    ("policy", "sample", None),
    ("policy", "log_prob_grad_math", None),
    ("policy", "entropy_grad_math", None),
    ("policy", "kl_divergence", None),
    ("policy", "kl_divergence_grad", None),
    ("spectral", "stft",
     lambda a, k, r: {"spectral.frames": r.bins.shape[1]}),
    ("spectral", "istft",
     lambda a, k, r: {"spectral.frames": a[0].bins.shape[1]}),
    ("spectral", "apply_mask_reconstruct", None),
    ("embed", "AudioFeatureEmbedder.embed", None),
    ("embed", "project", None),
    ("embed", "project_backward", None),
    ("reward", "composite_reward", None),
    ("optim", "adamw_step", None),
    ("rl", "train_step", lambda a, k, r: {"rl.items_sampled": len(a[2])}),
    ("rl", "objective_and_grads", None),
    ("rl", "warm_start", None),
    ("rl", "evaluate_mean_reward", None),
    ("pipeline", "load_dataset", None),
    ("pipeline", "prepare_train_items", None),
    ("pipeline", "separate_record", None),
    ("checkpoint", "save_checkpoint",
     lambda a, k, r: {"checkpoint.bytes_written": _file_bytes(a[0])}),
    ("checkpoint", "load_checkpoint", None),
    ("wavio", "read_wav",
     lambda a, k, r: {"wavio.read.bytes": _file_bytes(a[0])}),
    ("wavio", "write_wav",
     lambda a, k, r: {"wavio.write.bytes": _file_bytes(a[0])}),
    ("metrics", "si_sdri", None),
    ("metrics", "aggregate", None),
    ("align", "run_curriculum", None),
    ("align", "info_nce_symmetric", None),
    ("align", "stage2_loss", None),
    ("align", "stage3_loss", None),
    ("align", "build_pairs", None),
    ("align", "discrimination_gap", None),
    ("synthdata", "generate_source", None),
    ("synthdata", "build_dataset", None),
)


class Tracer:
    """Wraps the TARGETS functions and records one span per call."""

    def __init__(self):
        # span: [name, start, end, parent index (-1 for none), run id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrapper(self, name, fn, work):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    counters[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")
        modules = {}
        for mod_name, _, _ in TARGETS:
            modules[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, work in TARGETS:
            name = f"{mod_name}.{attr}"
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                fn = vars(cls)[meth]
                setattr(cls, meth, self._wrapper(name, fn, work))
                self._restore.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrapper(name, fn, work)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# Per-layer metrics: (metric, kind, span names). Kinds: "ms" inclusive busy
# time, counting a span only when no enclosing span belongs to the same
# metric; "self_ms" busy time minus the time of wrapped callees; "calls".
SPAN_METRICS = (
    ("separator.forward.ms", "ms", ("separator.forward",)),
    ("separator.forward.calls", "calls", ("separator.forward",)),
    ("separator.backward.ms", "ms", ("separator.backward",)),
    ("separator.backward.calls", "calls", ("separator.backward",)),
    ("separator.trust_region.ms", "ms",
     ("separator.params_equal", "separator.snapshot")),
    ("special.digamma.ms", "ms", ("special.digamma",)),
    ("special.trigamma.ms", "ms", ("special.trigamma",)),
    ("special.log_gamma.ms", "ms", ("special.log_gamma",)),
    ("policy.sample.self_ms", "self_ms", ("policy.sample",)),
    ("policy.grad.self_ms", "self_ms",
     ("policy.log_prob_grad_math", "policy.entropy_grad_math",
      "policy.kl_divergence_grad")),
    ("policy.kl.ms", "ms", ("policy.kl_divergence",)),
    ("policy.params.ms", "ms", ("policy.params_from_proposal",)),
    ("spectral.stft.ms", "ms", ("spectral.stft",)),
    ("spectral.istft.ms", "ms", ("spectral.istft",)),
    ("spectral.reconstruct.self_ms", "self_ms",
     ("spectral.apply_mask_reconstruct",)),
    ("embed.audio.ms", "ms", ("embed.AudioFeatureEmbedder.embed",)),
    ("embed.audio.calls", "calls", ("embed.AudioFeatureEmbedder.embed",)),
    ("embed.project.ms", "ms", ("embed.project",)),
    ("embed.project.calls", "calls", ("embed.project",)),
    ("embed.project_backward.ms", "ms", ("embed.project_backward",)),
    ("embed.project_backward.calls", "calls", ("embed.project_backward",)),
    ("reward.composite.ms", "ms", ("reward.composite_reward",)),
    ("optim.adamw.ms", "ms", ("optim.adamw_step",)),
    ("optim.adamw.calls", "calls", ("optim.adamw_step",)),
    ("rl.step.self_ms", "self_ms", ("rl.train_step",)),
    ("rl.objective.self_ms", "self_ms", ("rl.objective_and_grads",)),
    ("rl.warm_start.ms", "ms", ("rl.warm_start",)),
    ("rl.validation.ms", "ms", ("rl.evaluate_mean_reward",)),
    ("pipeline.prepare_items.ms", "ms", ("pipeline.prepare_train_items",)),
    ("pipeline.separate_record.ms", "ms", ("pipeline.separate_record",)),
    ("pipeline.load_dataset.ms", "ms", ("pipeline.load_dataset",)),
    ("checkpoint.save.ms", "ms", ("checkpoint.save_checkpoint",)),
    ("checkpoint.load.ms", "ms", ("checkpoint.load_checkpoint",)),
    ("wavio.read.ms", "ms", ("wavio.read_wav",)),
    ("wavio.write.ms", "ms", ("wavio.write_wav",)),
    ("metrics.si_sdri.ms", "ms", ("metrics.si_sdri",)),
    ("metrics.aggregate.ms", "ms", ("metrics.aggregate",)),
    ("align.curriculum.self_ms", "self_ms", ("align.run_curriculum",)),
    ("align.loss.ms", "ms",
     ("align.info_nce_symmetric", "align.stage2_loss", "align.stage3_loss")),
    ("align.build_pairs.ms", "ms", ("align.build_pairs",)),
    ("align.build_pairs.calls", "calls", ("align.build_pairs",)),
    ("align.gap.ms", "ms", ("align.discrimination_gap",)),
    ("synthdata.generate_source.ms", "ms", ("synthdata.generate_source",)),
    ("synthdata.build_dataset.self_ms", "self_ms", ("synthdata.build_dataset",)),
)

# per-layer metrics accumulated by the TARGETS counter functions
COUNTER_METRICS = (
    "separator.forward.rows", "separator.gemm_gflop", "special.elements",
    "spectral.frames", "checkpoint.bytes_written", "wavio.read.bytes",
    "wavio.write.bytes",
)


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics from recorded spans and call-time counters."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor_in(idx, names):
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    by_name: dict[str, list[int]] = defaultdict(list)
    for idx, rec in enumerate(spans):
        by_name[rec[0]].append(idx)

    out = {}
    for metric, kind, names in SPAN_METRICS:
        members = [i for n in names for i in by_name.get(n, ())]
        if kind == "calls":
            out[metric] = float(len(members))
        elif kind == "self_ms":
            out[metric] = 1e3 * sum(
                spans[i][2] - spans[i][1] - child_time[i] for i in members)
        else:
            group = set(names)
            out[metric] = 1e3 * sum(
                spans[i][2] - spans[i][1] for i in members
                if len(names) == 1 or not has_ancestor_in(i, group))
    for metric in COUNTER_METRICS:
        out[metric] = float(counters.get(metric, 0.0))

    # waste ratio: forward passes made inside policy steps per item sampled
    in_step = sum(1 for i in by_name.get("separator.forward", ())
                  if has_ancestor_in(i, {"rl.train_step"}))
    items = counters.get("rl.items_sampled", 0)
    out["rl.forward_per_item"] = in_step / items if items else 0.0
    return out


def _noop():
    return None


def wrapper_seconds_per_call(n: int = 50_000) -> float:
    """Measured cost a span adds to one call (the wrapper around a no-op,
    less the no-op itself)."""
    tracer = Tracer()
    traced = tracer._wrapper("noop", _noop, None)
    clock = time.perf_counter
    start = clock()
    for _ in range(n):
        traced()
    mid = clock()
    for _ in range(n):
        _noop()
    end = clock()
    return max(0.0, ((mid - start) - (end - mid)) / n)


def calls_by_name(spans, run_id) -> dict[str, int]:
    """Wrapped calls per function name within one command."""
    counts: dict[str, int] = defaultdict(int)
    for name, _, _, _, rid in spans:
        if rid == run_id:
            counts[name] += 1
    return dict(counts)


def covered_seconds(spans, start: float, end: float) -> float:
    """Time inside [start, end] covered by at least one top-level span."""
    total = 0.0
    for _, s, e, parent, _ in spans:
        if parent < 0:
            total += max(0.0, min(e, end) - max(s, start))
    return total
