"""masksep benchmark: seeded CLI workloads, end-to-end timings, and an
outside-in traced run that splits the time by layer.

    python3 perfbench/run.py --workload rl-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/masksep`` must exist). The
load is a closed loop with one client: every set-up and every repetition of
the workload is a fresh Python process started from here, one at a time,
with BLAS held to one thread. The seed fixes the ``synth`` dataset
and the train, separate and align seeds; the program sees nothing else.

``--trace 0`` sets up the workload three times (``setup_s`` is the median),
then repeats it while the next repetition still fits in ``--seconds``, and
reports the end-to-end metrics: the median time of one unit of work (a
policy step, a separated mixture, a gap embedding), by wall and by CPU
time, each over the time of a fixed reference computation run just before
it; and peak RSS. Times in ms and whole-command times are printed too.
``--trace 1`` runs the set-up and workload once untraced and once traced,
checks that both produce the same artifact digest, and reports the
per-layer metrics, the traced share of wall time and the tracing overhead.

Every run checks each command's outputs. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (commands
run, and commands that exited non-zero or failed a check) and ``metrics``.
Everything a run writes stays under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from tracer import COUNTER_METRICS, SPAN_METRICS  # noqa: E402

DEADLINE_S = 170.0
SAMPLE_RATE = 16000
SETUP_REPEATS = 3
SEPARATE_SPLIT = "train"
# One BLAS thread: with two OpenBLAS threads on a shared 2-vCPU host, a
# 0.3 ms GEMM took 16 ms for minutes at a time.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY is for the smoke test."""

    items: int = 200
    duration: int = 65535
    rl_steps: int = 100
    warm_start_steps: int = 300
    batch_size: int = 16
    align_epochs: int = 20
    align_steps_per_epoch: int = 25

    @property
    def split_sizes(self) -> dict:
        # synth's default 0.8 / 0.1 / 0.1 split
        n_train = int(round(0.8 * self.items))
        n_val = int(round(0.1 * self.items))
        return {"train": n_train, "val": n_val,
                "test": self.items - n_train - n_val}


FULL = Sizes()
TINY = Sizes(items=20, duration=16384, rl_steps=3, warm_start_steps=2,
             batch_size=4, align_epochs=2, align_steps_per_epoch=3)

# workload -> (probe that times one unit of work, artifact globs hashed
# into the determinism digest)
WORKLOADS = {
    "rl-train": (("rl", "train_step"),
                 ("rl/logs/train.jsonl", "rl/checkpoints/*.json")),
    "separate-eval": (("pipeline", "separate_record"),
                      ("est/*_est.wav", "eval/summary.json")),
    # curriculum steps differ by stage; the gap's full-length embeddings
    # are all alike
    "align-curriculum": (("embed", "AudioFeatureEmbedder.embed"),
                         ("align/checkpoints/*.json", "align/reports/gap.json")),
}

# A shared host's speed drifts by 30-40% over seconds to minutes, and a
# time in ms carries that drift. Each unit's time over the time of the
# fixed reference computation run just before it (worker.reference) does
# not, so the gated unit times are in multiples of that reference ("ref").
END_TO_END = {
    "setup_s": "s", "unit_ref_p50": "ref", "unit_cpu_ref_p50": "ref",
    "peak_rss_mb": "MB",
}


def _layer_unit(metric: str) -> tuple[str, str]:
    if metric.endswith("ms"):
        return "ms", "lower"
    if "bytes" in metric:
        return "bytes", "lower"
    if metric.endswith("gflop"):
        return "gflop-computed", "lower"
    return "count", "lower"


PER_LAYER = {m: _layer_unit(m) for m, _, _ in SPAN_METRICS}
PER_LAYER.update({m: _layer_unit(m) for m in COUNTER_METRICS})
PER_LAYER.update({
    "rl.forward_per_item": ("ratio", "lower"),
    "rl.clip_active_frac": ("ratio", "higher"),
    "rl.val_gain": ("reward", "higher"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
})


# ----------------------------------------------------------------- commands

def setup_commands(workload: str, sizes: Sizes, seed: int, out: Path):
    cmds = [{"name": "synth", "argv": [
        "synth", "--out", str(out / "dataset"), "--items", str(sizes.items),
        "--seed", str(seed), "--duration", str(sizes.duration)]}]
    if workload == "separate-eval":
        # the untrained float32 checkpoint train-rl writes before training
        cmds.append({"name": "checkpoint", "argv": [
            "train-rl", "--dataset", str(out / "dataset"),
            "--run-dir", str(out / "ckpt"), "--steps", "0", "--no-warm-start",
            "--seed", str(seed)]})
    return cmds


def workload_commands(workload: str, sizes: Sizes, seed: int, setup: Path,
                      out: Path):
    dataset = str(setup / "dataset")
    if workload == "rl-train":
        return [{"name": "train-rl", "argv": [
            "train-rl", "--dataset", dataset, "--run-dir", str(out / "rl"),
            "--steps", str(sizes.rl_steps), "--batch-size", str(sizes.batch_size),
            "--reward-mode", "pooled", "--query-modality", "text",
            "--val-interval", str(sizes.rl_steps),
            "--warm-start-steps", str(sizes.warm_start_steps),
            "--seed", str(seed)]}]
    if workload == "separate-eval":
        return [
            {"name": "separate", "argv": [
                "separate", "--checkpoint",
                str(setup / "ckpt" / "checkpoints" / "init.json"),
                "--dataset", dataset, "--split", SEPARATE_SPLIT,
                "--out", str(out / "est")]},
            {"name": "eval", "argv": [
                "eval", "--manifest", str(out / "est" / "eval_manifest.jsonl"),
                "--out", str(out / "eval"), "--with-bss"]},
        ]
    return [{"name": "train-align", "argv": [
        "train-align", "--dataset", dataset, "--run-dir", str(out / "align"),
        "--epochs", str(sizes.align_epochs),
        "--steps-per-epoch", str(sizes.align_steps_per_epoch),
        "--seed", str(seed)]}]


def expected_calls(workload: str, sizes: Sizes) -> dict:
    """Wrapped-call counts known in advance from the configuration; a
    mismatch means the tracer missed (or double-counted) a call site."""
    split = sizes.split_sizes
    if workload == "rl-train":
        w, s = sizes.warm_start_steps, sizes.rl_steps
        b = min(sizes.batch_size, split["train"])
        passes = 3  # step 0, step rl_steps, and the final validation
        return {"train-rl": {
            # warm start: 8 items a step; policy step: one forward per item
            # plus the post-update probe; validation: one per val item
            "separator.forward": min(8, split["train"]) * w + (b + 1) * s
            + passes * split["val"],
            "separator.backward": min(8, split["train"]) * w + b * s,
            "optim.adamw_step": w + s,
            "rl.train_step": s,
            "rl.evaluate_mean_reward": passes,
        }}
    if workload == "separate-eval":
        n = split[SEPARATE_SPLIT]
        return {
            "separate": {"pipeline.separate_record": n, "separator.forward": n,
                         "wavio.write_wav": n, "wavio.read_wav": n,
                         "checkpoint.load_checkpoint": 2},
            "eval": {"metrics.si_sdri": n, "wavio.read_wav": 3 * n,
                     "metrics.aggregate": 1},
        }
    gap_items = min(64, sizes.items)
    return {"train-align": {
        "optim.adamw_step": 3 * sizes.align_epochs * sizes.align_steps_per_epoch,
        "align.run_curriculum": 1,
        "align.discrimination_gap": 2,
        "embed.AudioFeatureEmbedder.embed": 4 * gap_items,
        "wavio.read_wav": 2 * gap_items,
    }}


# ------------------------------------------------------------------- checks

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_outputs(workload: str, sizes: Sizes, out: Path) -> list:
    """(command, ok, detail) for every check on a repetition's outputs."""
    try:
        if workload == "rl-train":
            return _check_rl(sizes, out / "rl")
        if workload == "separate-eval":
            return _check_separate(sizes, out)
        return _check_align(sizes, out / "align")
    except (OSError, ValueError, KeyError) as exc:
        return [(workload, False, f"outputs unreadable: {exc!r}")]


def _check_align(sizes: Sizes, run: Path) -> list:
    gap = json.loads((run / "reports" / "gap.json").read_text())
    return [
        ("train-align", gap["gap_after_mean"] > gap["gap_before_mean"],
         f"gap {gap['gap_before_mean']:.4f} -> {gap['gap_after_mean']:.4f}"),
        ("train-align", gap["n_items"] >= min(50, sizes.items),
         f"n_items {gap['n_items']}"),
    ]


def _check_rl(sizes: Sizes, run: Path) -> list:
    records = [json.loads(line) for line in
               (run / "logs" / "train.jsonl").read_text().splitlines()]
    steps = [r for r in records if "event" not in r]
    vals = [r["val_reward"] for r in records if r.get("event") == "validation"]
    summary = json.loads((run / "reports" / "run_summary.json").read_text())
    finite = all(_finite(v) for r in steps for k, v in r.items())
    ckpts = sorted(p.name for p in (run / "checkpoints").glob("*.json"))
    return [
        ("train-rl", [r["step"] for r in steps] == list(range(sizes.rl_steps))
         and finite, f"{len(steps)} step records, all finite: {finite}"),
        ("train-rl", summary["steps_run"] == sizes.rl_steps,
         f"steps_run {summary['steps_run']}"),
        # best-checkpoint bookkeeping: best is the largest validation
        # reward seen, never below the step-0 value
        ("train-rl", all(_finite(v) for v in vals)
         and summary["best_val_reward"] == max(vals)
         and summary["best_val_reward"] >= summary["initial_val_reward"],
         f"val {summary['initial_val_reward']:.5f} -> best "
         f"{summary['best_val_reward']:.5f} at step {summary['best_step']}"),
        ("train-rl", ckpts == ["best.json", "init.json", "last.json"],
         f"checkpoints {ckpts}"),
    ]


def _check_separate(sizes: Sizes, out: Path) -> list:
    import numpy as np
    from scipy.io import wavfile

    n = sizes.split_sizes[SEPARATE_SPLIT]
    ests = sorted((out / "est").glob("*_est.wav"))
    bad = 0
    for path in ests:
        _, data = wavfile.read(path)
        if data.shape != (sizes.duration,) or not np.all(np.isfinite(data)):
            bad += 1
    summary = json.loads((out / "eval" / "summary.json").read_text())
    return [
        ("separate", len(ests) == n and bad == 0,
         f"{len(ests)} estimates for {n} mixtures, {bad} non-finite or short"),
        ("eval", summary["n_scored"] == n and summary["n_skipped"] == 0,
         f"scored {summary['n_scored']}, skipped {summary['n_skipped']}"),
    ]


def check_setup(workload: str, sizes: Sizes, out: Path) -> list:
    manifest = out / "dataset" / "manifest.jsonl"
    if not manifest.is_file():
        return [("synth", False, "no manifest.jsonl")]
    n = len(manifest.read_text().splitlines())
    checks = [("synth", n == sizes.items, f"{n} manifest records")]
    if workload == "separate-eval":
        init = out / "ckpt" / "checkpoints" / "init.json"
        checks.append(("checkpoint", init.is_file(), "init.json written"))
    return checks


def digest(root: Path, globs) -> str:
    h = hashlib.sha256()
    for pattern in globs:
        for path in sorted(root.glob(pattern)):
            h.update(str(path.relative_to(root)).encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def setup_digest(out: Path) -> str:
    return digest(out, ("dataset/manifest.jsonl", "dataset/dataset.json",
                        "dataset/audio_embedder.json", "dataset/embeddings.*",
                        "dataset/items/item_000*_mix.wav"))


# ------------------------------------------------------------------ running

class Run:
    """One benchmark run: its directory, its deadline and its op counts."""

    def __init__(self, workload: str, sizes: Sizes, seed: int, trace: bool):
        self.workload, self.sizes, self.seed = workload, sizes, seed
        self.dir = RUNS / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.env: dict = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def worker(self, tag: str, commands, trace: bool = False, probe=None):
        """Run commands in a fresh worker process; count them as attempted
        and the ones that exited non-zero as failed."""
        spec = {"src": str(SRC), "commands": commands, "trace": trace,
                "probe": probe, "spans": str(self.dir / f"{tag}.spans.jsonl"),
                "result": str(self.dir / f"{tag}.result.json")}
        spec_path = self.dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.dir / f"{tag}.log", "w") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, env={**os.environ, **WORKER_ENV},
                stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, self.remaining()))
        self.attempted += len(commands)
        if proc.returncode != 0:
            self.failed += len(commands)
            tail = (self.dir / f"{tag}.log").read_text()[-2000:]
            raise RuntimeError(f"{tag}: worker exited {proc.returncode}\n{tail}")
        result = json.loads(Path(spec["result"]).read_text())
        self.env = result["env"]
        for cmd in result["commands"]:
            if cmd["exit"] != 0:
                self.failed += 1
                self.notes.append(f"{tag}: {cmd['name']} exited {cmd['exit']}")
        return result

    def record_checks(self, tag: str, checks) -> None:
        failed_cmds = set()
        for command, ok, detail in checks:
            self.notes.append(f"{tag}: check {command}: "
                              f"{'ok' if ok else 'FAILED'} ({detail})")
            if not ok:
                failed_cmds.add(command)
        self.failed += len(failed_cmds)

    def record_digests(self, tag: str, digests: list) -> None:
        same = len(set(digests)) == 1
        self.notes.append(f"{tag}: digest {'ok' if same else 'MISMATCH'} "
                          f"{sorted(set(digests))[0][:16]} over {len(digests)}")
        if not same:
            self.failed += 1


def _wall(result: dict, names=None) -> float:
    return sum(c["end"] - c["start"] for c in result["commands"]
               if names is None or c["name"] in names)


def _percentile(samples, q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _units(reps, key: str) -> list:
    """Milliseconds of every probed call of every repetition; key is
    steps_s (wall), steps_cpu_s or steps_ref_s (the reference before it)."""
    return [s * 1e3 for r in reps for c in r["commands"] for s in c[key]]


def run_untraced(run: Run, seconds: float) -> dict:
    w, sizes, seed = run.workload, run.sizes, run.seed
    # the set-ups share one process; each writes its own dataset
    outs = [run.dir / f"setup{k}" for k in range(SETUP_REPEATS)]
    result = run.worker("setup", [cmd for out in outs
                                  for cmd in setup_commands(w, sizes, seed, out)])
    per_setup = len(result["commands"]) // len(outs)
    setups, setup_digests = [], []
    for k, out in enumerate(outs):
        chunk = result["commands"][k * per_setup:(k + 1) * per_setup]
        setups.append(_wall({"commands": chunk}))
        run.record_checks(f"setup{k}", check_setup(w, sizes, out))
        setup_digests.append(setup_digest(out))
        if k > 0:
            shutil.rmtree(out)
    run.record_digests("setup", setup_digests)

    probe, globs = WORKLOADS[w]
    reps, digests = [], []
    reps_start = time.perf_counter()
    measured = 0.0
    # repeat while another repetition's commands still fit in `seconds`
    while True:
        out = run.dir / f"rep{len(reps)}"
        result = run.worker(f"rep{len(reps)}",
                            workload_commands(w, sizes, seed, run.dir / "setup0",
                                              out), probe=list(probe))
        run.record_checks(f"rep{len(reps)}", check_outputs(w, sizes, out))
        digests.append(digest(out, globs))
        shutil.rmtree(out)
        reps.append(result)
        measured += _wall(result)
        per_rep_wall = (time.perf_counter() - reps_start) / len(reps)
        if (measured + measured / len(reps) > seconds
                or run.remaining() < 2 * per_rep_wall + 5):
            break
    run.record_digests("reps", digests)

    wall, cpu = _units(reps, "steps_s"), _units(reps, "steps_cpu_s")
    ref = _units(reps, "steps_ref_s")
    wall_ref = [t / r for t, r in zip(wall, ref)]
    metrics = {
        "setup_s": statistics.median(setups),
        "unit_ref_p50": statistics.median(wall_ref),
        "unit_cpu_ref_p50": statistics.median(c / r for c, r in zip(cpu, ref)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    named = [("run_s", statistics.median(_wall(r) for r in reps), "s"),
             ("cpu_s", statistics.median(r["cpu_s"] for r in reps), "s"),
             ("unit_ms_p50", statistics.median(wall), "ms"),
             ("unit_ms_p90", _percentile(wall, 90), "ms"),
             ("unit_ref_p90", _percentile(wall_ref, 90), "ref"),
             ("reference_ms_p50", statistics.median(ref), "ms")]
    named += _named_metrics(w, sizes, reps, wall)
    run.notes.append("repetition run_s: " + " ".join(
        f"{_wall(r):.3f}" for r in reps))
    named.append(("repetitions", len(reps), "count"))
    named.append(("unit_samples", len(wall), "count"))
    return {"metrics": metrics, "named": named}


def _named_metrics(workload: str, sizes: Sizes, reps, steps) -> list:
    """The workload's metrics under the names users know them by."""
    med = lambda names: statistics.median(_wall(r, names) for r in reps)  # noqa: E731
    if workload == "rl-train":
        return [("train_rl_s", med({"train-rl"}), "s"),
                ("policy_step_ms_p50", statistics.median(steps), "ms"),
                ("policy_step_ms_p90", _percentile(steps, 90), "ms")]
    if workload == "separate-eval":
        n = sizes.split_sizes[SEPARATE_SPLIT]
        audio_s = n * sizes.duration / SAMPLE_RATE
        return [("separate_audio_s_per_s", audio_s / med({"separate"}),
                 "audio_s/s"),
                ("separate_item_ms_p90", _percentile(steps, 90), "ms"),
                ("eval_s", med({"eval"}), "s")]
    return [("train_align_s", med({"train-align"}), "s")]


def run_traced(run: Run) -> dict:
    w, sizes, seed = run.workload, run.sizes, run.seed
    _, globs = WORKLOADS[w]
    results, digests = {}, []
    for tag, trace in (("plain", False), ("traced", True)):
        out = run.dir / tag
        setup = setup_commands(w, sizes, seed, out)
        work = workload_commands(w, sizes, seed, out, out / "rep")
        work_names = {c["name"] for c in work}
        results[tag] = run.worker(tag, setup + work, trace=trace)
        run.record_checks(tag, check_setup(w, sizes, out)
                          + check_outputs(w, sizes, out / "rep"))
        digests.append(digest(out / "rep", globs))
    run.record_digests("plain-vs-traced", digests)

    traced = results["traced"]
    layers = dict(traced["layers"])
    wall_traced = _wall(traced, work_names)
    covered = sum(c["covered_s"] for c in traced["commands"]
                  if c["name"] in work_names)
    layers["trace.coverage"] = covered / wall_traced
    layers["trace.overhead"] = wall_traced / _wall(results["plain"], work_names) - 1
    layers["rl.clip_active_frac"] = 0.0
    layers["rl.val_gain"] = 0.0
    if w == "rl-train":
        rl = run.dir / "traced" / "rep" / "rl"
        records = [json.loads(line) for line in
                   (rl / "logs" / "train.jsonl").read_text().splitlines()]
        clipped = [r["frac_clipped"] for r in records if "event" not in r]
        layers["rl.clip_active_frac"] = sum(clipped) / len(clipped)
        summary = json.loads((rl / "reports" / "run_summary.json").read_text())
        layers["rl.val_gain"] = (summary["best_val_reward"]
                                 - summary["initial_val_reward"])

    expected = expected_calls(w, sizes)
    mismatches = []
    for command, counts in expected.items():
        for name, want in counts.items():
            got = traced["calls"].get(command, {}).get(name, 0)
            if got != want:
                mismatches.append(f"{command}:{name} {got} != {want}")
    run.notes.append("call accounting: " + ("ok" if not mismatches
                                            else "MISMATCH " + "; ".join(mismatches)))
    if traced["missing_targets"]:
        run.notes.append("targets not found: " + ", ".join(traced["missing_targets"]))
    shutil.copy(run.dir / "traced.spans.jsonl", RUNS / f"{w}.spans.jsonl")
    # the wall-time ratio above carries the machine's run-to-run noise; the
    # wrapped calls times the measured cost of one span does not
    work_calls = sum(sum(traced["calls"].get(name, {}).values())
                     for name in work_names)
    span_s = work_calls * traced["wrapper_s_per_call"]
    named = [("trace_overhead", layers["trace.overhead"], "ratio"),
             ("trace_overhead_computed", span_s / (wall_traced - span_s), "ratio"),
             ("wrapper_us_per_call", 1e6 * traced["wrapper_s_per_call"], "us"),
             ("workload_wrapped_calls", work_calls, "count"),
             ("trace_coverage", layers["trace.coverage"], "ratio")]
    return {"metrics": layers, "named": named}


# --------------------------------------------------------------- provenance

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def provenance(run: Run) -> dict:
    return {"workload": run.workload, "seed": run.seed, "nproc": os.cpu_count(),
            **run.env, "git_sha": git_sha(), "src_lines": src_lines()}


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              sizes: Sizes = FULL) -> dict:
    """Run one benchmark run; returns the result object printed last."""
    run = Run(workload, sizes, seed % 2**31, trace)
    if run.dir.exists():
        shutil.rmtree(run.dir)
    run.dir.mkdir(parents=True)
    try:
        body = run_traced(run) if trace else run_untraced(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for name, value, unit in body["named"]:
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} failed_op_frac = {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} commands)")
    for note in run.notes:
        print(f"{workload} {note}")
    print("provenance " + json.dumps(provenance(run), sort_keys=True))
    units = ({k: u for k, (u, _) in PER_LAYER.items()} if trace
             else END_TO_END)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": body["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "masksep" / "cli.py").is_file():
        print(f"no masksep sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
