"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 tools/ab_bench.py --base PATH --head PATH --workload rl-train \
        --seed 101 [--pairs 10]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds X`` once
from each checkout, X being ``run_seconds`` of ``BENCHMARK.json``, one run at a time; even pairs run the base first and
odd pairs the change, so a drift of the host's speed falls on both sides.
For every end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and quartiles, the median gap, and the change's wins out of
the pairs (a pair is won when the change's value is better in the metric's
direction). It also gives both sides' artifact digests and ``failed``
counts.

The two checkouts must sit at paths of the same length: some peak-memory
figures move with the length of the directory's name, and a comparison
across different lengths shows a move that no code made. Nothing under
either checkout's ``perfbench/`` is edited; each run writes only its own
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec(path: Path = ROOT / "BENCHMARK.json"
                   ) -> tuple[dict[str, str], float]:
    """Each end-to-end metric's better direction, "lower" or "higher", and
    the seconds one run is given."""
    spec = json.loads(path.read_text())
    return ({m["name"]: m["better"] for m in spec["end_to_end"]},
            float(spec["run_seconds"]))


def parse_run(stdout: str) -> dict:
    """A run's metric values, ``failed`` count and repetitions' digest from
    the standard output of ``perfbench/run.py``: the last line is its
    result object, and a ``reps: digest`` note names the digest."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = None
    for line in lines:
        if " reps: digest " in line:
            status, value = line.split(" reps: digest ", 1)[1].split()[:2]
            digest = value if status == "ok" else f"{value} ({status})"
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "digest": digest}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> str:
    """The report on (base, head) pairs of parsed runs."""
    n = len(pairs)
    out = [f"{n} pairs; value: median [q1, q3]"]
    for name, direction in better.items():
        base = [b["metrics"][name] for b, _ in pairs]
        head = [h["metrics"][name] for _, h in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (hv - bv) < 0 for bv, hv in zip(base, head))
        (b1, b2, b3), (h1, h2, h3) = _quartiles(base), _quartiles(head)
        gap = (h2 - b2) / b2 if b2 else float("nan")
        out.append(
            f"{name} ({direction} is better): base {b2:.6g} [{b1:.6g}, "
            f"{b3:.6g}]  head {h2:.6g} [{h1:.6g}, {h3:.6g}]  median gap "
            f"{gap:+.2%} (base IQR {b3 - b1:.4g})  head wins {wins} of {n}")
    for side, k in (("base", 0), ("head", 1)):
        digests = sorted({str(p[k]["digest"]) for p in pairs})
        failed = sum(p[k]["failed"] for p in pairs)
        out.append(f"{side}: digests {' '.join(digests)}  failed {failed}")
    return "\n".join(out)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode}\n"
                           f"{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    if len(str(base)) != len(str(head)):
        parser.error(f"{base} and {head} differ in path length; peak memory "
                     "moves with it, so put both at same-length paths")
    better, seconds = benchmark_spec()
    pairs = []
    for i in range(args.pairs):
        order = (("base", base), ("head", head))
        runs = {}
        for side, tree in order if i % 2 == 0 else order[::-1]:
            runs[side] = run_once(tree, args.workload, args.seed, seconds)
        pairs.append((runs["base"], runs["head"]))
        print(f"pair {i + 1} of {args.pairs} done", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: base {base}, head {head}")
    print(summarize(pairs, better))
    return 0


if __name__ == "__main__":
    sys.exit(main())
