"""Compare the bytes a tiny seeded pipeline writes from two source trees.

    python3 tools/same_bytes.py --base PATH [--head PATH] [--summary FILE]

Each tree's ``src/`` runs ``synth`` -> ``train-rl`` -> ``separate`` ->
``eval``, then a one-epoch ``train-align`` and a second ``train-rl`` with
two masks per item (G = 2, which reshapes the rewards into (B, G)
groups), on a 40-item set, one command per fresh process, with BLAS held
to one thread. The report says whether ``train.jsonl``, the checkpoints,
the estimate WAVs, ``eval``'s ``summary.json``, the alignment heads,
``gap.json``, ``curriculum.txt`` and the G = 2 run's ``train.jsonl`` and
checkpoints are byte-identical between the trees, and names every file
that differs. For a checkpoint that differs it also says which sections
do and whether the ``arrays`` payloads are identical ("hparams differ,
arrays identical"), so a change of format alone shows that no weight
moved; for arrays that differ it gives the largest absolute difference
of each. For a ``train.jsonl`` that differs it names the first step that
does and the largest relative difference of each numeric field at that
step, so a move that starts at rounding level shows as one. It also
gives each command's peak resident memory under
either tree (``ru_maxrss`` of its process, from ``os.wait4``), so a memory
move shows even at these sizes. It is appended to ``--summary`` (a CI job
summary) when given, and printed either way.

The check informs and does not gate: a change may move bytes on purpose.
The exit status is 0 whether or not bytes differ, and 1 only when a
command fails under either tree.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TRAIN_RL = ["train-rl", "--dataset", "ds", "--steps", "4", "--batch-size",
            "4", "--val-interval", "2", "--warm-start-steps", "5"]
COMMANDS = (
    ["synth", "--out", "ds", "--items", "40", "--seed", "5",
     "--duration", "16384"],
    [*TRAIN_RL, "--run-dir", "run"],
    ["separate", "--checkpoint", "run/checkpoints/last.json",
     "--dataset", "ds", "--out", "sep"],
    ["eval", "--manifest", "sep/eval_manifest.jsonl", "--out", "eval"],
    ["train-align", "--dataset", "ds", "--run-dir", "align", "--epochs", "1",
     "--steps-per-epoch", "3"],
    [*TRAIN_RL, "--run-dir", "run_g2", "--mc-samples", "2"],
)

# (what the report calls it, glob under the work directory)
COMPARED = (
    ("train.jsonl", "run/logs/train.jsonl"),
    ("checkpoints", "run/checkpoints/*.json"),
    ("estimate WAVs", "sep/*.wav"),
    ("summary.json", "eval/summary.json"),
    ("alignment heads", "align/checkpoints/heads_*.json"),
    ("gap.json", "align/reports/gap.json"),
    ("curriculum.txt", "align/reports/curriculum.txt"),
    ("train.jsonl, G = 2", "run_g2/logs/train.jsonl"),
    ("checkpoints, G = 2", "run_g2/checkpoints/*.json"),
)


def run_pipeline(tree: Path, work: Path) -> list[float]:
    """Run COMMANDS in ``work`` with ``tree``/src first on the path; relative
    paths keep every written file independent of where ``work`` is. Returns
    each command's peak resident MB (Linux gives ``ru_maxrss`` in KiB)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(tree.resolve() / "src")}
    work.mkdir(parents=True)
    peaks = []
    for argv in COMMANDS:
        with tempfile.TemporaryFile() as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "masksep.cli", *argv], cwd=work,
                env=env, stdout=subprocess.DEVNULL, stderr=err)
            # reaped here rather than by Popen.wait, for the child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                raise RuntimeError(
                    f"{tree}: masksep {argv[0]} exited {proc.returncode}: "
                    f"{err.read().decode(errors='replace').strip()}")
        peaks.append(usage.ru_maxrss / 1024)
    return peaks


def memory_table(base: list[float], head: list[float]) -> list[str]:
    """Markdown report lines, one per command: its peak resident MB under
    either tree."""
    lines = ["### Peak resident memory", "",
             "| command | base MB | head MB |", "| --- | ---: | ---: |"]
    for argv, b, h in zip(COMMANDS, base, head):
        lines.append(f"| `{' '.join(argv)}` | {b:.1f} | {h:.1f} |")
    return lines


def _array(obj: dict) -> np.ndarray:
    """A checkpoint's base64 array payload, decoded."""
    return np.frombuffer(base64.b64decode(obj["data"]),
                         dtype=obj["dtype"]).reshape(obj["shape"])


def checkpoint_note(a: Path, b: Path) -> str:
    """Which sections of two checkpoint files differ, whether their arrays
    are identical, and the largest absolute difference of each array that
    is not; empty when either file is not a checkpoint."""
    try:
        x, y = (json.loads(p.read_text()) for p in (a, b))
    except (OSError, ValueError):
        return ""
    if not all(isinstance(c, dict) and "arrays" in c for c in (x, y)):
        return ""
    keys = sorted(k for k in x.keys() | y.keys()
                  if k != "arrays" and x.get(k) != y.get(k))
    parts = [f"{', '.join(keys)} differ"] if keys else []
    if x["arrays"] == y["arrays"]:
        return ", ".join(parts + ["arrays identical"])
    moved = []
    for name in sorted(x["arrays"].keys() | y["arrays"].keys()):
        u, v = x["arrays"].get(name), y["arrays"].get(name)
        if u == v:
            continue
        if u is None or v is None:
            moved.append(f"{name} in one tree only")
            continue
        try:
            delta = np.abs(_array(u).astype(np.float64)
                           - _array(v).astype(np.float64))
            moved.append(f"{name} {delta.max(initial=0.0):.3g}")
        except (AttributeError, KeyError, TypeError, ValueError):
            moved.append(f"{name} not comparable")
    return ", ".join(parts + ["arrays differ, max |a - b|: " + ", ".join(moved)])


def log_note(a: Path, b: Path) -> str:
    """The first step at which two train.jsonl logs differ, and the largest
    relative difference |a - b| / max(|a|, |b|) of each numeric field over
    that step's records; empty when either file is not such a log."""
    try:
        x, y = ([json.loads(line) for line in p.read_text().splitlines()]
                for p in (a, b))
    except (OSError, ValueError):
        return ""
    first = next((i for i, (u, v) in enumerate(zip(x, y)) if u != v), None)
    if first is None:
        return f"{len(x)} against {len(y)} records"
    if not all(isinstance(r, dict) for r in x + y):
        return ""
    step = x[first].get("step")
    rel = {}
    for u, v in zip(x[first:], y[first:]):
        if u.get("step") != step or v.get("step") != step:
            break
        for key in sorted((u.keys() & v.keys()) - {"step"}):
            s, t = u[key], v[key]
            if all(isinstance(z, (int, float)) and not isinstance(z, bool)
                   for z in (s, t)):
                scale = max(abs(s), abs(t))
                diff = abs(s - t) / scale if scale else 0.0
                rel[key] = max(rel.get(key, 0.0), diff)
    return f"first at step {step}, max relative: " + ", ".join(
        f"{key} {value:.3g}" for key, value in sorted(rel.items()))


def compare(base: Path, head: Path) -> list[str]:
    """Markdown report lines, one per COMPARED group."""
    lines = ["### Same bytes as base", "",
             "| output | files | identical |", "| --- | ---: | --- |"]
    for label, pattern in COMPARED:
        names = sorted({p.relative_to(root).as_posix()
                        for root in (base, head) for p in root.glob(pattern)})
        differ = [n for n in names
                  if not ((base / n).is_file() and (head / n).is_file()
                          and (base / n).read_bytes() == (head / n).read_bytes())]
        verdict = "yes" if names and not differ else "**no**"
        if differ:
            notes = {n: (log_note if n.endswith(".jsonl") else checkpoint_note)(
                base / n, head / n) for n in differ}
            verdict += ": " + ", ".join(
                f"`{n}`" + (f" ({notes[n]})" if notes[n] else "")
                for n in differ)
        lines.append(f"| {label} | {len(names)} | {verdict} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="checkout of the base commit")
    parser.add_argument("--head", default=Path("."), type=Path,
                        help="checkout of the change (default: .)")
    parser.add_argument("--summary", type=Path,
                        help="file to append the markdown report to")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            peaks = [run_pipeline(tree, Path(tmp) / name)
                     for name, tree in (("base", args.base), ("head", args.head))]
        except RuntimeError as exc:
            lines = ["### Same bytes as base", "", f"not compared: {exc}"]
            status = 1
        else:
            lines = [*compare(Path(tmp) / "base", Path(tmp) / "head"), "",
                     *memory_table(*peaks)]
            status = 0
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.summary is not None:
        with open(args.summary, "a") as fh:
            fh.write(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
