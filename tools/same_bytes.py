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
moved. It also gives each command's peak resident memory under
either tree (``ru_maxrss`` of its process, from ``os.wait4``), so a memory
move shows even at these sizes. It is appended to ``--summary`` (a CI job
summary) when given, and printed either way.

The check informs and does not gate: a change may move bytes on purpose.
The exit status is 0 whether or not bytes differ, and 1 only when a
command fails under either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def checkpoint_note(a: Path, b: Path) -> str:
    """Which sections of two checkpoint files differ, and whether their
    arrays are identical; empty when either file is not a checkpoint."""
    try:
        x, y = (json.loads(p.read_text()) for p in (a, b))
    except (OSError, ValueError):
        return ""
    if not all(isinstance(c, dict) and "arrays" in c for c in (x, y)):
        return ""
    keys = sorted(k for k in x.keys() | y.keys()
                  if k != "arrays" and x.get(k) != y.get(k))
    same = "identical" if x["arrays"] == y["arrays"] else "differ"
    parts = [f"{', '.join(keys)} differ"] if keys else []
    return ", ".join(parts + [f"arrays {same}"])


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
            notes = {n: checkpoint_note(base / n, head / n) for n in differ}
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
