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
that differs. It is appended to ``--summary`` (a CI job summary) when
given, and printed either way.

The check informs and does not gate: a change may move bytes on purpose.
The exit status is 0 whether or not bytes differ, and 1 only when a
command fails under either tree.
"""

from __future__ import annotations

import argparse
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


def run_pipeline(tree: Path, work: Path) -> None:
    """Run COMMANDS in ``work`` with ``tree``/src first on the path; relative
    paths keep every written file independent of where ``work`` is."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(tree.resolve() / "src")}
    work.mkdir(parents=True)
    for argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "masksep.cli", *argv],
                              cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{tree}: masksep {argv[0]} exited "
                               f"{done.returncode}: {done.stderr.strip()}")


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
            verdict += ": " + ", ".join(f"`{n}`" for n in differ)
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
            for name, tree in (("base", args.base), ("head", args.head)):
                run_pipeline(tree, Path(tmp) / name)
        except RuntimeError as exc:
            lines = ["### Same bytes as base", "", f"not compared: {exc}"]
            status = 1
        else:
            lines = compare(Path(tmp) / "base", Path(tmp) / "head")
            status = 0
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.summary is not None:
        with open(args.summary, "a") as fh:
            fh.write(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
