"""tools/ab_bench.py's parsing and summary, on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def run_output(unit_ref, rss, digest="bd5096392a337e39", status="ok",
               failed=0):
    """The tail of a perfbench/run.py standard output."""
    metrics = {"setup_s": {"value": 2.4, "unit": "s"},
               "unit_ref_p50": {"value": unit_ref, "unit": "ref"},
               "unit_cpu_ref_p50": {"value": unit_ref, "unit": "ref"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "rl-train unit_ref_p50 = 60 ref",
        f"rl-train failed_op_frac = 0 ({failed} of 4 commands)",
        "rl-train setup: digest ok c45ba4c05c088fc6 over 3",
        f"rl-train reps: digest {status} {digest} over 3",
        'provenance {"seed": 101}',
        json.dumps({"correct": failed == 0, "attempted": 4, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_metrics_digest_and_failures():
    run = ab_bench.parse_run(run_output(60.5, 83.2, failed=1))
    assert run == {"metrics": {"setup_s": 2.4, "unit_ref_p50": 60.5,
                               "unit_cpu_ref_p50": 60.5, "peak_rss_mb": 83.2},
                   "failed": 1, "digest": "bd5096392a337e39"}
    assert (ab_bench.parse_run(run_output(1.0, 1.0, status="MISMATCH"))
            ["digest"] == "bd5096392a337e39 (MISMATCH)")


def test_summary_gives_quartiles_wins_digests_and_failures():
    base = [60.0, 61.0, 62.0, 63.0, 64.0]
    head = [57.0, 56.0, 63.0, 55.0, 58.0]
    pairs = [(ab_bench.parse_run(run_output(b, 83.0)),
              ab_bench.parse_run(run_output(h, 83.5, digest="aaaa", failed=2)))
             for b, h in zip(base, head)]
    lines = ab_bench.summarize(pairs, {"unit_ref_p50": "lower",
                                       "peak_rss_mb": "lower"}).splitlines()
    assert lines[0] == "5 pairs; value: median [q1, q3]"
    assert lines[1] == (
        "unit_ref_p50 (lower is better): base 62 [61, 63]  head 57 [56, 58]"
        "  median gap -8.06% (base IQR 2)  head wins 4 of 5")
    assert lines[2].endswith("median gap +0.60% (base IQR 0)  head wins 0 of 5")
    assert lines[3] == "base: digests bd5096392a337e39  failed 0"
    assert lines[4] == "head: digests aaaa  failed 10"


def test_higher_is_better_counts_the_other_way():
    pairs = [({"metrics": {"m": 1.0}, "failed": 0, "digest": "d"},
              {"metrics": {"m": 2.0}, "failed": 0, "digest": "d"})]
    assert "head wins 1 of 1" in ab_bench.summarize(pairs, {"m": "higher"})
    assert "head wins 0 of 1" in ab_bench.summarize(pairs, {"m": "lower"})


def test_metrics_and_run_length_come_from_the_benchmark():
    assert ab_bench.benchmark_spec() == ({
        "setup_s": "lower", "unit_ref_p50": "lower",
        "unit_cpu_ref_p50": "lower", "peak_rss_mb": "lower"}, 20.0)


def test_checkouts_at_different_path_lengths_are_refused(tmp_path):
    (tmp_path / "abc").mkdir()
    (tmp_path / "abcd").mkdir()
    with pytest.raises(SystemExit):
        ab_bench.main(["--base", str(tmp_path / "abc"),
                       "--head", str(tmp_path / "abcd"),
                       "--workload", "rl-train", "--seed", "1"])
