"""The benchmark's own check: every workload at toy sizes, and a gate that fails.

    python3 perfbench/run.py --self-check

Asserts that each workload emits every end-to-end metric (untraced) and
every per-layer metric (traced) with its unit, that BENCHMARK.json matches
run.SPEC, and that the correctness gate rejects a coloring with one color
repeated at a vertex and an oracle result whose conditional sum drifted.
"""

from __future__ import annotations

import json
import math
import shutil

import run
import workloads
from onlinecolor import colorer, matcher, oracle, stream


def check_metrics(result: dict, expected: list) -> None:
    names = [m["name"] for m in expected]
    assert sorted(result["metrics"]) == sorted(names), sorted(set(names) ^ set(result["metrics"]))
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)


def check_workloads() -> None:
    for name in (w["name"] for w in run.SPEC["workloads"]):
        for trace in (False, True):
            result = run.run_workload(name, seed=1, seconds=0.3, trace=trace, algo_seed=7, toy=True)
            assert result["correct"] and result["failed"] == 0, result["_record"]["failures"]
            check_metrics(result, run.SPEC["per_layer" if trace else "end_to_end"])
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
            print(f"ok   {name} trace={int(trace)}: {result['attempted']} jobs")
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "plain-tail":
            assert layers["colorer.bank.feeds"] == 0, layers
        if name in ("plain-phases", "list-phases"):
            assert layers["colorer.bank.feeds"] > 0, layers
        if name == "verify-mc":
            assert layers["matcher.run_fast_s"] > 0 and layers["oracle.branches"] > 0, layers


def check_gate_fails() -> None:
    workdir = run.OUT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        s = stream.gen_regular(30, 6, seed=3)
        path = workdir / "stream.txt"
        path.write_text(stream.emit_stream(s))
        colors = colorer.greedy_color(s, range(1, 12))
        report = {"fallback_taken": False, "violations": [], "budget": 11,
                  "colors_used": len(set(colors)), "max_color": max(colors)}
        book = run.Run()
        good = {"rc": 0, "report": report, "colors": colors}
        book.record("color", workloads.color_failures(good, path, {}), None)
        assert book.attempted == 1 and not book.failures, book.failures

        # one color repeated at a vertex: give edge j the color of an earlier edge i sharing u
        j = next(j for j, e in enumerate(s.arrivals) if any(
            f.u in (e.u, e.v) or f.v in (e.u, e.v) for f in s.arrivals[:j]))
        i = next(i for i, f in enumerate(s.arrivals[:j]) if {f.u, f.v} & {s.arrivals[j].u, s.arrivals[j].v})
        bad_colors = list(colors)
        bad_colors[j] = bad_colors[i]
        bad_report = dict(report, colors_used=len(set(bad_colors)), max_color=max(bad_colors))
        bad = workloads.color_failures({"rc": 0, "report": bad_report, "colors": bad_colors}, path, {})
        assert any("repeated at vertex" in b for b in bad), bad
        book.record("color", bad, None)

        small = stream.make_stream(4, 2, [(0, 1), (1, 2), (2, 3)])
        res = oracle.exact_marginals(small, matcher.MatcherConfig(delta=2, q=1.0))
        assert not workloads.verify_failures("oracle", ([res], []))
        res.conditional_sum[1] += 1e-6
        bad = workloads.verify_failures("oracle", ([res], []))
        assert any("drift" in b for b in bad), bad
        book.record("oracle", bad, None)

        share = len(book.failures) / book.attempted
        assert share > 0, share
        print(f"ok   gate: corrupted coloring and drifted oracle give failed_share {share:.3g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_benchmark_json() -> None:
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == json.loads(json.dumps(run.SPEC)), \
        "BENCHMARK.json differs from run.SPEC; `--workload all` rewrites it"
    print("ok   BENCHMARK.json matches run.SPEC")


def main() -> int:
    check_benchmark_json()
    check_gate_fails()
    check_workloads()
    print("self-check passed")
    return 0
