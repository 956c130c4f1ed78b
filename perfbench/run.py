#!/usr/bin/env python3
"""Benchmark of onlinecolor: coloring, Monte-Carlo and oracle workloads.

    python3 perfbench/run.py --workload plain-phases --seed 1 --seconds 16 --trace 0

Each workload is a closed loop in one process with no threads: a job starts
when the previous one ends.  Set-up (generating and writing the inputs) runs
in a child process, several times, so that neither its time nor its memory
mixes with the jobs'.  The first job is a checked warm-up; the loop then
measures for --seconds.  Every job's output goes through the correctness
gate in workloads.py.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced jobs (spans from tracing.py) and reports the per-layer metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with correct/attempted/failed/metrics.  A full record with the
run manifest, quality counters and output digests goes to perfbench/out/.

--workload all runs the four workloads in turn, printing each one's lines
and JSON, and then writes BENCHMARK.json from SPEC below.  --self-check
runs toy sizes (see selfcheck.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
CAL_ITERATIONS = 40_000
CAL_REF_S = 0.030  # see Clock

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 16,
    "workloads": [
        {"name": "plain-phases",
         "why": "plain mode with two active phases (d = 300, 223, 159): the per-phase matcher bank is the hot path"},
        {"name": "plain-tail",
         "why": "plain mode with no active phase: the bank is idle, so parse, greedy tail and validation dominate"},
        {"name": "list-phases",
         "why": "list mode, 947-color palettes, three phases: the bank through SampledPartition, plus a large parse"},
        {"name": "verify-mc",
         "why": "Monte-Carlo, martingale, exact oracle and verify_stream: the float matcher paths and enumeration"},
    ],
    "end_to_end": [
        {"name": "cycle_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in (
            ("stream.gen_s", "s", "lower"),
            ("stream.emit_s", "s", "lower"),
            ("stream.parse_s", "s", "lower"),
            ("stream.parse_mb_per_s", "MB/s", "higher"),
            ("colorer.schedule_s", "s", "lower"),
            ("colorer.bank.busy_s", "s", "lower"),
            ("colorer.bank.feeds", "count", "lower"),
            ("colorer.bank.advances", "count", "lower"),
            ("colorer.bank.advances_per_s", "1/s", "higher"),
            ("colorer.bank.wins_per_feed", "ratio", "higher"),
            ("colorer.run_s", "s", "lower"),
            ("colorer.pipeline_self_s", "s", "lower"),
            ("colorer.tail_share", "ratio", "lower"),
            ("colorer.phase0.colored_share", "ratio", "higher"),
            ("colorer.phase1.colored_share", "ratio", "higher"),
            ("colorer.phase2.colored_share", "ratio", "higher"),
            ("colorer.phase0.degree_miss", "count", "lower"),
            ("colorer.phase1.degree_miss", "count", "lower"),
            ("colorer.phase2.degree_miss", "count", "lower"),
            ("colorer.greedy_edges_per_s", "edges/s", "higher"),
            ("colorer.colors_vs_greedy", "ratio", "lower"),
            ("harness.validate_s", "s", "lower"),
            ("harness.mc_self_s", "s", "lower"),
            ("harness.martingale_s", "s", "lower"),
            ("harness.verify_self_s", "s", "lower"),
            ("matcher.run_fast_s", "s", "lower"),
            ("matcher.run_fast_arrivals_per_s", "arrivals/s", "higher"),
            ("matcher.run_s", "s", "lower"),
            ("matcher.run_arrivals_per_s", "arrivals/s", "higher"),
            ("matcher.audit_s", "s", "lower"),
            ("matcher.gate_fires", "count", "lower"),
            ("matcher.min_F", "ratio", "higher"),
            ("oracle.branches", "count", "lower"),
            ("oracle.matcher_branches_per_s", "branches/s", "higher"),
            ("oracle.colored_branches_per_s", "branches/s", "higher"),
            ("cli.self_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("color_edges_per_s", "edges/s", "higher"),
            ("mc_arrivals_per_s", "arrivals/s", "higher"),
            ("martingale_arrivals_per_s", "arrivals/s", "higher"),
            ("oracle_branches_per_s", "branches/s", "higher"),
            ("verify_arrivals_per_s", "arrivals/s", "higher"),
            ("failed_share", "ratio", "lower"),
        )
    ],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS.update(colors_vs_greedy="ratio", cycle_wall_ms="ms")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """(p, value) for the highest of a few percentiles with at least ten
    samples beyond it, or None when the run has too few jobs."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1 - p / 100) >= 10:
            ranked = sorted(values)
            return p, ranked[min(len(ranked) - 1, int(len(ranked) * p / 100))]
    return None


# ---------------------------------------------------------------------------
# Set-up in a child process
# ---------------------------------------------------------------------------

def run_setup(name: str, seed: int, workdir: Path, toy: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup", name, "--seed", str(seed),
           "--workdir", str(workdir)] + (["--toy"] if toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    reps = json.loads(proc.stdout.strip().splitlines()[-1])
    info = dict(reps[-1])
    for key in ("setup_s", "setup_ref_s", "gen_s", "emit_s"):
        info[key] = median([r[key] for r in reps])
    info["setup_samples"] = [(r["setup_s"], r["setup_ref_s"]) for r in reps]
    return info


def setup_main(args) -> int:
    import workloads

    spec = workloads.spec_for(args.setup, args.toy)
    clock = Clock()
    reps = []
    for _ in range(SETUP_REPEATS):
        info, err, _, ref = clock.timed(lambda: workloads.setup(args.setup, spec, args.seed, Path(args.workdir)))
        if err is not None:
            raise err
        reps.append(dict(info, setup_ref_s=ref))
    print(json.dumps(reps))
    return 0


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------

class Run:
    """Attempt/failure bookkeeping and the digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.digests: dict = {}
        self.digest_changes: list = []

    def record(self, key: str, bad: list, dig: str | None) -> None:
        self.attempted += 1
        if bad:
            self.failures.append({"job": key, "reasons": bad})
            print(f"FAILED {key}: {bad[0]}", file=sys.stderr)
        if dig is not None:
            first = self.digests.setdefault(key, dig)
            if first != dig:
                self.digest_changes.append({"job": key, "first": first, "now": dig})


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class _Cell:
    """A 64-entry float table with a gated multiplicative step (calibration only)."""

    def __init__(self):
        self.F = [1.0] * 64
        self.hits = 0

    def step(self, u: int, v: int, x: float) -> bool:
        fu, fv = self.F[u], self.F[v]
        p = 0.02 / (fu * fv)
        if min(fu, fv) * (1.0 - p) >= 0.05:
            self.F[u] = fu * (1.0 - p)
            self.F[v] = fv * (1.0 - p)
        if x < p:
            self.hits += 1
            return True
        return False


class Clock:
    """Times calls at reference speed.

    Other tenants of the machine change its speed by up to 2x over seconds.
    A calibration loop, timed right before and right after each call,
    measures the speed of that moment; ``timed`` rescales the call's wall
    time to the speed at which the loop takes CAL_REF_S.
    """

    def __init__(self):
        before = _rss_mb()
        self.pages = bytearray(1 << 24)
        self.calibrate()
        self.pages_mb = _rss_mb() - before  # resident once touched, with transparent huge pages

    def calibrate(self) -> float:
        """Wall time of a fixed loop: a gated multiplicative update on small
        float tables through a method call (the shape of the matcher's
        inner step, written here so that it is independent of the
        package), then reads scattered over 16 MB (the cache and TLB
        pressure of the jobs' large heaps)."""
        t0 = time.perf_counter()
        cells = [_Cell() for _ in range(8)]
        for i in range(CAL_ITERATIONS // 2):
            cells[i & 7].step(i & 63, (i * 7 + 1) & 63, ((i * 40503) & 1023) / 1024.0)
        acc, pages, mask = 0, self.pages, len(self.pages) - 1
        for i in range(CAL_ITERATIONS):
            acc += pages[(i * 2654435761) & mask]
        return time.perf_counter() - t0

    def timed(self, fn):
        """(result, exception or None, wall s, s at reference speed)."""
        c0 = self.calibrate()
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            out, err = None, exc
        wall = time.perf_counter() - t0
        c1 = self.calibrate()
        return out, err, wall, wall * 2 * CAL_REF_S / (c0 + c1)

    def peak_rss_mb(self) -> float:
        """Peak resident MB of this process, less the calibration buffer."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - self.pages_mb


def measure(seconds: float, one, tracer=None) -> tuple[tuple, tuple]:
    """Closed loop of ``one(k, tracer)`` for ``seconds``; each call returns
    (wall s, s at reference speed).  With a tracer, every other job runs
    traced, so both kinds see the same machine.  Returns
    ((walls, refs) untraced, (walls, refs) traced)."""
    from tracing import Patched

    plain, traced = ([], []), ([], [])
    end = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(plain[0]) > len(traced[0]):
            with Patched(tracer.patches()):
                wall, ref = one(len(traced[0]), tracer)
            dest = traced
        else:
            wall, ref = one(len(plain[0]), None)
            dest = plain
        dest[0].append(wall)
        dest[1].append(ref)
        if time.perf_counter() >= end and (tracer is None or traced[0]):
            return plain, traced


def run_color(spec, workdir, info, seconds, trace, algo_seed, clock):
    import workloads
    from tracing import Patched, Tracer

    jobs = workloads.ColorJobs(spec, workdir, algo_seed)
    book = Run()
    checked: dict = {}  # see workloads.color_failures
    last: dict = {}

    def one(k, tracer):
        if tracer:
            tracer.job = k
        rc, err, wall, ref = clock.timed(lambda: tracer.call("job.color", jobs.run) if tracer else jobs.run())
        if err is not None:
            book.record("color", [f"raised {err!r}"], None)
            return wall, ref
        out = jobs.outcome(rc)
        dig = workloads.digest(out["colors"]) if out["colors"] is not None else None
        book.record("color", workloads.color_failures(out, jobs.path, checked), dig)
        if out["report"] is not None:
            last.update(out)
        return wall, ref

    tracer = Tracer() if trace else None
    with Patched(jobs.patches()):
        one(0, None)  # warm-up
        (walls, refs), (traced, traced_refs) = measure(seconds, one, tracer)
        peak_mb = clock.peak_rss_mb()
        report = last.get("report")  # None only if every job failed
        qual = {}
        if report is not None:
            if tracer:
                tracer.job = "greedy"
            with Patched(tracer.patches() if tracer else []):
                greedy = jobs.greedy_colors(report["budget"])
            qual = workloads.quality(report, info["m"], greedy)
    m = info["m"]
    e2e = {"cycle_ms": median(refs) * 1000, "peak_rss_mb": peak_mb, "setup_s": info["setup_ref_s"]}
    extra = {"cycle_wall_ms": median(walls) * 1000, "color_edges_per_s": m / median(refs),
             "colors_vs_greedy": qual.get("colors_vs_greedy", 0.0), "jobs": len(refs),
             "tail": tail_percentile(refs)}
    layers = None
    if trace:
        layers = color_layers(tracer, len(traced), info, qual)
        layers["color_edges_per_s"] = extra["color_edges_per_s"]
        layers["trace.overhead_s"] = median(traced_refs) - median(refs)
    detail = {"quality": qual, "schedule": report and report["schedule"], "profile": report and report["profile"],
              "job_wall_s": walls, "job_ref_s": refs, "traced_job_wall_s": traced,
              "spans": tracer.spans if tracer else None}
    return book, e2e, extra, layers, detail


def run_verify(spec, workdir, info, seconds, trace, algo_seed, clock):
    import workloads
    from tracing import Tracer

    jobs = workloads.VerifyJobs(spec, workdir, algo_seed)
    work = jobs.work()
    book = Run()
    kind_refs: dict = {k: [] for k in jobs.KINDS}
    counts: dict = {}

    def one(rnd, tracer):
        total_wall = total_ref = 0.0
        for kind in jobs.KINDS:
            if tracer:
                tracer.job = (rnd, kind)
                out, err, wall, ref = clock.timed(lambda: tracer.call(f"job.{kind}", lambda: jobs.run(kind, span=tracer.call)))
            else:
                out, err, wall, ref = clock.timed(lambda: jobs.run(kind))
                kind_refs[kind].append(ref)
            total_wall += wall
            total_ref += ref
            if err is not None:
                book.record(kind, [f"raised {err!r}"], None)
                continue
            book.record(kind, workloads.verify_failures(kind, out), workloads.verify_digest(kind, out))
            counts.update(workloads.verify_counts(kind, out))
        return total_wall, total_ref

    one(0, None)  # warm-up
    for k in kind_refs:
        kind_refs[k].clear()
    tracer = Tracer() if trace else None
    (walls, refs), (traced, traced_refs) = measure(seconds, one, tracer)
    peak_mb = clock.peak_rss_mb()
    branches = counts.get("matcher_branches", 0) + counts.get("colored_branches", 0)
    rates = {
        "mc_arrivals_per_s": work["mc_arrivals"] / median(kind_refs["mc"]),
        "martingale_arrivals_per_s": work["martingale_arrivals"] / median(kind_refs["martingale"]),
        "oracle_branches_per_s": branches / median(kind_refs["oracle"]),
        "verify_arrivals_per_s": work["verify_arrivals"] / median(kind_refs["verify"]),
    }
    e2e = {"cycle_ms": median(refs) * 1000, "peak_rss_mb": peak_mb, "setup_s": info["setup_ref_s"]}
    extra = dict(rates, cycle_wall_ms=median(walls) * 1000, jobs=len(refs), tail=tail_percentile(refs),
                 **{f"{k}_s": median(v) for k, v in kind_refs.items()})
    layers = None
    if trace:
        layers = verify_layers(tracer, len(traced), counts)
        layers.update(rates)
        layers["trace.overhead_s"] = median(traced_refs) - median(refs)
    detail = {"counts": counts, "work": work, "round_wall_s": walls, "round_ref_s": refs,
              "traced_round_wall_s": traced, "mc_q": jobs.mc_config.q, "kind_ref_s": kind_refs,
              "spans": tracer.spans if tracer else None}
    return book, e2e, extra, layers, detail


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

def color_layers(tracer, n_traced: int, info, qual) -> dict:
    jobs = tracer.by_job()
    rows = []
    for j in range(n_traced):
        agg = jobs.get(j, {})
        feeds = agg.get("colorer.PhaseReducer.feed", [0.0, 0.0, 0, []])
        parse = agg.get("stream.parse_stream", [0.0])[0]
        schedule = agg.get("colorer.degree_schedule", [0.0])[0]
        run = agg.get("colorer.run_generic", [0.0])[0]
        validate = agg.get("harness.validate_coloring", [0.0])[0]
        rows.append({
            "stream.parse_s": parse,
            "stream.parse_mb_per_s": info["bytes"] / parse / 1e6 if parse else 0.0,
            "colorer.schedule_s": schedule,
            "colorer.bank.busy_s": feeds[0],
            "colorer.bank.feeds": feeds[2],
            "colorer.bank.advances": sum(a for a, _ in feeds[3]),
            "colorer.bank.advances_per_s": sum(a for a, _ in feeds[3]) / feeds[0] if feeds[0] else 0.0,
            "colorer.bank.wins_per_feed": sum(w for _, w in feeds[3]) / feeds[2] if feeds[2] else 0.0,
            "colorer.run_s": run,
            "colorer.pipeline_self_s": run - feeds[0],
            "harness.validate_s": validate,
            "cli.self_s": agg.get("job.color", [0.0])[0] - parse - schedule - run - validate,
        })
    out = {key: median([r[key] for r in rows]) for key in rows[0]}
    greedy = jobs.get("greedy", {}).get("colorer.greedy_color")
    out["colorer.greedy_edges_per_s"] = info["m"] / greedy[0] if greedy else 0.0
    out["colorer.tail_share"] = qual.get("tail_share", 0.0)
    out["colorer.colors_vs_greedy"] = qual.get("colors_vs_greedy", 0.0)
    for p in qual.get("phases", []):
        out[f"colorer.phase{p['phase']}.colored_share"] = p["colored"] / p["entered"] if p["entered"] else 0.0
        out[f"colorer.phase{p['phase']}.degree_miss"] = p["achieved_degree"] - p["scheduled_degree"]
    return out


def verify_layers(tracer, n_traced: int, counts) -> dict:
    jobs = tracer.by_job()
    rows = []
    for r in range(n_traced):
        def tot(kind, name, field=0):
            rec = jobs.get((r, kind), {}).get(name)
            return (sum(rec[3]) if field == 3 else rec[field]) if rec else 0.0

        run_fast = tot("mc", "matcher.run_fast")
        run_fast_n = tot("mc", "matcher.run_fast", 3)
        runs = {k: tot(k, "matcher.run") for k in ("mc", "verify")}
        runs_n = sum(tot(k, "matcher.run", 3) for k in ("mc", "verify"))
        audits = {k: tot(k, "matcher.check_run_invariants") for k in ("mc", "verify")}
        matcher_t = tot("oracle", "oracle.matcher")
        colored_t = tot("oracle", "oracle.exact_colored_marginals")
        rows.append({
            "matcher.run_fast_s": run_fast,
            "matcher.run_fast_arrivals_per_s": run_fast_n / run_fast if run_fast else 0.0,
            "matcher.run_s": sum(runs.values()),
            "matcher.run_arrivals_per_s": runs_n / sum(runs.values()) if runs_n else 0.0,
            "matcher.audit_s": sum(audits.values()),
            "harness.mc_self_s": tot("mc", "job.mc") - run_fast - runs["mc"] - audits["mc"],
            "harness.martingale_s": tot("martingale", "job.martingale"),
            "harness.verify_self_s": (tot("verify", "job.verify") - runs["verify"] - audits["verify"]
                                      - tot("verify", "oracle.exact_marginals")),
            "oracle.matcher_branches_per_s": counts.get("matcher_branches", 0) / matcher_t if matcher_t else 0.0,
            "oracle.colored_branches_per_s": counts.get("colored_branches", 0) / colored_t if colored_t else 0.0,
        })
    out = {key: median([row[key] for row in rows]) for key in rows[0]}
    out["matcher.gate_fires"] = counts.get("gate_fires", 0)
    out["matcher.min_F"] = counts.get("min_F", 0.0)
    out["oracle.branches"] = counts.get("matcher_branches", 0) + counts.get("colored_branches", 0)
    return out


# ---------------------------------------------------------------------------
# Manifest and the whole run
# ---------------------------------------------------------------------------

def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def versions() -> dict:
    import onlinecolor

    out = {"onlinecolor": onlinecolor.__version__, "python": sys.version.split()[0]}
    for pkg in ("numpy", "networkx", "mpmath"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, algo_seed: int, toy: bool = False) -> dict:
    import workloads

    load = os.getloadavg()
    spec = workloads.spec_for(name, toy)
    workdir = OUT / f"{name}-seed{seed}{'-toy' if toy else ''}"
    info = run_setup(name, seed, workdir, toy)
    runner = run_verify if name == "verify-mc" else run_color
    try:
        book, e2e, extra, layers, detail = runner(spec, workdir, info, seconds, trace, algo_seed, Clock())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(book.failures)
    if layers is not None:
        layers["failed_share"] = failed / book.attempted
        layers["stream.gen_s"] = info["gen_s"]
        layers["stream.emit_s"] = info["emit_s"]
        metrics = {m["name"]: layers.get(m["name"], 0.0) for m in SPEC["per_layer"]}
    else:
        metrics = e2e
    record = {
        "workload": name, "seed": seed, "algo_seed": algo_seed, "seconds": seconds, "trace": trace,
        "toy": toy,
        "manifest": {"versions": versions(), "git_rev": git_rev(), "cpu_count": os.cpu_count(),
                     "loadavg_at_start": load, "spec": spec,
                     "instance": {k: info[k] for k in ("n", "m", "delta", "bytes", "list_size")},
                     "setup_samples": info["setup_samples"]},
        "end_to_end": e2e, "workload_metrics": extra, "per_layer": layers, "detail": detail,
        "attempted": book.attempted, "failed": failed, "failures": book.failures[:20],
        "digests": book.digests, "digest_changes": book.digest_changes,
    }
    reference = json.loads((HERE / "digests.json").read_text()).get(f"{name}/{seed}/{algo_seed}")
    if reference is not None and not toy and reference != book.digests:
        record["digest_changes"].append({"job": "reference", "expected": reference, "now": book.digests})
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}{'-toy' if toy else ''}"
    spans = detail.pop("spans")
    if spans is not None:  # [name, start, end, parent index, job id, count] per wrapped call
        stem.with_suffix(".spans.json").write_text(json.dumps(spans, default=str))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    return {"correct": failed == 0, "attempted": book.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            "_record": record}


def print_human(result: dict) -> None:
    rec = result["_record"]
    print(f"# {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']}")
    extra = dict(rec["workload_metrics"])
    jobs, tail = extra.pop("jobs"), extra.pop("tail")
    for key, value in rec["end_to_end"].items():
        print(f"{key} {value:.6g} {UNITS[key]}" + (f" (median of {jobs} cycles)" if key == "cycle_ms" else ""))
    if tail:
        print(f"cycle_p{tail[0]:g} {tail[1] * 1000:.6g} ms")
    for key, value in extra.items():
        unit = UNITS.get(key, "s")
        print(f"{key} {value:.6g} {unit}")
    print(f"failed_share {result['failed'] / result['attempted']:.6g} ratio")
    for change in rec["digest_changes"]:
        print(f"digest changed: {change}")
    if rec["per_layer"]:
        for key, value in result["metrics"].items():
            print(f"{key} {value['value']:.6g} {value['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]] + ["all"],
                    help="one workload, or all of them in turn (which also rewrites BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1, help="instance seed")
    ap.add_argument("--algo-seed", type=int, default=7, help="algorithm seed of every job")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "onlinecolor" / "__init__.py").is_file():
        print(f"error: no package source at {src}/onlinecolor", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import onlinecolor

    if Path(onlinecolor.__file__).resolve().parent != (src / "onlinecolor").resolve():
        print(f"error: imported onlinecolor from {onlinecolor.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup:
        return setup_main(args)
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if not args.workload:
        ap.error("--workload is required")
    names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.algo_seed)
        print_human(result)
        result.pop("_record")
        print(json.dumps(result))
    if args.workload == "all":
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
