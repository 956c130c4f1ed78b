"""The four workloads: instance set-up, the timed jobs, and the correctness gate.

Set-up runs in a child process (see run.py) and writes every input the jobs
read into a work directory.  The jobs drive the package only through its
public entry points: ``onlinecolor.cli.main`` for coloring, and the public
functions of ``harness`` and ``oracle`` for verification.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

from onlinecolor import cli, colorer, harness, matcher, oracle, stream
from onlinecolor.profiles import ConstantsProfile

# Acceptance criterion 8's multiphase constants: at desk scale they give the
# list workload three active phases.
MULTIPHASE = {"c_q_color": 0.1, "c_stop": 5.0, "a_base_mult": 5.0}

# Color workloads.  ``prefix`` keeps the first arrivals of the generated graph
# (in generator order) so that one job fits several times into a run; the
# header keeps n and dmax, so the schedule is that of the full instance.
COLOR = {
    "plain-phases": {"n": 1000, "delta": 300, "prefix": 5_000, "mode": "plain", "profile": None},
    "plain-tail": {"n": 1000, "delta": 200, "prefix": None, "mode": "plain", "profile": None},
    "list-phases": {"n": 200, "delta": 100, "prefix": 1_000, "mode": "list", "profile": MULTIPHASE},
}

# verify-mc.  The oracle and verify_stream corpora are fixed, not drawn from
# --seed: their cost varies by more than 2x between random instances of one
# size, and verify_stream's 4-sigma check is statistical, so only a corpus
# checked once is sure to pass on every run.
VERIFY = {
    "mc_n": 500, "mc_delta": 50, "mc_trials": 60,
    "martingale_trials": 800,
    "oracle_instances": ((40, 20, 1.0), (40, 20, 2.5)),  # (n, m, q)
    "colored_instances": ((8, 6, 3),),  # (n, m, palette size) over colors 1..5
    "verify_instances": ((10, 8), (10, 12), (10, 16)),  # (n, m), q = 1
    "verify_trials": 2000,
}
CORPUS_SEED = 2402
MARTINGALE_VERTEX = 0

# Toy sizes for the self-check: same code paths, a fraction of the work.
TOY = {
    "plain-phases": {"prefix": 600},
    "plain-tail": {"n": 300, "delta": 40},
    "list-phases": {"prefix": 150},
    "verify-mc": {"mc_n": 100, "mc_delta": 10, "mc_trials": 4, "martingale_trials": 50,
                  "oracle_instances": ((12, 8, 1.0),), "colored_instances": ((6, 4, 2),),
                  "verify_instances": ((8, 6),), "verify_trials": 50},
}

DRIFT_TOL = 1e-9


def spec_for(name: str, toy: bool = False) -> dict:
    base = dict(VERIFY if name == "verify-mc" else COLOR[name])
    if toy:
        base.update(TOY[name])
    return base


def digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Set-up (child process)
# ---------------------------------------------------------------------------

def _write(path: Path, text: str) -> int:
    data = text.encode()
    path.write_bytes(data)
    return len(data)


def _random_graph(rng: random.Random, n: int, m: int, lists_of: int = 0) -> stream.ArrivalStream:
    """m distinct random pairs on n vertices; dmax is the realised max degree."""
    pairs: set = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = sorted(pairs)
    rng.shuffle(edges)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    lists = [rng.sample(range(1, 6), lists_of) for _ in edges] if lists_of else None
    return stream.make_stream(n, max(deg), edges, lists=lists)


def setup(name: str, spec: dict, seed: int, workdir: Path) -> dict:
    """Generate and write one workload's inputs; returns timings and sizes."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "verify-mc":
        return _setup_verify(spec, seed, workdir)
    t0 = time.perf_counter()
    s = stream.gen_regular(spec["n"], spec["delta"], seed)
    if spec["prefix"]:
        s = stream.make_stream(s.n, s.delta_bound, [(e.u, e.v) for e in s.arrivals[:spec["prefix"]]])
    list_size = None
    if spec["mode"] == "list":
        # the palette {1..D + ceil(a_0)}, as `gen --list-size` would be asked for
        profile = ConstantsProfile.practical().replace(**spec["profile"])
        sched = colorer.degree_schedule(s.delta_bound, s.n, profile)
        list_size = s.delta_bound + math.ceil(float(sched.a[0]))
        s = stream.with_range_lists(s, list_size)
    t1 = time.perf_counter()
    text = stream.emit_stream(s)
    t2 = time.perf_counter()
    nbytes = _write(workdir / "stream.txt", text)
    if spec["profile"]:
        _write(workdir / "profile.json", json.dumps(spec["profile"]))
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "gen_s": t1 - t0, "emit_s": t2 - t1,
            "n": s.n, "m": s.m, "delta": s.delta_bound, "bytes": nbytes, "list_size": list_size}


def _setup_verify(spec: dict, seed: int, workdir: Path) -> dict:
    t0 = time.perf_counter()
    streams = {"mc": stream.gen_regular(spec["mc_n"], spec["mc_delta"], seed),
               "martingale": stream.reorder(stream.gen_regular(60, 20, seed=6), "random", 60)}
    rng = random.Random(CORPUS_SEED)
    for k, (n, m, _) in enumerate(spec["oracle_instances"]):
        streams[f"oracle{k}"] = _random_graph(rng, n, m)
    for k, (n, m, size) in enumerate(spec["colored_instances"]):
        streams[f"colored{k}"] = _random_graph(rng, n, m, lists_of=size)
    for k, (n, m) in enumerate(spec["verify_instances"]):
        streams[f"verify{k}"] = _random_graph(rng, n, m)
    t1 = time.perf_counter()
    texts = {key: stream.emit_stream(s) for key, s in streams.items()}
    t2 = time.perf_counter()
    nbytes = sum(_write(workdir / f"{key}.txt", text) for key, text in texts.items())
    t3 = time.perf_counter()
    mc = streams["mc"]
    return {"setup_s": t3 - t0, "gen_s": t1 - t0, "emit_s": t2 - t1,
            "n": mc.n, "m": mc.m, "delta": mc.delta_bound, "bytes": nbytes, "list_size": None}


# ---------------------------------------------------------------------------
# Color jobs
# ---------------------------------------------------------------------------

class ColorJobs:
    """`onlinecolor color` on the workload's file, in-process.

    The front ends are wrapped so that the coloring itself (which the JSON
    report omits) can be digested and checked after the job.
    """

    def __init__(self, spec: dict, workdir: Path, algo_seed: int):
        self.spec = spec
        self.path = workdir / "stream.txt"
        self.report_path = workdir / "report.json"
        profile = f"file:{workdir / 'profile.json'}" if spec["profile"] else "practical"
        self.argv = ["color", "--stream", str(self.path), "--mode", spec["mode"],
                     "--profile", profile, "--seed", str(algo_seed),
                     "--out-file", str(self.report_path)]
        self.result = None

    def capture(self, fn):
        def front_end(*args, **kwargs):
            self.result = fn(*args, **kwargs)
            return self.result
        return front_end

    def patches(self) -> list:
        return [(colorer, "plain_color", self.capture(colorer.plain_color)),
                (colorer, "list_color", self.capture(colorer.list_color))]

    def run(self) -> int:
        self.result = None
        if self.report_path.exists():
            self.report_path.unlink()
        return cli.main(self.argv)

    def outcome(self, rc: int) -> dict:
        report = json.loads(self.report_path.read_text()) if self.report_path.exists() else None
        colors = list(self.result.colors) if self.result is not None else None
        return {"rc": rc, "report": report, "colors": colors}

    def greedy_colors(self, budget: int | None) -> int:
        """Colors greedy_color uses on the same stream and palettes."""
        s = stream.parse_stream(self.path.read_text())
        palettes = range(1, budget + 1) if self.spec["mode"] == "plain" else [e.colors for e in s.arrivals]
        return len(set(colorer.greedy_color(s, palettes)))


def read_edges(path: Path):
    """(u, v, palette-or-None) per edge line, parsed independently of the package."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("e "):
                continue
            toks = line.split()
            palette = None
            for tok in toks[3:]:
                if tok.startswith("L="):
                    palette = {int(c) for c in tok[2:].split(",")}
            yield int(toks[1]), int(toks[2]), palette


def color_failures(out: dict, path: Path, checked: dict) -> list[str]:
    """The gate for one color job: CLI exit, fallback, the CLI's own
    validation, and an independent properness/palette/completeness check.

    ``checked`` caches the independent check by output digest, so repeated
    jobs with the same seed pay for it once."""
    bad = []
    if out["rc"] != 0:
        bad.append(f"cli exit code {out['rc']}")
    report, colors = out["report"], out["colors"]
    if report is None or colors is None:
        return bad + ["no report or no coloring"]
    if report["fallback_taken"]:
        bad.append("fallback taken")
    if report["violations"]:
        bad.append(f"validation: {report['violations'][0]}")
    if report["colors_used"] != len(set(colors)) or report["max_color"] != max(colors, default=0):
        bad.append("report disagrees with the coloring")
    key = (digest(colors), report["budget"])
    if key not in checked:
        checked[key] = check_coloring(path, colors, report["budget"])
    return bad + checked[key]


def check_coloring(path: Path, colors: list, budget: int | None, limit: int = 5) -> list[str]:
    bad = []
    seen: set = set()
    m = 0
    for idx, (u, v, palette) in enumerate(read_edges(path)):
        m += 1
        c = colors[idx] if idx < len(colors) else None
        if not isinstance(c, int) or c < 1:
            bad.append(f"edge {idx}: no valid color ({c!r})")
        elif palette is not None and c not in palette:
            bad.append(f"edge {idx}: color {c} not in its palette")
        elif budget is not None and c > budget:
            bad.append(f"edge {idx}: color {c} above the budget {budget}")
        for w in (u, v):
            if (w, c) in seen:
                bad.append(f"edge {idx}: color {c} repeated at vertex {w}")
            seen.add((w, c))
        if len(bad) >= limit:
            break
    else:
        if m != len(colors):
            bad.append(f"{len(colors)} colors for {m} edges")
    return bad


def quality(report: dict, m: int, greedy: int) -> dict:
    """Quality and per-phase counters read from the color job's JSON report."""
    d = report["schedule"]["d"]
    return {
        "colors_used": report["colors_used"],
        "max_color": report["max_color"],
        "budget": report["budget"],
        "greedy_colors": greedy,
        "colors_vs_greedy": report["colors_used"] / greedy,
        "tail_entered": report["tail"]["entered"],
        "tail_share": report["tail"]["entered"] / m,
        "phases": [
            {
                "phase": p["phase"],
                "entered": p["entered"],
                "colored": p["colored"],
                "dense_edges": p["dense_edges"],
                "promise_violations": p["promise_violations"],
                "achieved_degree": p["max_uncolored_degree_after"],
                "scheduled_degree": d[p["phase"] + 1],
            }
            for p in report["per_phase"]
        ],
    }


# ---------------------------------------------------------------------------
# verify-mc: one round of four jobs
# ---------------------------------------------------------------------------

class VerifyJobs:
    """Loads the verify-mc corpus once (outside the timed region)."""

    KINDS = ("mc", "martingale", "oracle", "verify")

    def __init__(self, spec: dict, workdir: Path, algo_seed: int):
        def load(key):
            return stream.parse_stream((workdir / f"{key}.txt").read_text())

        self.spec = spec
        self.seed = algo_seed
        self.mc = load("mc")
        q, _ = matcher.choose_q(self.mc.delta_bound, ConstantsProfile.practical())
        self.mc_config = matcher.MatcherConfig(delta=self.mc.delta_bound, q=q)
        self.martingale = load("martingale")
        self.martingale_config = matcher.MatcherConfig(delta=20, q=5)
        self.oracle = [(load(f"oracle{k}"), q) for k, (_, _, q) in enumerate(spec["oracle_instances"])]
        self.colored = [load(f"colored{k}") for k in range(len(spec["colored_instances"]))]
        self.verify = [load(f"verify{k}") for k in range(len(spec["verify_instances"]))]

    def work(self) -> dict:
        """Units of work per job, for the rates."""
        return {
            "mc_arrivals": self.spec["mc_trials"] * self.mc.m,
            "martingale_arrivals": self.spec["martingale_trials"] * self.martingale.m,
            "verify_arrivals": self.spec["verify_trials"] * sum(s.m for s in self.verify),
        }

    def run(self, kind: str, span=None):
        """Run one job; ``span(name, fn)`` lets the tracer time sub-steps."""
        span = span or (lambda name, fn: fn())
        if kind == "mc":
            return harness.mc_marginals(self.mc, self.mc_config, self.spec["mc_trials"], self.seed)
        if kind == "martingale":
            return harness.martingale_monitor(self.martingale, self.martingale_config, MARTINGALE_VERTEX,
                                              self.spec["martingale_trials"], self.seed)
        if kind == "oracle":
            plain = span("oracle.matcher", lambda: [
                oracle.exact_marginals(s, matcher.MatcherConfig(delta=s.delta_bound, q=q))
                for s, q in self.oracle])
            listed = [oracle.exact_colored_marginals(s, s.delta_bound, 1.0) for s in self.colored]
            return plain, listed
        return [harness.verify_stream(s, matcher.MatcherConfig(delta=s.delta_bound, q=1.0),
                                      self.spec["verify_trials"], self.seed + k)
                for k, s in enumerate(self.verify)]


def verify_failures(kind: str, out) -> list[str]:
    """The gate for one verify-mc job."""
    bad = []
    if kind == "mc":
        bad += [f"mc: {v}" for v in out.violations[:3]]
    elif kind == "martingale":
        bad += [f"martingale: {v}" for v in out.violations[:3]]
        if not out.ci_contains_y0:
            bad.append(f"martingale: CI [{out.ci_lo:.6g}, {out.ci_hi:.6g}] misses Y0={out.y0:.6g}")
    elif kind == "oracle":
        plain, listed = out
        for k, res in enumerate(plain):
            drift = max(abs(cs - float(ex)) for cs, ex in zip(res.conditional_sum, res.expected))
            if drift > DRIFT_TOL:
                bad.append(f"oracle {k}: conditional-sum drift {drift:.3g}")
            if abs(res.leaf_total - 1.0) > DRIFT_TOL:
                bad.append(f"oracle {k}: leaf_total {res.leaf_total!r}")
        for k, res in enumerate(listed):
            for t, (split, total) in enumerate(zip(res.per_color, res.colored)):
                if abs(sum(split.values()) - total) > DRIFT_TOL or not -DRIFT_TOL <= total <= 1 + DRIFT_TOL:
                    bad.append(f"colored oracle {k}: edge {t} split {sum(split.values())!r} vs {total!r}")
                    break
    else:
        for k, res in enumerate(out):
            bad += [f"verify {k}: {v}" for v in res["violations"][:3]]
    return bad


def verify_digest(kind: str, out) -> str:
    if kind == "mc":
        return digest(e["hits"] for e in out.edges)
    if kind == "martingale":
        return digest((out.mean_ym, out.max_step, out.max_wm))
    if kind == "oracle":
        plain, listed = out
        return digest([r.marginal for r in plain] + [r.colored for r in listed])
    return digest([row["frequency"] for row in res["edges"]] for res in out)


def verify_counts(kind: str, out) -> dict:
    if kind == "mc":
        return {"gate_fires": out.diagnostics["gate_fires"], "min_F": out.diagnostics["min_F_observed"]}
    if kind == "oracle":
        plain, listed = out
        return {"matcher_branches": sum(r.branches for r in plain),
                "colored_branches": sum(r.branches for r in listed)}
    return {}
