"""Command-line harness.

Subcommands: gen, match, round, color, oracle, mc, martingale,
counterexample, verify; each takes only the options it reads.  Reports go
to stdout as JSON (CSV via --out where offered); --out-file redirects.  The
exit code is 0 only when the run's invariant-violation count is zero; a
configuration error exits 2.

The library returns reports as data, and this module alone writes them as
text: JSON through ``_write_json``, and CSV, one row per arrival, through
``_write_csv``.  A warning that ``color``'s front end raises is printed as
one ``warning: <message>`` line on stderr.

``match`` runs the matcher and ``round`` the rounder, through one traced,
audited run.  ``oracle`` and ``verify`` run the rounder exactly when the
stream has x= values and the gated matcher otherwise, and reject the other
engine's options (--q on an x= stream, --epsilon or --c-round without x=)
and a profile whose q falls back to the greedy matcher.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import warnings

from . import colorer, harness, matcher, oracle, rounder, stream as streammod
from .profiles import resolve_profile
from .seeding import derive_seed


def _read_stream(path: str) -> streammod.ArrivalStream:
    with open(path, "r", encoding="utf-8") as fh:
        return streammod.parse_stream(fh)


def _write(args, text: str) -> None:
    """``text``, ending in a newline, to --out-file or else stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload: dict) -> None:
    _write(args, json.dumps(payload, indent=2))


def _cell(x) -> str:
    """A CSV cell: a bool as 0/1, an int as itself, any other number (a
    float or a Fraction) as the repr of its float."""
    return str(int(x)) if isinstance(x, int) else repr(float(x))


def _write_csv(args, s: streammod.ArrivalStream, columns: dict) -> None:
    """One row per arrival: time,u,v, then ``columns``, each a name and
    one value per arrival."""
    rows = [",".join(["time", "u", "v", *columns])]
    rows += [",".join(map(_cell, row)) for row in zip(itertools.count(1), s.u, s.v, *columns.values())]
    _write(args, "\n".join(rows) + "\n")


_OPTIONS = {
    "--stream": dict(required=True, help="instance file"),
    "--profile": dict(default="practical", help="theory|practical|file:<path>"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=10000),
    "--out": dict(choices=("json", "csv"), default="json"),
    "--q": dict(type=float, default=None, help="override the slack q"),
    "--epsilon": dict(type=float, default=None),
    "--c-round": dict(type=float, default=None),
    "--out-file": dict(default=None),
}


def _options(parser: argparse.ArgumentParser, *flags: str) -> None:
    # no prefix matching: an option the subcommand lacks (``color --out``)
    # is an error, not an abbreviation of --out-file
    parser.allow_abbrev = False
    for flag in flags + ("--out-file",):
        parser.add_argument(flag, **_OPTIONS[flag])


def _matcher_config(args, s: streammod.ArrivalStream, mode: str = matcher.MODE_ANALYSIS_FRIENDLY):
    """--q, or the profile's q, whose fallback switches ``mode`` to greedy_fallback."""
    profile = resolve_profile(args.profile)
    delta = max(s.delta_bound, 2)
    q = args.q
    if q is None:
        q, fallback = matcher.choose_q(delta, profile)
        if fallback:
            mode = matcher.MODE_GREEDY_FALLBACK
    return matcher.MatcherConfig(delta=delta, q=q, mode=mode, profile=profile)


def _rounding_config(args, s: streammod.ArrivalStream) -> rounder.RoundingConfig:
    """--epsilon (default: the largest x) and --c-round (default: the profile's)."""
    if not s.is_fractional:
        raise ValueError("round needs a stream with x= values")
    epsilon = args.epsilon if args.epsilon is not None else max(
        x for x in s.x if x is not None
    )
    c_round = args.c_round if args.c_round is not None else resolve_profile(args.profile).c_round
    return rounder.RoundingConfig(epsilon=epsilon, c_round=c_round)


def _engine_config(args, s: streammod.ArrivalStream):
    """The engine of ``oracle`` and ``verify``: the rounder exactly when the
    stream has x= values, the gated matcher otherwise.  The other engine's
    options, and a profile that falls back to greedy, are errors."""
    if s.is_fractional:
        if args.q is not None:
            raise ValueError("--q is a matcher option; a stream with x= values runs the rounder")
        return _rounding_config(args, s)
    for flag, value in (("--epsilon", args.epsilon), ("--c-round", args.c_round)):
        if value is not None:
            raise ValueError(f"{flag} is a rounder option; a stream without x= values runs the matcher")
    config = _matcher_config(args, s)
    if config.mode == matcher.MODE_GREEDY_FALLBACK:
        raise ValueError("q > delta/4 under this profile, so the matcher is greedy_fallback, which "
                         "matches each edge with probability exactly 1/(2*delta-1); pass an explicit --q")
    return config


def _traced(args, s: streammod.ArrivalStream, config, head: dict) -> int:
    """One audited traced run of either engine: the trace as CSV, or
    ``head`` and the run's outcome as JSON."""
    matching, trace = matcher.run(s, config, args.seed)
    violations = matcher.check_run_invariants(s, config, trace)
    if args.out == "csv":
        _write_csv(args, s, vars(trace))  # the trace's six columns, in field order
    else:
        payload = {
            **head,
            "seed": args.seed,
            "matched_edges": matching,
            "overflow_count": sum(trace.overflow),
            "gate_fires": sum(trace.gate_fired),
            "violations": violations,
        }
        _write_json(args, payload)
    if violations:
        print(f"{len(violations)} invariant violations", file=sys.stderr)
    return 1 if violations else 0


def cmd_gen(args) -> int:
    if args.kind == "regular":
        s = streammod.gen_regular(args.n, args.delta, args.seed)
    elif args.kind == "erdos_renyi":
        s = streammod.gen_erdos_renyi(args.n, args.p, args.seed)
    elif args.kind == "complete_bipartite":
        s = streammod.gen_complete_bipartite(args.a, args.b)
    else:
        s = streammod.gen_lower_bound_tree(args.delta, args.q_int)
    order_seed = derive_seed(args.seed, "order") if args.order == "random" else None
    s = streammod.reorder(s, args.order, order_seed)
    if args.x_uniform is not None:
        s = streammod.with_uniform_x(s, args.x_uniform)
    if args.list_size is not None:
        s = streammod.with_range_lists(s, args.list_size)
    _write(args, streammod.emit_stream(s))
    return 0


def cmd_match(args) -> int:
    s = _read_stream(args.stream)
    config = _matcher_config(args, s, args.mode)
    if config.mode == matcher.MODE_GREEDY_FALLBACK:
        matching, c_star, _ = colorer.run_greedy_fallback(s, int(config.delta), args.seed)
        payload = {
            "mode": "greedy_fallback",
            "fallback_taken": True,
            "c_star": c_star,
            "matched_edges": matching,
            "violations": [],
        }
        _write_json(args, payload)
        return 0
    head = {"mode": config.mode, "delta": config.delta, "q": config.q, "fallback_taken": False}
    return _traced(args, s, config, head)


def cmd_round(args) -> int:
    s = _read_stream(args.stream)
    config = _rounding_config(args, s)
    return _traced(args, s, config, {"epsilon": config.epsilon, "c_round": config.c_round, "s": config.s})


def cmd_color(args) -> int:
    s = _read_stream(args.stream)
    profile = resolve_profile(args.profile)
    with warnings.catch_warnings():  # restores the caller's filters and showwarning
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        if args.mode == "plain":
            result = colorer.plain_color(s, s.delta_bound, profile, args.seed)
        elif args.mode == "list":
            result = colorer.list_color(s, profile, args.seed)
        else:
            result = colorer.local_color(s, profile, args.seed)
    violations = harness.validate_coloring(s, result.colors, palettes=result.palettes) + result.invariant_violations
    payload = result.report(profile)
    payload["violations"] = violations
    _write_json(args, payload)
    return 1 if violations else 0


def cmd_oracle(args) -> int:
    s = _read_stream(args.stream)
    res = oracle.exact_marginals(s, _engine_config(args, s), exact=args.exact)
    drift = max(
        abs(cs - float(ex)) for cs, ex in zip(res.conditional_sum, res.expected)
    ) if s.m else 0.0
    if args.out == "csv":
        _write_csv(args, s, {"exact_marginal": res.marginal, "conditional_sum": res.conditional_sum,
                             "expected_value": res.expected})
    else:
        payload = {
            "marginals": [float(x) for x in res.marginal],
            "conditional_sums": [float(x) for x in res.conditional_sum],
            "expected": [float(x) for x in res.expected],
            "leaf_total": float(res.leaf_total),
            "branches": res.branches,
            "cones": res.cones,
            "max_conditional_drift": drift,
        }
        _write_json(args, payload)
    return 0 if drift <= 1e-9 else 1


def cmd_mc(args) -> int:
    s = _read_stream(args.stream)
    config = _matcher_config(args, s)
    report = harness.mc_marginals(s, config, args.trials, args.seed)
    if args.out == "csv":
        _write_csv(args, s, {k: [e[k] for e in report.edges]
                             for k in ("hits", "frequency", "ci_lo", "ci_hi", "below_bound")})
    else:
        _write_json(args, {
            "kind": "mc_marginals",
            "config": {"delta": config.delta, "q": config.q, "mode": config.mode,
                       "profile": config.profile.as_dict()},
            "master_seed": report.master_seed,
            "trials": report.trials,
            "violation_count": report.violation_count,
            "violations": report.violations[:100],
            "diagnostics": report.diagnostics,
            "wall_time_sec": report.wall_time,
            "edges": report.edges,
        })
    return 1 if report.violation_count else 0


def cmd_martingale(args) -> int:
    s = _read_stream(args.stream)
    report = harness.martingale_monitor(s, _matcher_config(args, s), args.vertex, args.trials, args.seed)
    _write_json(args, report.as_dict())
    ok = not report.violations and report.ci_contains_y0
    return 0 if ok else 1


def cmd_counterexample(args) -> int:
    result = harness.counterexample_demo(args.delta, args.q_int)
    _write_json(args, result)
    n_bad = len(result["violations"])
    if n_bad:
        print(f"{n_bad} violations", file=sys.stderr)
    return 1 if n_bad else 0


def cmd_verify(args) -> int:
    s = _read_stream(args.stream)
    result = harness.verify_stream(s, _engine_config(args, s), args.trials, args.seed)
    _write_json(args, result)
    n_bad = len(result["violations"])
    if n_bad:
        print(f"{n_bad} violations", file=sys.stderr)
    return 1 if n_bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="onlinecolor", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True,
                   choices=("regular", "erdos_renyi", "complete_bipartite", "lower_bound_tree"))
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--delta", type=int, default=4)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--a", type=int, default=4)
    g.add_argument("--b", type=int, default=4)
    g.add_argument("--q-int", type=int, default=1, help="q for the lower-bound tree")
    g.add_argument("--order", choices=("given", "random", "reversed"), default="given")
    g.add_argument("--x-uniform", type=float, default=None, help="annotate every edge with x")
    g.add_argument("--list-size", type=int, default=None, help="annotate every edge with {1..k}")
    _options(g, "--seed")
    g.set_defaults(func=cmd_gen)

    m = sub.add_parser("match", help="run the online matcher")
    m.add_argument("--mode", choices=(matcher.MODE_ANALYSIS_FRIENDLY, matcher.MODE_NATURAL,
                                      matcher.MODE_GREEDY_FALLBACK),
                   default=matcher.MODE_ANALYSIS_FRIENDLY)
    _options(m, "--stream", "--profile", "--seed", "--out", "--q")
    m.set_defaults(func=cmd_match)

    r = sub.add_parser("round", help="round a fractional matching online")
    _options(r, "--stream", "--profile", "--seed", "--out", "--epsilon", "--c-round")
    r.set_defaults(func=cmd_round)

    c = sub.add_parser("color", help="run the coloring pipeline")
    c.add_argument("--mode", choices=("plain", "list", "local"), default="plain")
    _options(c, "--stream", "--profile", "--seed")
    c.set_defaults(func=cmd_color)

    o = sub.add_parser("oracle", help="exact marginals by a forward pass over frontier states")
    o.add_argument("--exact", action="store_true",
                   help="rational arithmetic")
    _options(o, "--stream", "--profile", "--out", "--q", "--epsilon", "--c-round")
    o.set_defaults(func=cmd_oracle)

    mc = sub.add_parser("mc", help="Monte-Carlo marginals")
    _options(mc, "--stream", "--profile", "--seed", "--trials", "--out", "--q")
    mc.set_defaults(func=cmd_mc)

    mg = sub.add_parser("martingale", help="martingale diagnostics for one vertex")
    mg.add_argument("--vertex", type=int, default=0)
    _options(mg, "--stream", "--profile", "--seed", "--trials", "--q")
    mg.set_defaults(func=cmd_martingale)

    ce = sub.add_parser("counterexample", help="the naive-matcher overflow demo")
    ce.add_argument("--delta", type=int, default=10)
    ce.add_argument("--q-int", type=int, default=2)
    _options(ce)
    ce.set_defaults(func=cmd_counterexample)

    v = sub.add_parser("verify", help="oracle vs Monte-Carlo plus invariant audit")
    _options(v, "--stream", "--profile", "--seed", "--trials", "--q", "--epsilon", "--c-round")
    v.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except colorer.TailFailure as exc:
        # an edge found no free color: in its tail class, or in its palette
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # StreamError / MatcherError / ScheduleError / PartitionError and
        # unreadable files all land here; exit 2 distinguishes config errors
        # from invariant violations (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
