import hashlib
import json
import math
import tracemalloc
import warnings

import pytest

from conftest import probe_stream
from onlinecolor import cli, colorer
from onlinecolor.cli import main
from onlinecolor.matcher import MultiplicativeState
from onlinecolor.profiles import resolve_profile
from onlinecolor.stream import PARSE_CHUNK, emit_stream, gen_regular, parse_stream, with_range_lists


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_parse_round_trip(tmp_path, capsys):
    path = tmp_path / "reg.txt"
    code, _ = run_cli(capsys, "gen", "--kind", "regular", "--n", "10", "--delta", "3",
                      "--seed", "4", "--out-file", str(path))
    assert code == 0
    s = parse_stream(path.read_text())
    assert s.n == 10 and all(d == 3 for d in s.degrees())


def test_gen_lower_bound_tree_cli(capsys):
    code, out = run_cli(capsys, "gen", "--kind", "lower_bound_tree", "--delta", "5", "--q-int", "2")
    assert code == 0
    s = parse_stream(out)
    assert s.m == s.n - 1


_GEN_KINDS = {
    "regular": ["--n", "12", "--delta", "3"],
    "erdos_renyi": ["--n", "12", "--p", "0.3"],
    "complete_bipartite": ["--a", "3", "--b", "4"],
    "lower_bound_tree": ["--delta", "5", "--q-int", "2"],
}


@pytest.mark.parametrize("kind,order,want", [
    ("regular", "given", "df6339b795e0e499"),
    ("regular", "random", "aee2c462ce3229aa"),
    ("regular", "reversed", "54704d842696f538"),
    ("erdos_renyi", "given", "d3a8272c1a49869c"),
    ("erdos_renyi", "random", "1c3123eadd4e060c"),
    ("erdos_renyi", "reversed", "7f6f04b100bb8e8f"),
    ("complete_bipartite", "given", "d0e931d35a5f1324"),
    ("complete_bipartite", "random", "f676fb5da5636b8a"),
    ("complete_bipartite", "reversed", "82a3513218fd16d6"),
    ("lower_bound_tree", "given", "a1d19fb1d57cc4ae"),
    ("lower_bound_tree", "random", "12ef9a10efec637d"),
    ("lower_bound_tree", "reversed", "61a23e06efc0617f"),
])
def test_gen_output_pinned(capsys, kind, order, want):
    # the bytes `gen` writes for every kind and order, seed 7
    code, out = run_cli(capsys, "gen", "--kind", kind, *_GEN_KINDS[kind], "--order", order,
                        "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want


def test_match_json_and_csv(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=3 dmax=2\ne 0 1\ne 1 2\ne 0 2\n")
    code, out = run_cli(capsys, "match", "--stream", str(path), "--q", "1", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    code, out = run_cli(capsys, "match", "--stream", str(path), "--q", "1", "--seed", "3",
                        "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("time,u,v,p,p_hat")
    assert len(lines) == 4


def test_match_theory_profile_falls_back(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=3 dmax=2\ne 0 1\ne 1 2\n")
    code, out = run_cli(capsys, "match", "--stream", str(path), "--profile", "theory",
                        "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "greedy_fallback" and payload["fallback_taken"]


def test_match_fallback_draws_c_star_at_the_config_delta(tmp_path, capsys):
    # the fallback colors from {1..2D-1} at the config's D = max(dmax, 2), as
    # mc does: an edgeless stream runs, and a lone edge is matched only when
    # c* = 1 of {1, 2, 3}
    edgeless = tmp_path / "edgeless.txt"
    assert main(["gen", "--kind", "erdos_renyi", "--n", "5", "--p", "0",
                 "--out-file", str(edgeless)]) == 0
    code, out = run_cli(capsys, "match", "--stream", str(edgeless), "--profile", "theory")
    assert code == 0
    assert json.loads(out)["matched_edges"] == []
    one = tmp_path / "one.txt"
    one.write_text("n=2 dmax=1\ne 0 1\n")
    drawn = set()
    for seed in range(20):
        code, out = run_cli(capsys, "match", "--stream", str(one), "--profile", "theory",
                            "--seed", str(seed))
        payload = json.loads(out)
        assert code == 0 and payload["c_star"] == colorer.draw_c_star(2, seed)
        assert payload["matched_edges"] == ([[0, 1]] if payload["c_star"] == 1 else [])
        drawn.add(payload["c_star"])
    assert drawn == {1, 2, 3}
    code, out = run_cli(capsys, "mc", "--stream", str(one), "--profile", "theory",
                        "--trials", "3000")
    assert code == 0 and abs(json.loads(out)["edges"][0]["frequency"] - 1 / 3) < 0.05


def test_round_cli(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=2 dmax=1\ne 0 1 x=0.3\n")
    code, out = run_cli(capsys, "round", "--stream", str(path), "--epsilon", "0.3",
                        "--c-round", "0.2", "--seed", "1")
    assert code == 0
    assert json.loads(out)["violations"] == []


_MATCH_KEYS = ["mode", "delta", "q", "fallback_taken", "seed", "matched_edges",
               "overflow_count", "gate_fires", "violations"]
_ROUND_KEYS = ["epsilon", "c_round", "s", "seed", "matched_edges", "overflow_count",
               "gate_fires", "violations"]
_FRACTIONAL = "n=3 dmax=2\ne 0 1 x=0.2\ne 1 2 x=0.2\ne 0 2 x=0.2\n"
_PLAIN = "n=3 dmax=2\ne 0 1\ne 1 2\ne 0 2\n"


def test_match_and_round_share_one_traced_report(tmp_path, capsys):
    plain, frac = tmp_path / "p.txt", tmp_path / "x.txt"
    plain.write_text(_PLAIN)
    frac.write_text(_FRACTIONAL)
    code, out = run_cli(capsys, "match", "--stream", str(plain), "--q", "1", "--seed", "3")
    assert code == 0 and list(json.loads(out)) == _MATCH_KEYS
    argv = ["round", "--stream", str(frac), "--c-round", "0.2", "--seed", "1"]
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 0 and list(payload) == _ROUND_KEYS
    assert payload["epsilon"] == 0.2 and payload["violations"] == []
    code, out = run_cli(capsys, *argv, "--out", "csv")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0].startswith("time,u,v,p,p_hat") and len(lines) == 4
    matched = [tuple(map(int, r.split(",")[1:3])) for r in lines[1:] if r.split(",")[6] == "1"]
    assert matched == [tuple(e) for e in payload["matched_edges"]]


def test_round_needs_x_values(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(_PLAIN)
    assert main(["round", "--stream", str(path), "--c-round", "0.2"]) == 2
    assert capsys.readouterr().err == "error: round needs a stream with x= values\n"


def test_oracle_and_verify_run_the_rounder_on_x_values(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(_FRACTIONAL)
    code, out = run_cli(capsys, "oracle", "--stream", str(path), "--c-round", "0.2", "--exact")
    payload = json.loads(out)
    s = 0.2 * 0.2 ** 0.25 * math.sqrt(math.log(5))
    assert code == 0 and payload["max_conditional_drift"] <= 1e-9
    assert all(math.isclose(e, 0.2 * (1 - s), rel_tol=1e-12) for e in payload["expected"])
    code, out = run_cli(capsys, "verify", "--stream", str(path), "--c-round", "0.2",
                        "--trials", "2000", "--seed", "2")
    payload = json.loads(out)
    assert code == 0 and payload["violations"] == [] and payload["cones"] == 1


@pytest.mark.parametrize("command", ["oracle", "verify"])
@pytest.mark.parametrize("text,option,fragment", [
    (_PLAIN, ["--profile", "theory"], "greedy_fallback"),
    (_PLAIN, ["--epsilon", "0.2"], "--epsilon is a rounder option"),
    (_PLAIN, ["--c-round", "0.2"], "--c-round is a rounder option"),
    (_FRACTIONAL, ["--q", "1"], "--q is a matcher option"),
], ids=["theory", "epsilon", "c-round", "q"])
def test_oracle_and_verify_reject_the_other_engines_options(tmp_path, capsys, command, text,
                                                            option, fragment):
    path = tmp_path / "s.txt"
    path.write_text(text)
    assert main([command, "--stream", str(path), *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_gen_annotations(capsys):
    base = ["gen", "--kind", "regular", "--n", "8", "--delta", "3", "--seed", "2"]
    code, out = run_cli(capsys, *base, "--x-uniform", "0.25")
    s = parse_stream(out)
    assert code == 0 and s.x == (0.25,) * s.m and s.palettes is None
    code, out = run_cli(capsys, *base, "--list-size", "5")
    s = parse_stream(out)
    assert code == 0 and s.palettes == ((1, 2, 3, 4, 5),) * s.m and s.x is None


def test_oracle_cli_exit_on_identity(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=3 dmax=2\ne 0 1\ne 1 2\ne 0 2\n")
    code, out = run_cli(capsys, "oracle", "--stream", str(path), "--q", "1", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["marginals"] == [1 / 3, 1 / 3, 0.0]
    assert payload["max_conditional_drift"] <= 1e-9


def test_oracle_cli_reports_cones(tmp_path, capsys):
    # the edge (0,1) is one step on the starting state; the path 2-3-4 one
    # step at its first edge and two at its second: 1 + 3 steps
    path = tmp_path / "s.txt"
    path.write_text("n=5 dmax=2\ne 0 1\ne 2 3\ne 3 4\n")
    code, out = run_cli(capsys, "oracle", "--stream", str(path), "--q", "1", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert (payload["branches"], payload["cones"]) == (4, 2)
    assert payload["marginals"] == [1 / 3, 1 / 3, 1 / 3]


def _csv_columns(out):
    header, *rows = out.splitlines()
    return header.split(","), [row.split(",") for row in rows]


def test_oracle_and_mc_csv_match_their_json(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=5 dmax=2\ne 0 1\ne 1 2\ne 0 2\ne 3 4\n")
    code, out = run_cli(capsys, "oracle", "--stream", str(path), "--q", "1")
    assert code == 0
    payload = json.loads(out)
    code, out = run_cli(capsys, "oracle", "--stream", str(path), "--q", "1", "--out", "csv")
    assert code == 0
    header, rows = _csv_columns(out)
    assert header == ["time", "u", "v", "exact_marginal", "conditional_sum", "expected_value"]
    assert [tuple(map(int, r[:3])) for r in rows] == [(1, 0, 1), (2, 1, 2), (3, 0, 2), (4, 3, 4)]
    assert [float(r[3]) for r in rows] == payload["marginals"]
    assert [float(r[4]) for r in rows] == payload["conditional_sums"]
    assert [float(r[5]) for r in rows] == payload["expected"]

    mc = ("mc", "--stream", str(path), "--q", "1", "--trials", "40", "--seed", "5")
    code, out = run_cli(capsys, *mc)
    edges = json.loads(out)["edges"]
    code_csv, out = run_cli(capsys, *mc, "--out", "csv")
    assert code_csv == code
    header, rows = _csv_columns(out)
    assert header == ["time", "u", "v", "hits", "frequency", "ci_lo", "ci_hi", "below_bound"]
    assert [tuple(map(int, r[:4])) for r in rows] == \
        [(e["time"], e["u"], e["v"], e["hits"]) for e in edges]
    assert [float(r[4]) for r in rows] == [e["frequency"] for e in edges]
    assert [(float(r[5]), float(r[6]), bool(int(r[7]))) for r in rows] == \
        [(e["ci_lo"], e["ci_hi"], e["below_bound"]) for e in edges]
    assert sum(e["hits"] for e in edges) > 0


def test_color_cli_modes(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=5 dmax=2\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
    for mode in ("plain", "local"):
        code, out = run_cli(capsys, "color", "--stream", str(path), "--mode", mode,
                            "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == [] and payload["max_color"] <= 3


def test_color_cli_colors_an_edgeless_stream(tmp_path, capsys):
    # the schedule starts at max(dmax, 1), so dmax = 0 is no error
    path = tmp_path / "edgeless.txt"
    assert main(["gen", "--kind", "erdos_renyi", "--n", "5", "--p", "0",
                 "--out-file", str(path)]) == 0
    for mode in ("plain", "local"):
        code, out = run_cli(capsys, "color", "--stream", str(path), "--mode", mode)
        payload = json.loads(out)
        assert code == 0, mode
        assert (payload["colors_used"], payload["violations"]) == (0, []), mode


def test_color_cli_local_theory_profile(tmp_path, capsys):
    # the theory profile's local palettes hold about 4e24 colors each
    path = tmp_path / "g.txt"
    path.write_text(emit_stream(gen_regular(60, 20, 1)))
    code, out = run_cli(capsys, "color", "--stream", str(path), "--mode", "local",
                        "--profile", "theory", "--seed", "1")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_mc_and_verify_cli(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=3 dmax=2\ne 0 1\ne 1 2\ne 0 2\n")
    code, out = run_cli(capsys, "mc", "--stream", str(path), "--q", "1",
                        "--trials", "2000", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["violation_count"] == 0
    code, out = run_cli(capsys, "verify", "--stream", str(path), "--q", "1",
                        "--trials", "2000", "--seed", "5")
    assert code == 0
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize("command", ["mc", "martingale", "verify"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_cli_rejects_nonpositive_trials(tmp_path, capsys, command, trials):
    path = tmp_path / "s.txt"
    path.write_text("n=3 dmax=2\ne 0 1\ne 1 2\ne 0 2\n")
    extra = ["--vertex", "0"] if command == "martingale" else []
    code = main([command, "--stream", str(path), "--q", "1", "--trials", trials, *extra])
    assert code == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_counterexample_cli(capsys):
    code, out = run_cli(capsys, "counterexample", "--delta", "10", "--q-int", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["root_p"] == "4/3" and payload["violations"] == []


def test_counterexample_cli_exits_1_on_a_violation(capsys, monkeypatch):
    from onlinecolor import matcher

    real = matcher.gate_constants  # a floor of -inf passes every gate
    monkeypatch.setattr(matcher, "gate_constants", lambda delta, q: (real(delta, q)[0], -math.inf))
    code, out = run_cli(capsys, "counterexample", "--delta", "10", "--q-int", "2")
    assert code == 1
    assert "gate did not zero the root edge" in json.loads(out)["violations"]


def test_profile_from_file(tmp_path, capsys):
    prof = tmp_path / "prof.json"
    prof.write_text('{"c_stop": 5.0, "c_q_color": 0.1, "a_base_mult": 5.0}')
    stream = tmp_path / "s.txt"
    stream.write_text("n=5 dmax=2\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
    code, out = run_cli(capsys, "color", "--stream", str(stream),
                        "--profile", f"file:{prof}", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"]["c_stop"] == 5.0
    assert payload["profile"]["name"] == str(prof)  # a file without a name is named by its path
    assert payload["violations"] == []
    named = tmp_path / "named.json"
    named.write_text('{"name": "desk", "c_stop": 5.0}')
    code, out = run_cli(capsys, "color", "--stream", str(stream),
                        "--profile", f"file:{named}", "--seed", "1")
    assert code == 0 and json.loads(out)["profile"]["name"] == "desk"
    # unknown keys are rejected
    bad = tmp_path / "bad.json"
    bad.write_text('{"c_qq": 1}')
    code, _ = run_cli(capsys, "color", "--stream", str(stream),
                      "--profile", f"file:{bad}", "--seed", "1")
    assert code == 2


def test_cli_config_errors_exit_2(tmp_path, capsys):
    code = main(["gen", "--kind", "regular", "--n", "5", "--delta", "3"])
    assert code == 2  # n*delta odd
    err = capsys.readouterr().err
    assert "error:" in err
    code = main(["match", "--stream", str(tmp_path / "missing.txt"), "--q", "1"])
    assert code == 2
    # non-finite constants are configuration errors, not runs full of violations
    stream = tmp_path / "s.txt"
    stream.write_text("n=4 dmax=2\ne 0 1\ne 1 2\ne 2 3\n")
    for name, text in [("nan_stop", '{"c_stop": NaN}'), ("inf_q", '{"c_q": Infinity}')]:
        (tmp_path / f"{name}.json").write_text(text)
    for argv in (["match", "--q", "nan"], ["match", "--q", "inf"], ["mc", "--q", "nan"],
                 ["color", "--profile", f"file:{tmp_path / 'nan_stop.json'}"],
                 ["mc", "--profile", f"file:{tmp_path / 'inf_q.json'}"]):
        capsys.readouterr()
        assert main([*argv, "--stream", str(stream)]) == 2, argv
        assert "finite" in capsys.readouterr().err, argv
    # a profile file is a JSON object whose values are of their field's
    # kind; anything else exits 2, where a TypeError would exit 1, a string
    # "false" would read as a true flag, and true as the number 1
    degree6 = tmp_path / "degree6.txt"
    degree6.write_text(emit_stream(gen_regular(40, 6, seed=0)))
    for text, fragment in [
        ('{"c_q": "1"}', "error: profile.c_q must be a real number, not '1'"),
        ('{"c_q": true}', "error: profile.c_q must be a real number, not True"),
        ('{"q_override": 2.0}', "error: unknown profile keys: ['q_override']"),
        ('{"enforce_guard": "false"}', "error: profile.enforce_guard must be true or false, not 'false'"),
        ('{"strict_promises": 0}', "error: profile.strict_promises must be true or false, not 0"),
        ('{"name": 7}', "error: profile.name must be a string, not 7"),
        ('{"degree_recurrence": null}', "error: profile.degree_recurrence must be a string, not None"),
        ('{"degree_recurrence": "exact"}', "error: unknown degree_recurrence 'exact'"),
        ('5', "error: a profile file must hold a JSON object, not int"),
        ('["c_q"]', "error: a profile file must hold a JSON object, not list"),
    ]:
        typed = tmp_path / "typed.json"
        typed.write_text(text)
        capsys.readouterr()
        assert main(["match", "--stream", str(degree6), "--profile", f"file:{typed}"]) == 2, text
        assert fragment in capsys.readouterr().err, text
    assert main(["match", "--stream", str(degree6), "--profile", "fast"]) == 2
    assert "error: unknown profile 'fast' (expected theory|practical|file:<path>)" in capsys.readouterr().err


def test_match_and_verify_print_their_violation_counts(tmp_path, capsys, monkeypatch):
    # a planted proposal that reports a fired gate at every step it lets
    # through: the audit flags each such step, and each command prints the
    # count of the violations its JSON lists on stderr and exits 1
    real = MultiplicativeState.proposal

    def proposal(self, u, v, x_e=None):
        p, p_hat, gate_fired, overflow = real(self, u, v, x_e)
        return p, p_hat, gate_fired or bool(p_hat), overflow

    monkeypatch.setattr(MultiplicativeState, "proposal", proposal)
    path = tmp_path / "s.txt"
    path.write_text("n=4 dmax=2\ne 0 1\ne 1 2\ne 2 3\n")
    for command, label in (("match", "invariant violations"), ("verify", "violations")):
        argv = [command, "--stream", str(path), "--q", "1", "--seed", "1"]
        code = main(argv + (["--trials", "20"] if command == "verify" else []))
        captured = capsys.readouterr()
        violations = json.loads(captured.out)["violations"]
        assert code == 1 and violations, command
        assert captured.err == f"{len(violations)} {label}\n", command


def test_martingale_cli(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=4 dmax=2\ne 1 2\ne 0 1\ne 2 3\ne 0 3\n")
    code, out = run_cli(capsys, "martingale", "--stream", str(path), "--q", "1",
                        "--vertex", "0", "--trials", "500", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ci_contains_y0"] and not payload["violations"]


def test_martingale_cli_single_trial_exits_2(tmp_path, capsys):
    # one trial gives a zero-width interval, which misses Y_0 whenever Y
    # moved: a configuration error (exit 2), not a violation (exit 1)
    path = tmp_path / "s.txt"
    assert main(["gen", "--kind", "regular", "--n", "30", "--delta", "6", "--seed", "2",
                 "--order", "random", "--out-file", str(path)]) == 0
    argv = ["martingale", "--stream", str(path), "--q", "1.5", "--vertex", "0"]
    assert main(argv + ["--trials", "1"]) == 2
    assert "needs at least 2 trials (got 1)" in capsys.readouterr().err
    code, out = run_cli(capsys, *argv, "--trials", "2")
    assert code == 0 and json.loads(out)["ci_contains_y0"]


def test_martingale_cli_fallback_exits_2(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("n=3 dmax=2\ne 0 1\ne 1 2\ne 0 2\n")
    code = main(["martingale", "--stream", str(path), "--profile", "theory", "--trials", "5"])
    assert code == 2
    assert "greedy_fallback" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["color", "--out", "csv"],
    ["martingale", "--out", "csv"],
    ["oracle", "--trials", "5"],
    ["oracle", "--seed", "5"],
    ["counterexample", "--epsilon", "0.1"],
    ["color", "--q", "3"],
])
def test_cli_rejects_options_a_subcommand_ignores(tmp_path, capsys, argv):
    path = tmp_path / "s.txt"
    path.write_text("n=3 dmax=2\ne 0 1\ne 1 2\ne 0 2\n")
    stream = [] if argv[0] == "counterexample" else ["--stream", str(path)]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *stream, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_color_cli_exits_1_on_invariant_violation(tmp_path, capsys, monkeypatch):
    from onlinecolor import colorer

    prof = tmp_path / "prof.json"
    prof.write_text('{"c_stop": 5.0, "c_q_color": 0.1, "a_base_mult": 5.0}')
    stream = tmp_path / "g.txt"
    assert main(["gen", "--kind", "regular", "--n", "60", "--delta", "50", "--seed", "3",
                 "--out-file", str(stream)]) == 0
    argv = ["color", "--stream", str(stream), "--profile", f"file:{prof}", "--seed", "1"]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["invariant_violations"] == []
    # corrupt the counters: every phase's arrival count starts at 1, not 0
    real = colorer.PhaseStats
    monkeypatch.setattr(colorer, "PhaseStats", lambda phase: real(phase=phase, entered=1))
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 1
    assert payload["invariant_violations"]
    assert payload["invariant_violations"][0] in payload["violations"]


def test_color_cli_list_fallback_out_of_colors_exits_1(tmp_path, capsys):
    # an edge of the probe finds its whole list taken at its endpoints, so
    # it cannot overflow: the run fails instead of leaving the lists
    path = tmp_path / "probe.txt"
    path.write_text(emit_stream(probe_stream()))
    code = main(["color", "--mode", "list", "--stream", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    warning, error = captured.err.splitlines()
    assert warning.startswith("warning: minimum list size")
    assert error.startswith("error: t=") and "no tail color" in error


def test_color_cli_prints_a_front_end_warning_as_one_line(tmp_path, capsys):
    # lists of 9 colors are below list_color's size guard: the CLI prints
    # its warning as one line, whatever the caller's filters, and leaves
    # the filters as they were; a library caller still gets the UserWarning
    path = tmp_path / "listed.txt"
    assert main(["gen", "--kind", "regular", "--n", "20", "--delta", "4", "--seed", "7",
                 "--list-size", "9", "--order", "random", "--out-file", str(path)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        showwarning = warnings.showwarning
        code = main(["color", "--mode", "list", "--seed", "1", "--stream", str(path)])
        assert warnings.showwarning is showwarning
        with pytest.raises(UserWarning, match="minimum list size 9"):
            colorer.list_color(parse_stream(path.read_text()), resolve_profile("practical"), 1)
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["violations"] == []
    assert captured.err == "warning: minimum list size 9 below 2 * a_base_mult * ln n = 59.91\n"


@pytest.mark.parametrize("argv", [["oracle", "--q", "1"], ["color", "--mode", "list", "--seed", "1"]])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    path = tmp_path / "listed.txt"
    path.write_text(emit_stream(with_range_lists(gen_regular(10, 3, seed=5), 40)))
    code, out = run_cli(capsys, *argv, "--stream", str(path))
    report = tmp_path / "report.json"
    assert main([*argv, "--stream", str(path), "--out-file", str(report)]) == code == 0
    assert report.read_bytes() == out.encode() and out.endswith("}\n")


def test_color_cli_reads_a_crlf_file_as_its_lf_original(tmp_path, capsys):
    # a file is read with "\r\n" translated to "\n", so a CRLF copy of a
    # listed stream reaches the line reader as the LF file does
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    assert main(["gen", "--kind", "regular", "--n", "30", "--delta", "6", "--seed", "3",
                 "--list-size", "70", "--out-file", str(lf)]) == 0
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    reports = []
    for path in (lf, crlf):
        reports.append(tmp_path / f"report-{path.stem}.json")
        assert main(["color", "--mode", "list", "--seed", "1", "--stream", str(path),
                     "--out-file", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert json.loads(reports[0].read_bytes())["violations"] == []


def test_read_stream_peak_memory_is_a_fraction_of_the_file(tmp_path):
    # the file is read in chunks: neither its bytes nor its whole text are
    # ever alive at once
    s = with_range_lists(gen_regular(60, 10, seed=1), 900)
    path = tmp_path / "listed.txt"
    path.write_text(emit_stream(s), encoding="utf-8")
    size = path.stat().st_size
    assert s.m == 300 and size > 1_000_000
    cli._read_stream(str(path))  # imports and compiled patterns outside the trace
    tracemalloc.start()
    try:
        got = cli._read_stream(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == s
    assert peak < size / 4, (peak, size)


def test_read_stream_peak_memory_on_one_long_palette(tmp_path):
    # one L= list of 200,000 colors: its colors are read one at a time and
    # its duplicates found in place, so the parse holds little beyond the
    # stream it returns
    path = tmp_path / "long.txt"
    path.write_text("n=2 dmax=1\ne 0 1 L=" + ",".join(map(str, range(1, 200_001))) + "\n",
                    encoding="utf-8")
    cli._read_stream(str(path))  # imports and compiled patterns outside the trace
    tracemalloc.start()
    try:
        got = cli._read_stream(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.palettes == (tuple(range(1, 200_001)),)
    assert peak <= 2 * held, (peak, held)


def test_color_cli_reports_a_bad_byte_late_in_the_file(tmp_path, capsys):
    # a byte that is not UTF-8 in the third chunk of canonical text is one
    # error line, exit 2; a format fault before it is reported first, as
    # the chunks before the bad byte are parsed before it is decoded
    data = emit_stream(gen_regular(300, 40, seed=1)).encode()
    at = 2 * PARSE_CHUNK + PARSE_CHUNK // 2
    assert len(data) > 3 * PARSE_CHUNK
    for text, message in ((data, "'utf-8' codec can't decode byte 0xff"),
                          (data.replace(b"\ne ", b"\ne\t", 1), "line 2: expected 'e <u> <v> ...'")):
        path = tmp_path / "bad.txt"
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        assert main(["color", "--stream", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
