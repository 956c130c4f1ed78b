"""Digests of the CLI's output on a fixed corpus of small invocations.

Each invocation in ``CORPUS`` runs in-process through
``onlinecolor.cli.main``, in order, in one temporary directory.  A ``gen``
invocation's output is saved there under its name, and an argument token
``@name`` stands for that file's path (or for a profile file of
``PROFILES``), so later invocations read the streams made before them.
What is kept per invocation is its exit code and the first 16 hex digits
of the sha256 of its stdout, after every ``"wall_time_sec"`` value in it is
masked; nothing else is masked.  Stderr is left out: it holds only
one-line notes beside the report (``error:``, ``warning:``, a violation
count), and the digests pin the reports.  Profile files carry a ``name``
key, so no temporary path enters a digest.

    python3 tools/golden.py --check   # compare with tests/golden.json
    python3 tools/golden.py --write   # regenerate tests/golden.json

``--check`` prints each invocation whose exit code or digest differs, and
exits 1 when there is one.  Regenerating the file is a change to reference
data: say which invocations moved, and why.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"

PROFILES = {
    # a schedule with active phases on the 1,500-edge stream "dense"
    "multiphase": {"name": "multiphase", "c_stop": 5.0, "c_q_color": 0.1, "a_base_mult": 5.0},
}

# (name, argv); the streams stay small so the whole corpus runs in seconds
CORPUS = [
    ("reg", ["gen", "--kind", "regular", "--n", "30", "--delta", "6", "--seed", "2",
             "--order", "random"]),
    ("er", ["gen", "--kind", "erdos_renyi", "--n", "12", "--p", "0.4", "--seed", "3",
            "--order", "reversed"]),
    ("bip", ["gen", "--kind", "complete_bipartite", "--a", "3", "--b", "4"]),
    ("tree", ["gen", "--kind", "lower_bound_tree", "--delta", "6", "--q-int", "2",
              "--order", "random", "--seed", "4"]),
    ("small", ["gen", "--kind", "regular", "--n", "10", "--delta", "3", "--seed", "5",
               "--order", "random"]),
    ("frac", ["gen", "--kind", "regular", "--n", "10", "--delta", "3", "--seed", "6",
              "--x-uniform", "0.3"]),
    ("listed", ["gen", "--kind", "regular", "--n", "20", "--delta", "4", "--seed", "7",
                "--list-size", "9", "--order", "random"]),
    ("dense", ["gen", "--kind", "regular", "--n", "60", "--delta", "50", "--seed", "3"]),
    ("match-json", ["match", "--stream", "@reg", "--q", "1.5", "--seed", "3"]),
    ("match-csv", ["match", "--stream", "@reg", "--q", "1.5", "--seed", "3", "--out", "csv"]),
    ("match-natural", ["match", "--stream", "@er", "--mode", "natural", "--q", "1", "--seed", "1"]),
    ("match-natural-csv", ["match", "--stream", "@tree", "--mode", "natural", "--q", "2",
                           "--out", "csv"]),
    ("match-fallback", ["match", "--stream", "@bip", "--mode", "greedy_fallback", "--seed", "1"]),
    ("round-json", ["round", "--stream", "@frac", "--seed", "4", "--c-round", "0.2"]),
    ("round-csv", ["round", "--stream", "@frac", "--seed", "4", "--epsilon", "0.35",
                   "--out", "csv"]),
    ("color-plain", ["color", "--stream", "@reg", "--seed", "1"]),
    ("color-list", ["color", "--stream", "@listed", "--mode", "list", "--seed", "1"]),
    ("color-local", ["color", "--stream", "@er", "--mode", "local", "--seed", "1"]),
    ("color-multiphase", ["color", "--stream", "@dense", "--profile", "file:@multiphase",
                          "--seed", "1"]),
    ("oracle-json", ["oracle", "--stream", "@small", "--q", "1"]),
    ("oracle-csv", ["oracle", "--stream", "@small", "--q", "1", "--out", "csv"]),
    ("oracle-exact", ["oracle", "--stream", "@bip", "--q", "1", "--exact"]),
    ("oracle-exact-csv", ["oracle", "--stream", "@bip", "--q", "1", "--exact", "--out", "csv"]),
    ("oracle-rounder", ["oracle", "--stream", "@frac", "--out", "csv"]),
    ("oracle-rounder-exact", ["oracle", "--stream", "@frac", "--exact"]),
    ("mc-json", ["mc", "--stream", "@reg", "--q", "1.5", "--trials", "200", "--seed", "5"]),
    ("mc-csv", ["mc", "--stream", "@small", "--q", "1", "--trials", "300", "--seed", "5",
                "--out", "csv"]),
    ("mc-theory", ["mc", "--stream", "@reg", "--profile", "theory", "--trials", "50"]),
    ("martingale", ["martingale", "--stream", "@reg", "--q", "1.5", "--vertex", "0",
                    "--trials", "200", "--seed", "9"]),
    ("counterexample", ["counterexample", "--delta", "6", "--q-int", "2"]),
    ("verify-matcher", ["verify", "--stream", "@small", "--q", "1", "--trials", "500",
                        "--seed", "2"]),
    ("verify-rounder", ["verify", "--stream", "@frac", "--trials", "500", "--seed", "2"]),
]

_WALL_TIME = re.compile(r'("wall_time_sec": )[^,\n}]+')
_REF = re.compile(r"@(\w[\w-]*)")


def _run(argv: list[str]) -> tuple[int, str]:
    from onlinecolor.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return code, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(_WALL_TIME.sub(r"\1null", stdout).encode()).hexdigest()[:16]


def run_corpus() -> list[dict]:
    """Each invocation of ``CORPUS``, run in order: its name, argv, exit
    code and output digest."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in PROFILES.items():
            files[name] = Path(tmp, f"{name}.json")
            files[name].write_text(json.dumps(data), encoding="utf-8")
        for name, argv in CORPUS:
            code, out = _run([_REF.sub(lambda m: str(files[m.group(1)]), a) for a in argv])
            if argv[0] == "gen":
                files[name] = Path(tmp, f"{name}.txt")
                files[name].write_text(out, encoding="utf-8")
            records.append({"name": name, "argv": argv, "exit": code, "digest": digest(out)})
    return records


def differences(records: list[dict], golden: list[dict]) -> list[str]:
    """One line per invocation whose argv, exit code or digest differs from
    the recorded one, or that only one side has."""
    want = {rec["name"]: rec for rec in golden}
    got = {rec["name"]: rec for rec in records}
    bad = [f"{name}: not run" for name in want if name not in got]
    for name, rec in got.items():
        old = want.get(name)
        if old is None:
            bad.append(f"{name}: not recorded")
            continue
        for key in ("argv", "exit", "digest"):
            if rec[key] != old[key]:
                bad.append(f"{name}: {key} {old[key]!r} -> {rec[key]!r}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate " + GOLDEN.name)
    mode.add_argument("--check", action="store_true", help="compare with " + GOLDEN.name)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    records = run_corpus()
    if args.write:
        lines = ",\n".join(json.dumps(rec) for rec in records)  # one invocation a line
        GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        print(f"wrote {len(records)} digests to {GOLDEN}")
        return 0
    bad = differences(records, json.loads(GOLDEN.read_text(encoding="utf-8")))
    for line in bad:
        print(line)
    print(f"{len(records)} invocations, {len(bad)} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
