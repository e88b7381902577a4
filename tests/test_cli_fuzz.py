"""Argv fuzz through cli.main: any argv, good or bad, ends in a documented
exit code (0/1/2/3) with at most one stderr message line and no traceback.

Every graph a case can build has n <= 40, or is refused before it is
allocated: above PHI_EXACT_CAP for phi/psi, above VERTEX_CAP for the rest (a
graph near that cap holds about 2^32 adjacency bits, half a gigabyte).  A
graph-source flag that its source does not read (--n, --p or --graph-seed
beside --graph; --p or --graph-seed beside a model other than gnp) exits 1.
"""
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ramspect import cli

HUGE = str(cli.VERTEX_CAP + 1)
BAD_NUMBERS = ["x", "nan", "inf", "-3", "1e308"]

GRAPH_FILES = {
    "k4": "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "path": "n 12\n" + "".join(f"{v} {v + 1}\n" for v in range(11)),
    "no_header": "0 1\n1 2\n",
    "negative_header": "n -3\n",
    "float_header": "n 4.5\n0 1\n",
    "empty_file": "",
    "text_endpoint": "n 4\n0 x\n",
    "out_of_range": "n 4\n0 9\n",
    "negative_endpoint": "n 4\n-1 2\n",
    "self_loop": "n 4\n1 1\n",
    "one_endpoint": "n 4\n2\n",
    "above_cap": f"n {HUGE}\n",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # exit-3 runs without --out or --diagnostics write <cmd>.diag.json in cwd
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in GRAPH_FILES.items():
        (d / f"{name}.graph").write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        yield d


def values(*good):
    # one value in five malformed, so most cases get past argparse
    return st.integers(0, 4).flatmap(
        lambda r: st.sampled_from(BAD_NUMBERS if r == 0 else good))


GRAPH_SOURCE = {
    "--graph": st.sampled_from([f"{name}.graph" for name in GRAPH_FILES]
                               + ["missing.graph"]),
    "--gen": st.sampled_from(["gnp", "paley", "complete", "empty", "bogus"]),
    "--n": values("0", "1", "5", "13", "40", HUGE),
    "--p": values("0", "0.5", "1"),
    "--graph-seed": values("0", "2", "-1"),
}
SEED_OUT = {"--seed": values("0", "7", "-1"), "--out": st.just("out.txt")}
OVERRIDES = st.sampled_from([
    "c_density=0.5", "c_density=nan", "c_density=1e308", "kappa_window=0",
    "kappa_window=0.3", "trials=x", "trials=2", "retry_max=2", "c_prime=inf",
    "epsilon=0.3", "sample_budget=20", "c_div=-1", "delta=0.4", "rich_prepass=false",
    "theta_compl=-inf", "theta_conflict=-inf", "sample_budget=100000000000000000000000",
    "bucket_width=9223372036854775808", "retry_max=100000000000000000000000", "trials=0",
    "k_rounds=0", "big_m=nan", "bogus=1", "no_equals_sign", "=1"])
PIPELINE = {**GRAPH_SOURCE, "--set": OVERRIDES, **SEED_OUT}
# phi/psi get small n only: the exact oracles are exponential in n; they
# draw nothing and take no --seed
SPECTRUM = {**GRAPH_SOURCE, "--n": values("0", "1", "5", "13", HUGE),
            "--out": SEED_OUT["--out"]}
# a diagnostics file in a missing directory cannot be written: exit 1, not 3
DIAG = st.sampled_from(["diag.json", "missing_dir/diag.json"])
N_LISTS = st.sampled_from(["8,16,32", "10,20,40", "4,40", ",", "x", "-4,8,16",
                           "0,1,2", f"16,32,{HUGE}", "16,16,32"])

FLAGS = {
    "generate": {"--gen": GRAPH_SOURCE["--gen"], "--n": GRAPH_SOURCE["--n"],
                 "--p": GRAPH_SOURCE["--p"], "--graph-seed": GRAPH_SOURCE["--graph-seed"],
                 "--out": SEED_OUT["--out"]},
    "phi": SPECTRUM,
    "psi": SPECTRUM,
    "audit": {**GRAPH_SOURCE, "--set": OVERRIDES, **SEED_OUT},
    "lo": {"--model": st.sampled_from(["ones", "u3", "u10", "bad"]),
           "--n-list": N_LISTS, "--p": values("0.5", "0.9"),
           "--trials": values("1", "200"), **SEED_OUT},
    "construct": {**PIPELINE, "--m": values("1", "50", "0"), "--diagnostics": DIAG},
    "per-m": {**PIPELINE, "--m": values("1", "50", "0"), "--diagnostics": DIAG,
              "--dump": st.just("dump.json")},
    "theorem": {**PIPELINE, "--dump": st.just("dump.json")},
    "sweep": {"--mode": st.sampled_from(["per-m", "theorem", "bad"]),
              "--n-list": N_LISTS, "--p": values("0.5"), "--set": OVERRIDES,
              "--diagnostics": DIAG, **SEED_OUT},
}


# chance in ten that a flag is given: the required ones and a graph source
# mostly are, --p and --graph-seed less often, since only gnp reads them,
# and anything else about half the time
WEIGHT = {"--gen": 7, "--n": 9, "--n-list": 9, "--graph": 3, "--p": 3, "--graph-seed": 3}

UNREAD = {"--graph": {"--n", "--p", "--graph-seed"}, "paley": {"--p", "--graph-seed"},
          "complete": {"--p", "--graph-seed"}, "empty": {"--p", "--graph-seed"}}


def gives_an_unread_flag(argv) -> bool:
    """argv gives a graph-source flag that its source does not read."""
    opts = dict(zip(argv[1::2], argv[2::2]))  # every flag drawn takes a value
    source = "--graph" if "--graph" in opts else opts.get("--gen")
    return bool(UNREAD.get(source, set()) & opts.keys())


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[cmd]
    argv = [cmd]
    for flag in flags:
        if draw(st.integers(0, 9)) >= WEIGHT.get(flag, 5):
            continue
        argv += [flag, draw(flags[flag])]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "stray", "--"])))
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    return code, err.getvalue()


def message_lines(err: str) -> list:
    # argparse's usage block (a 'usage:' line and its indented continuations)
    # precedes its one error line; it is not a message
    return [l for l in err.splitlines()
            if not (l.startswith("usage:") or l.startswith(" "))]


@settings(max_examples=300)
@given(argv=argvs())
def test_any_argv_ends_in_a_documented_exit(argv, workdir):
    code, err = run_main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert len(message_lines(err)) <= 1, (argv, err)
    assert (code == 0) == (err == ""), (argv, code, err)
    if gives_an_unread_flag(argv):
        assert code == 1, (argv, code, err)


@pytest.mark.parametrize("argv,code", [
    (["phi", "--graph", "self_loop.graph"], 1),
    (["construct", "--gen", "gnp", "--n", "40", "--set", "c_density=nan"], 1),
    (["per-m", "--gen", "paley", "--n", HUGE], 2),
])
def test_optimised_interpreter_exits_the_same(argv, code, workdir):
    # python -O strips asserts: no guard may rest on one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; from ramspect.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert (proc.returncode, proc.stderr) == run_main(argv)
