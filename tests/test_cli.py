"""Entry-point behavior: pinned formats, exit codes, headers, determinism."""
import argparse
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from ramspect import cli
from ramspect.errors import ParameterError

K4 = "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def body_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


# ── fit_slope ────────────────────────────────────────────────────────────


def test_fit_slope_recovers_exact_power_law():
    pts = [(n, n ** 1.5) for n in (64, 128, 256, 512)]
    slope, half = cli.fit_slope(pts)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert half == pytest.approx(0.0, abs=1e-9)


def test_fit_slope_constant_counts():
    slope, _ = cli.fit_slope([(10, 7), (20, 7), (40, 7)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_interval_covers_noisy_truth():
    rng_pts = [(64, 64 ** 1.5 * 1.1), (128, 128 ** 1.5 * 0.95),
               (256, 256 ** 1.5 * 1.02), (512, 512 ** 1.5 * 0.97)]
    slope, half = cli.fit_slope(rng_pts)
    assert abs(slope - 1.5) <= half + 0.1


@pytest.mark.parametrize("pts", [
    [(10, 5), (20, 9)],                      # too few
    [(10, 5), (10, 9), (20, 4)],             # repeated n
    [(10, 5), (20, 0), (40, 4)],             # nonpositive count
])
def test_fit_slope_degenerate_inputs(pts):
    with pytest.raises(ParameterError):
        cli.fit_slope(pts)


# ── pinned formats ───────────────────────────────────────────────────────


def test_phi_k4_pinned_output(tmp_path, capsys):
    f = tmp_path / "k4.edges"
    f.write_text(K4)
    code, out, _ = run(capsys, "phi", "--graph", str(f))
    assert code == 0
    assert out == "0,1,3,6\n|Phi|=4 max=6\n"


def test_psi_output_shape(capsys):
    code, out, _ = run(capsys, "psi", "--gen", "complete", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0:0,1:0,2:1,3:3,4:6"
    assert lines[1] == "|Psi|=5 max=6"


def test_lo_csv_columns(tmp_path):
    out = tmp_path / "lo.csv"
    code = cli.main(["lo", "--model", "ones", "--n-list", "16,32,64,128",
                     "--out", str(out)])
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "n,max_prob,method"
    assert len(lines) == 5
    for l in lines[1:5]:
        n, prob, method = l.split(",")
        assert int(n) in (16, 32, 64, 128)
        assert 0 < float(prob) < 1
        assert method in ("exact", "mc")
    assert out.read_text().splitlines()[-1].startswith("# slope=")


def test_audit_json_keys(capsys):
    code, out, _ = run(capsys, "audit", "--gen", "gnp", "--n", "24",
                       "--graph-seed", "1", "--set", "sample_budget=40")
    assert code == 0
    doc = json.loads(out)
    for key in ("density", "diversity_max_count", "close_complement_pairs",
                "richness_status", "extract_trace"):
        assert key in doc
    assert doc["schema"] == cli.SCHEMA
    assert doc["header"]["version"] == cli.VERSION


def test_audit_accepts_delta_in_its_range(capsys):
    # delta = 0.4 lies in (0, 1/2]; no other audit key may refuse it
    code, out, err = run(capsys, "audit", "--gen", "gnp", "--n", "30",
                         "--set", "delta=0.4")
    assert code == 0, err
    assert json.loads(out)["header"]["config"]["params"]["delta"] == 0.4


def test_generate_roundtrips_through_phi(tmp_path, capsys):
    f = tmp_path / "g.graph"
    assert cli.main(["generate", "--gen", "gnp", "--n", "12", "--p", "0.5",
                     "--graph-seed", "6", "--out", str(f)]) == 0
    assert f.read_text().startswith("# ramspect ")
    code, out, _ = run(capsys, "phi", "--graph", str(f))
    assert code == 0
    assert out.splitlines()[0].startswith("0,")


GRAPH_COMMANDS = ("phi", "psi", "audit", "construct", "per-m", "theorem")


@pytest.mark.parametrize("cmd", GRAPH_COMMANDS)
def test_a_graph_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, cmd):
    f = tmp_path / "latin1.graph"
    f.write_bytes(b"n 4\n0 1\n# caf\xe9\n")  # a Latin-1 comment: byte 13 is 0xe9
    code, out, err = run(capsys, cmd, "--graph", str(f))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {f}: byte 13 is not valid UTF-8"]


def test_a_graph_file_is_read_as_utf8(tmp_path, capsys):
    f = tmp_path / "utf8.graph"
    f.write_bytes(("# café ✓\n" + K4).encode("utf-8"))
    code, out, _ = run(capsys, "phi", "--graph", str(f))
    assert (code, out) == (0, "0,1,3,6\n|Phi|=4 max=6\n")


# ── parser surface ───────────────────────────────────────────────────────


def describe(action) -> str:
    """Option strings, then '!' if required, ':type', '{choices}', '=default'
    and the action kind when it is not a plain store; help text is left out."""
    s = "/".join(action.option_strings)
    s += "!" * action.required
    if action.type is not None:
        s += ":" + action.type.__name__
    if action.choices is not None:
        s += "{" + "|".join(action.choices) + "}"
    if action.default is not None:
        s += f"={action.default!r}"
    kind = type(action).__name__
    return s if kind == "_StoreAction" else f"{s} {kind}"


GRAPH_FLAGS = ["--graph", "--gen{gnp|paley|complete|empty}", "--n:int", "--p:float",
               "--graph-seed:int"]
SEED_OUT = ["--seed:int", "--out"]
SURFACE = {
    "generate": ["--gen!{gnp|paley|complete|empty}", "--n!:int", "--p:float",
                 "--graph-seed:int", "--out"],
    "phi": [*GRAPH_FLAGS, "--out"],
    "psi": [*GRAPH_FLAGS, "--out"],
    "audit": [*GRAPH_FLAGS, "--set _AppendAction", *SEED_OUT],
    "lo": ["--model{ones|u3|u10}='ones'", "--n-list!:_int_list", "--p:float",
           "--trials:int", *SEED_OUT],
    "construct": [*GRAPH_FLAGS, "--m:int", "--diagnostics", "--set _AppendAction",
                  *SEED_OUT],
    "per-m": [*GRAPH_FLAGS, "--m:int", "--diagnostics", "--set _AppendAction",
              *SEED_OUT, "--dump"],
    "theorem": [*GRAPH_FLAGS, "--set _AppendAction", *SEED_OUT, "--dump"],
    "sweep": ["--mode{per-m|theorem}='per-m'", "--n-list!:_int_list",
              "--p:float", "--set _AppendAction", "--diagnostics", *SEED_OUT],
}


def test_every_flag_spec_is_taken_by_some_command():
    taken = {flag.rstrip("!") for _, _, flags in cli._COMMANDS.values() for flag in flags}
    assert taken == set(cli._FLAGS)


def test_parser_surface_is_pinned():
    # order matters: a usage line lists the options in registration order
    top = cli._build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: [describe(a) for a in p._actions
                  if not isinstance(a, argparse._HelpAction)]
           for name, p in sub.choices.items()}
    assert got == SURFACE
    assert list(got) == list(SURFACE)


# ── exit codes ───────────────────────────────────────────────────────────


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["phi", "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_override_key_exits_one(capsys):
    code, _, err = run(capsys, "audit", "--gen", "gnp", "--n", "10",
                       "--set", "nope=1")
    assert code == 1
    assert "unknown override key" in err


def test_verify_fraction_is_an_unknown_override_key(capsys):
    # the family table counts every cell, so no key sets a re-check share
    code, _, err = run(capsys, "per-m", "--gen", "gnp", "--n", "10",
                       "--set", "verify_fraction=0.5")
    assert code == 1
    assert "unknown override key 'verify_fraction'" in err


@pytest.mark.parametrize("key", sorted(cli._EP_FIELDS))
def test_construct_refuses_every_exposure_key(key, capsys):
    # construct runs no exposure, so an exposure value would change nothing
    # but the header; its known keys are the ConstructionParams fields
    known = ", ".join(sorted(cli._CP_FIELDS))
    assert run(capsys, "construct", "--gen", "gnp", "--n", "64", "--set", f"{key}=1") == \
        (1, "", f"error: unknown override key {key!r}; known keys: {known}\n")


@pytest.mark.parametrize("argv", [
    ["per-m", "--gen", "gnp", "--n", "64"],
    ["theorem", "--gen", "gnp", "--n", "64"],
    ["sweep", "--n-list", "64"],
], ids=lambda argv: argv[0])
def test_the_exposure_commands_take_both_override_groups(argv, capsys):
    known = ", ".join(sorted({**cli._CP_FIELDS, **cli._EP_FIELDS}))
    assert run(capsys, *argv, "--set", "bogus=1") == \
        (1, "", f"error: unknown override key 'bogus'; known keys: {known}\n")


def test_missing_graph_source_exits_one(capsys):
    code, _, err = run(capsys, "phi")
    assert code == 1
    assert "exactly one" in err


def test_capacity_exits_two(capsys):
    code, _, err = run(capsys, "audit", "--gen", "gnp", "--n", str(cli.VERTEX_CAP + 1))
    assert code == 2
    assert "capacity" in err


@pytest.mark.parametrize("cmd", ["phi", "psi"])
def test_spectrum_above_the_oracle_cap_is_refused_before_any_graph_is_built(
        cmd, tmp_path, capsys, monkeypatch):
    # above PHI_EXACT_CAP the kernel's vectors of 2^(n/2 + 1) entries outgrow
    # memory long before the walk ends, so neither source may build the rows
    from ramspect import graph_core as gc
    from ramspect import spectrum_oracle as so

    def refuse(*args, **kwargs):
        raise AssertionError("built a graph that the oracle cap refuses")

    monkeypatch.setattr(gc, "Graph", refuse)  # every build path constructs one
    n, cap = so.PHI_EXACT_CAP + 1, so.PHI_EXACT_CAP
    f = tmp_path / "big.graph"
    f.write_text(f"n {n}\n0 1\n")
    assert run(capsys, cmd, "--gen", "empty", "--n", str(n)) == (
        2, "", f"capacity: --n {n} is above the cap {cap}\n")
    assert run(capsys, cmd, "--graph", str(f)) == (
        2, "", f"capacity: graph header n {n} is above the cap {cap}\n")


def test_main_carries_no_value_from_one_call_into_the_next(tmp_path, capsys):
    # the parser is built once per process, so every call must parse afresh
    out = tmp_path / "audit.json"

    def config(*argv):
        assert cli.main(["audit", "--gen", "gnp", "--n", "12", *argv,
                         "--out", str(out)]) == 0
        return json.loads(out.read_text())["header"]["config"]

    fresh = config()
    first = config("--set", "c_div=0.3", "--set", "epsilon=0.15", "--p", "0.3",
                   "--graph-seed", "3", "--seed", "5")
    assert (first["params"]["c_div"], first["params"]["epsilon"]) == (0.3, 0.15)
    assert (first["graph"]["p"], first["graph"]["seed"], first["params"]["seed"]) == (0.3, 3, 5)
    second = config("--set", "delta=0.4")
    assert second == {**fresh, "params": {**fresh["params"], "delta": 0.4}}
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "--gen", "gnp", "--n", "12", "--set", "c_div=0.2",
                  "--p", "0.3", "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err
    assert config() == fresh
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv,n,status", [
    (["--gen", "gnp", "--n", "40", "--set", "delta=0.5"], 40, "no_witness_in_budget"),
    (["--gen", "complete", "--n", "16"], 16, "witness_found"),
    (["--gen", "empty", "--n", "0"], 0, "no_witness_in_budget"),
])
def test_budgeted_audit_runs_richness_once(capsys, monkeypatch, argv, n, status):
    # the status is read off the extraction, whose first round is the one
    # budgeted audit of the input graph; later rounds audit smaller graphs,
    # and at n = 0 the extraction stops before it audits
    from ramspect import structure_audit as sa
    calls = []
    real = sa.richness_audit

    def spy(g, params):
        calls.append(g.n)
        return real(g, params)

    monkeypatch.setattr(sa, "richness_audit", spy)
    code, out, _ = run(capsys, "audit", *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["richness_status"] == status
    assert [c for c in calls if c == n] == ([n] if n else [])
    # one audit per extraction round, and one more when the last finds no witness
    trace = doc["extract_trace"]
    assert len(calls) == len(trace["rounds"]) + (trace["status"] == "rich")


def cli_process(argv, env=(), **kwargs):
    """cli.main run in a fresh interpreter on this checkout's src/, with env
    entries added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    full = {**os.environ, **dict(env)}
    full["PYTHONPATH"] = os.pathsep.join(filter(None, (src, full.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from ramspect.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=full, timeout=60, **kwargs)


def test_small_draws_leave_numpy_random_unloaded(tmp_path):
    # below seeding.MT_BULK_WORDS words a draw reads getrandbits, so runs
    # whose draws are all small never load numpy.random, which costs peak
    # RSS; a G(300, 1/2) draw is one bulk read and loads it
    code = ("import sys; from ramspect.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    assert main(argv.split()) == 0, argv\n"
            "    print('numpy.random' in sys.modules)\n")
    argvs = ["phi --gen gnp --n 12", "per-m --gen gnp --n 64 --out w.csv",
             "generate --gen gnp --n 300 --out g.graph"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, *argvs], capture_output=True,
                          text=True, cwd=tmp_path, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["False", "False", "True"]


def test_huge_graph_file_is_a_capacity_error(tmp_path):
    # 2^20000 has more decimal digits than int-to-str allows; the message
    # must not need them.  At n = 10^12 the n rows would not fit in memory,
    # so the cap is checked before the graph is built.
    sources = []
    for n in (20000, 10 ** 12):
        f = tmp_path / f"huge{n}.graph"
        f.write_text(f"n {n}\n")
        sources.append(["--graph", str(f)])
    sources.append(["--gen", "complete", "--n", str(10 ** 12)])
    for argv in ([cmd, *source] for cmd in ("phi", "psi") for source in sources):
        proc = cli_process(argv)
        assert proc.returncode == 2, proc.stderr
        assert "capacity" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_every_graph_command_caps_the_vertex_count(tmp_path):
    # a header or --n far above cli.VERTEX_CAP must be refused before the
    # rows are built, not end in a MemoryError traceback
    huge = 10 ** 12
    f = tmp_path / "huge.graph"
    f.write_text(f"n {huge}\n")
    argvs = [[cmd, *source]
             for cmd in ("audit", "construct", "per-m", "theorem")
             for source in (["--graph", str(f)], ["--gen", "gnp", "--n", str(huge)])]
    argvs.append(["sweep", "--mode", "per-m", "--n-list", f"64,{huge}"])
    argvs.append(["generate", "--gen", "complete", "--n", str(huge)])
    for argv in argvs:
        proc = cli_process(argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("capacity:"), (argv, proc.stderr)
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""


# the child's address space: with one BLAS thread the import takes about
# 110 MiB, so every command below runs out well before it could finish
OOM_LIMIT = 250 << 20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (OOM_LIMIT, OOM_LIMIT))


@pytest.mark.parametrize("argv", [
    ["generate", "--gen", "gnp", "--n", "65536"],
    ["audit", "--gen", "complete", "--n", "65536"],
    ["construct", "--gen", "gnp", "--n", "65536"],
    ["per-m", "--gen", "complete", "--n", "65536"],
    ["theorem", "--gen", "complete", "--n", "65536"],
    ["sweep", "--n-list", "65536"],
], ids=lambda argv: argv[0])
def test_running_out_of_memory_is_one_capacity_line(argv):
    # gnp's packed bit matrix (512 MiB) fails in one allocation; complete's
    # int rows fill the heap first.  The limit acts on the child alone
    proc = cli_process(argv, env={"OPENBLAS_NUM_THREADS": "1"},
                       preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"capacity: out of memory in {argv[0]}\n"


@pytest.mark.parametrize("argv", [
    ["construct", "--gen", "gnp", "--n", "64", "--set", "retry_max=2.5"],
    ["per-m", "--gen", "gnp", "--n", "64", "--set", "trials=1e1"],
    ["audit", "--gen", "gnp", "--n", "16", "--set", "epsilon=abc"],
])
def test_mistyped_override_exits_one(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: override ")


def test_override_values_follow_field_types():
    groups = {"construct": cli._CP_FIELDS, "exposure": cli._EP_FIELDS}
    ov = cli._split_overrides(
        ["retry_max=7", "kappa1=2", "kappa2=1e0", "kappa3=none",
         "rich_prepass=False", "trials=3"], groups)
    assert ov["construct"] == {"retry_max": 7, "kappa1": 2, "kappa2": 1.0,
                               "kappa3": None, "rich_prepass": False}
    assert ov["exposure"] == {"trials": 3}
    for bad in ("rich_prepass=1", "kappa1=none", "retry_max=true"):
        with pytest.raises(ParameterError, match="expects"):
            cli._split_overrides([bad], groups)


@pytest.mark.parametrize("argv", [
    ["construct", "--gen", "gnp", "--n", "64", "--set", "c_density=nan"],
    ["construct", "--gen", "gnp", "--n", "64", "--set", "c_density=1e308"],
    ["construct", "--gen", "gnp", "--n", "64", "--set", "density_factor=nan"],
    ["construct", "--gen", "gnp", "--n", "64", "--set", "a_cap_coeff=nan"],
    ["construct", "--gen", "gnp", "--n", "64", "--set", "theta_conflict=nan"],
    ["construct", "--gen", "gnp", "--n", "64", "--set", "kappa3=nan"],
    ["construct", "--gen", "gnp", "--n", "64", "--set", "pair_sample_coeff=nan",
     "--set", "pair_enum_cap=10"],
    ["audit", "--gen", "gnp", "--n", "40", "--set", "c_div=nan"],
    ["theorem", "--gen", "gnp", "--n", "64", "--set", "kappa_window=1e306"],
    ["theorem", "--gen", "gnp", "--n", "64", "--set", "c_density=1e308"],
    ["theorem", "--gen", "gnp", "--n", "64", "--set", "delta=nan"],
    ["per-m", "--gen", "gnp", "--n", "64", "--set", "c_prime=1e308"],
    ["per-m", "--gen", "gnp", "--n", "64", "--set", "big_m=0"],
    ["per-m", "--gen", "gnp", "--n", "64", "--set", "beta=nan"],
    # 1.5c*n^2 is finite, 2c*n^2 is not: the m window refuses it, not the density stage
    ["construct", "--gen", "gnp", "--n", "40", "--set", "c_density=6e304"],
])
def test_non_finite_and_huge_overrides_exit_one(argv, capsys):
    # NaN fails every positivity check; an overflowing product is refused
    # where no clamp keeps its meaning
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,same_as", [
    (["construct", "--gen", "gnp", "--n", "64", "--set", "a_cap_coeff=1e308"],
     "a_cap_coeff=1e9"),
    (["construct", "--gen", "gnp", "--n", "64", "--set", "pair_sample_coeff=1e308",
      "--set", "pair_enum_cap=10"], "pair_sample_coeff=1e9"),
    (["audit", "--gen", "gnp", "--n", "40", "--set", "c_div=1e308"], "c_div=1e9"),
    (["per-m", "--gen", "gnp", "--n", "64", "--set", "q_const=1e308"], "q_const=1e9"),
])
def test_huge_overrides_are_clamped_to_what_a_large_value_does(argv, same_as, capsys):
    # a_cap, the pair sample, the audit's S and the cell separation are
    # clamped where they already stop mattering, before ceil/round overflows
    def body(text):
        # JSON artifacts echo the overrides in their header
        if argv[0] == "per-m":
            return text
        return {k: v for k, v in json.loads(text).items() if k != "header"}

    code, out, err = run(capsys, *argv)
    assert code == 0 and "Traceback" not in err
    code, ref_out, _ = run(capsys, *argv[:-1], same_as)
    assert code == 0
    assert body(out) == body(ref_out)


def test_pmf_drift_exits_one_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(cli.ac.LOPmf, "total", lambda self: 1.5)
    code, out, err = run(capsys, "lo", "--n-list", "16,32,64,128")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: pmf mass drifted to 1.5"]


def test_lo_rejects_nonpositive_trials(capsys):
    code, out, err = run(capsys, "lo", "--model", "u3", "--n-list", "8,16,32,64",
                         "--trials", "-3")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: trials must be positive, got -3"]


@pytest.mark.parametrize("argv", [["--seed", "3"], ["--trials", "500"],
                                  ["--model", "ones", "--trials", "-3"]])
def test_lo_ones_refuses_the_flags_it_does_not_read(argv, monkeypatch, capsys):
    # the all-ones coefficients take the exact walk and draw nothing, so a
    # --seed or --trials there would change nothing but the header
    def no_build(*args):
        raise AssertionError("coefficients built beside a flag the model does not read")

    monkeypatch.setattr(cli.ac, "model_coefficients", no_build)
    flag = argv[-2]
    assert run(capsys, "lo", "--n-list", "8,16,32,64", *argv) == (
        1, "", f"error: --model ones does not read {flag}\n")


def test_lo_caps_n_before_building_coefficients(monkeypatch, capsys):
    def no_build(*args):
        raise AssertionError("coefficients built before the cap check")

    monkeypatch.setattr(cli.ac, "model_coefficients", no_build)
    huge = cli.ac.EXACT_WEIGHT_CAP + 1
    code, out, err = run(capsys, "lo", "--model", "u3", "--n-list", f"16,32,64,{huge}")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"capacity: --n-list value {huge} is above the cap {cli.ac.EXACT_WEIGHT_CAP}"]


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["per-m", "--gen", "gnp", "--n", "64", "--workers", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_pipeline_failure_exits_three_with_diagnostics(tmp_path, capsys):
    diag = tmp_path / "fail.diag.json"
    code, _, err = run(capsys, "construct", "--gen", "complete", "--n", "64",
                       "--diagnostics", str(diag))
    assert code == 3
    assert "rich_prepass" in err
    doc = json.loads(diag.read_text())
    assert doc["stage"] == "rich_prepass"
    assert "diagnostics" in doc


def test_sweep_where_every_n_fails_exits_three_with_diagnostics(tmp_path, capsys):
    diag = tmp_path / "sweep.diag.json"
    code, _, err = run(capsys, "sweep", "--n-list", "16,32,40",
                       "--diagnostics", str(diag), "--out", str(tmp_path / "sw.csv"))
    assert code == 3
    assert err.splitlines() == [
        f"pipeline failure at stage 'sweep'; diagnostics in {diag}"]
    doc = json.loads(diag.read_text())
    assert set(doc) == {"schema", "stage", "message", "diagnostics"}
    assert doc["stage"] == "sweep"
    per_n = doc["diagnostics"]["per_n"]
    assert [f["n"] for f in per_n] == [16, 32, 40]
    assert all(f["stage"] and f["message"] for f in per_n)


def test_per_m_sizes_outside_a_small_window_exit_three(tmp_path, capsys):
    # kappa_window is a parameter, so a harvest outside it is a failed window
    diag = tmp_path / "pm.diag.json"
    code, _, err = run(capsys, "per-m", "--gen", "gnp", "--n", "64",
                       "--set", "kappa_window=0.01", "--diagnostics", str(diag))
    assert code == 3
    assert err.splitlines() == [
        f"pipeline failure at stage 'window'; diagnostics in {diag}"]
    doc = json.loads(diag.read_text())
    assert doc["stage"] == "window"
    window = doc["diagnostics"]
    assert window["kappa_window"] == 0.01 and window["outside"]
    assert all(abs(s - window["center"]) > window["radius"] for s in window["outside"])


def test_diagnostics_go_beside_out_or_into_the_working_directory(tmp_path, monkeypatch,
                                                                capsys):
    # without --diagnostics an exit-3 run writes FILE.diag.json for --out FILE,
    # else <command>.diag.json, the dash read as an underscore, in cwd
    argv = ["per-m", "--gen", "gnp", "--n", "64", "--set", "kappa_window=0.01"]
    monkeypatch.chdir(tmp_path)
    for extra, diag in (["--out", "w.csv"], "w.csv.diag.json"), ([], "per_m.diag.json"):
        code, _, err = run(capsys, *argv, *extra)
        assert code == 3
        assert err == f"pipeline failure at stage 'window'; diagnostics in {diag}\n"
        assert json.loads((tmp_path / diag).read_text())["stage"] == "window"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["per_m.diag.json",
                                                          "w.csv.diag.json"]


def test_an_out_file_in_a_missing_directory_is_an_io_error(tmp_path, capsys):
    code, out, err = run(capsys, "generate", "--gen", "empty", "--n", "4",
                         "--out", str(tmp_path / "missing" / "g.graph"))
    assert (code, out) == (1, "")
    assert err.startswith("io error: ") and len(err.splitlines()) == 1


def test_no_command_prints_the_usage_and_exits_one(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: ramspect [-h]")


def test_the_module_runs_as_a_command():
    # python -m ramspect.cli is the command where the package is not installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "ramspect.cli", "psi", "--gen", "complete", "--n", "3",
         "--graph-seed", "1"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: --gen complete does not read --graph-seed\n"


def test_sweep_rejects_an_empty_n_list(capsys):
    code, out, err = run(capsys, "sweep", "--n-list", ",")
    assert code == 1
    assert err == "error: --n-list needs at least one n\n"
    assert out == ""


@pytest.mark.parametrize("flag,value", [("--set", "kappa_window=0")])
def test_theorem_rejects_a_stride_that_is_not_positive(flag, value, capsys):
    # the stride is 2.2*kappa_window*n^(3/2), so kappa_window alone sets it
    code, _, err = run(capsys, "theorem", "--gen", "gnp", "--n", "256", flag, value)
    assert code == 1
    assert err.startswith("error: kappa_window must be positive") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e308", "inf", "9"])
def test_theorem_refuses_a_row_scale_that_fails_every_window(value, capsys):
    # |S| <= n in every window, so c' > sqrt(n) = 8 asks for more S units than
    # any window has; theorem refuses it once, as per-m does, instead of
    # failing every window and exiting 0 with total_distinct=0
    argv = ["--gen", "gnp", "--n", "64", "--set", f"c_prime={value}"]
    code, out, err = run(capsys, "theorem", *argv)
    per_m_code, _, per_m_err = run(capsys, "per-m", *argv)
    assert (code, out, per_m_code) == (1, "", 1)
    assert err.count("\n") == 1
    assert err.startswith("error: row range needs k=")
    assert err.partition(" but ")[0] == per_m_err.partition(" but ")[0]


def test_theorem_on_the_empty_graph_refuses_the_empty_m_range(capsys):
    # n = 0 puts c*n^2 = 0 at both ends; m = 0 is no window, so theorem
    # refuses the range as per-m does, not exit 0 with total 0
    argv = ["--gen", "empty", "--n", "0"]
    code, out, err = run(capsys, "theorem", *argv)
    assert (code, out, err) == (1, "", "error: empty m range [1, 0]\n")
    assert run(capsys, "per-m", *argv) == (code, out, err)


def test_theorem_exits_zero_with_no_row_when_every_window_fails(capsys):
    # theorem records a failed window and goes on, so a run whose every
    # window fails still exits 0: its CSV holds the header and the footer
    # alone, where sweep exits 3 once every n has failed
    code, out, err = run(capsys, "theorem", "--gen", "paley", "--n", "17",
                         "--set", "c_density=0.02")
    assert (code, err) == (0, "")
    header, *rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert header.startswith("m,e_U,") and rows == []
    footer = out.splitlines()[-1]
    assert footer.startswith("# total_distinct=0 ") and "windows_attempted=1" in footer


@pytest.mark.parametrize("argv", [
    ["per-m", "--gen", "gnp", "--n", "16"],
    ["construct", "--gen", "gnp", "--n", "16"],
    ["construct", "--gen", "paley", "--n", "5"],
    ["construct", "--gen", "gnp", "--n", "16", "--m", "1"],
    ["theorem", "--gen", "gnp", "--n", "16"],
])
def test_an_empty_m_window_is_refused_in_the_same_words(argv, capsys):
    # [c*n^2, 2c*n^2] holds no integer at n = 16 or 5: the default m of that
    # window is 0, which the user never passed, so the window is what is refused
    assert run(capsys, *argv) == (1, "", "error: empty m range [1, 0]\n")


@pytest.mark.parametrize("mode", ["per-m", "theorem"])
def test_sweep_records_an_empty_m_window_in_the_same_words(mode, tmp_path, capsys):
    diag = tmp_path / "sweep.diag.json"
    code, _, _ = run(capsys, "sweep", "--mode", mode, "--n-list", "16,32",
                     "--out", str(tmp_path / "sweep.csv"), "--diagnostics", str(diag))
    assert code == 3
    per_n = json.loads(diag.read_text())["diagnostics"]["per_n"]
    assert [(f["stage"], f["message"]) for f in per_n] == \
        [("parameters", "empty m range [1, 0]")] * 2


BEYOND_MAXSIZE = "100000000000000000000000"


@pytest.mark.parametrize("argv,message", [
    (["audit", "--gen", "gnp", "--n", "64", "--set", f"sample_budget={BEYOND_MAXSIZE}"],
     f"sample_budget must be at most {sys.maxsize}, got {BEYOND_MAXSIZE}"),
    (["theorem", "--gen", "gnp", "--n", "64", "--set", f"audit_budget={BEYOND_MAXSIZE}"],
     f"sample_budget must be at most {sys.maxsize}, got {BEYOND_MAXSIZE}"),
    (["sweep", "--n-list", "256", "--set", f"audit_budget={BEYOND_MAXSIZE}"],
     f"sample_budget must be at most {sys.maxsize}, got {BEYOND_MAXSIZE}"),
    (["construct", "--gen", "gnp", "--n", "256", "--set",
      f"bucket_width={sys.maxsize + 1}"],
     f"bucket_width must be at most {sys.maxsize}, got {sys.maxsize + 1}"),
    (["per-m", "--gen", "gnp", "--n", "256", "--set", f"bucket_width={sys.maxsize + 1}",
      "--set", "pair_enum_cap=5"],
     f"bucket_width must be at most {sys.maxsize}, got {sys.maxsize + 1}"),
], ids=["audit", "theorem", "sweep", "construct", "per-m-sampled"])
def test_an_int_override_beyond_maxsize_is_refused(argv, message, capsys):
    # the candidate draw's islice and the int64 bucket arithmetic stop at
    # sys.maxsize; a larger value is a parameter error, not a traceback
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_a_bucket_width_of_maxsize_still_runs_the_pipeline(tmp_path, capsys):
    diag = tmp_path / "c.diag.json"
    code, _, err = run(capsys, "construct", "--gen", "gnp", "--n", "256", "--set",
                       f"bucket_width={sys.maxsize}", "--diagnostics", str(diag))
    assert code == 3
    assert err == f"pipeline failure at stage 'sample_U0'; diagnostics in {diag}\n"


@pytest.mark.parametrize("model", ["u3", "u10"])
def test_lo_refuses_a_negative_seed(model, capsys):
    argv = ["lo", "--model", model, "--n-list", "4,8,16,32", "--seed", "-1"]
    assert run(capsys, *argv) == (1, "", "error: seed must be non-negative, got -1\n")


@pytest.mark.parametrize("argv", [
    ["generate", "--gen", "gnp", "--n", "5"],
    ["audit", "--gen", "gnp", "--n", "5"],
    ["lo", "--n-list", "4,8,16,32"],
    ["construct", "--gen", "gnp", "--n", "64"],
    ["per-m", "--gen", "gnp", "--n", "64"],
    ["theorem", "--gen", "gnp", "--n", "64"],
    ["sweep", "--n-list", "64"],
], ids=lambda argv: argv[0])
def test_every_command_refuses_a_negative_seed(argv, capsys):
    # one seed domain for every command and model, lo's u3 and u10 included;
    # generate draws from its graph seed alone
    name = "graph_seed" if argv[0] == "generate" else "seed"
    assert run(capsys, *argv, f"--{name.replace('_', '-')}", "-1") == \
        (1, "", f"error: {name} must be non-negative, got -1\n")


@pytest.mark.parametrize("cmd", ["phi", "psi"])
def test_phi_and_psi_take_no_seed(cmd, capsys, tmp_path):
    # the oracles draw nothing, so a seed could only enter the header
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--gen", "gnp", "--n", "5", "--seed", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    out = tmp_path / "s.txt"
    assert cli.main([cmd, "--gen", "gnp", "--n", "5", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "# seed 0"


@pytest.mark.parametrize("argv", [
    ["phi", "--gen", "gnp", "--n", "10"],
    ["audit", "--gen", "complete", "--n", "5"],
    ["per-m", "--gen", "empty", "--n", "5"],
    ["psi", "--gen", "paley", "--n", "5"],
    ["construct", "--gen", "gnp", "--n", "64"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_every_graph_command_refuses_a_negative_graph_seed(argv, capsys):
    # random.Random seeds an int by its absolute value, so -1 would build
    # the graph of seed 1; the models that draw nothing refuse it too
    assert run(capsys, *argv, "--graph-seed", "-1") == \
        (1, "", "error: graph_seed must be non-negative, got -1\n")


UNREAD_FLAGS = {"--n": "5", "--p": "0.3", "--graph-seed": "9"}
# (source argv, its name in the message, the graph-source flags it ignores)
UNREAD_SOURCES = [(["--graph", "K4"], "--graph", ("--n", "--p", "--graph-seed")),
                  *((["--gen", model, "--n", n], f"--gen {model}", ("--p", "--graph-seed"))
                    for model, n in (("paley", "13"), ("complete", "5"), ("empty", "5")))]
UNREAD_CASES = [([cmd, *source, flag, UNREAD_FLAGS[flag]], f"{name} does not read {flag}")
                for cmd in GRAPH_COMMANDS for source, name, flags in UNREAD_SOURCES
                for flag in flags]
UNREAD_CASES += [(["generate", *source, flag, UNREAD_FLAGS[flag]],
                  f"{name} does not read {flag}")
                 for source, name, flags in UNREAD_SOURCES[1:] for flag in flags]


@pytest.mark.parametrize("argv,message", UNREAD_CASES,
                         ids=[" ".join(argv) for argv, _ in UNREAD_CASES])
def test_a_source_refuses_each_flag_it_does_not_read(argv, message, tmp_path, capsys,
                                                     monkeypatch):
    # a flag that changes nothing is refused before any graph is built
    from ramspect import graph_core as gc

    def refuse(*args, **kwargs):
        raise AssertionError("built a graph beside a flag its source does not read")

    monkeypatch.setattr(gc, "Graph", refuse)  # every build path constructs one
    f = tmp_path / "k4.graph"
    f.write_text(K4)
    argv = [str(f) if a == "K4" else a for a in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["generate", "--gen", "gnp", "--n", "30"],
    ["phi", "--gen", "gnp", "--n", "12"],
    ["audit", "--gen", "gnp", "--n", "40"],
    ["lo", "--model", "u3", "--n-list", "8,16,32,64"],
    ["sweep", "--n-list", "64,96,128"],
], ids=lambda argv: argv[0])
def test_p_and_graph_seed_left_out_read_as_one_half_and_zero(argv, tmp_path):
    # the files, header included, equal those of the flags given at those
    # values; --seed and lo's --trials, left out, read 0 and 200,000 alike
    given = {"generate": ["--p", "0.5", "--graph-seed", "0"],
             "phi": ["--p", "0.5", "--graph-seed", "0"],
             "audit": ["--p", "0.5", "--graph-seed", "0", "--seed", "0"],
             "lo": ["--p", "0.5", "--seed", "0", "--trials", "200000"],
             "sweep": ["--p", "0.5", "--seed", "0"]}
    left_out, stated = tmp_path / "left_out.txt", tmp_path / "stated.txt"
    assert cli.main([*argv, "--out", str(left_out)]) == 0
    extra = given[argv[0]]
    assert cli.main([*argv, *extra, "--out", str(stated)]) == 0
    assert left_out.read_bytes() == stated.read_bytes()


def test_exhaustive_flag_is_gone(capsys):
    # the exact richness check is test code (reference.richness_audit_loop)
    with pytest.raises(SystemExit) as exc:
        cli.main(["audit", "--gen", "gnp", "--n", "12", "--exhaustive"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --exhaustive" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--gen", "gnp", "--n", "5", "--seed", "3"],
    ["theorem", "--gen", "gnp", "--n", "64", "--sigma", "1"],
], ids=lambda argv: argv[0])
def test_generate_seed_and_theorem_sigma_are_gone(argv, capsys):
    # generate's graph seed is --graph-seed; theorem's stride is set by
    # kappa_window alone
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_theorem_diagnostics_flag_is_gone(capsys):
    # theorem records a failed window and goes on, so it never exits 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["theorem", "--gen", "gnp", "--n", "64", "--diagnostics", "x"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --diagnostics x" in capsys.readouterr().err


# ── pipeline artifacts ───────────────────────────────────────────────────


def test_construct_json_artifact(tmp_path):
    out = tmp_path / "c.json"
    code = cli.main(["construct", "--gen", "gnp", "--n", "256",
                     "--graph-seed", "3", "--seed", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    for key in ("mode", "d", "d_prime", "d_doubleprime", "p", "u0_size",
                "s_units", "t_units", "x_units", "diagnostics"):
        assert key in doc
    assert doc["mode"] in ("star", "matching")
    assert doc["header"]["seed"] == 4
    for unit in doc["s_units"] + doc["t_units"] + doc["x_units"]:
        assert isinstance(unit, list) and len(unit) in (1, 2)


@pytest.mark.parametrize("key,derived", [("theta_compl", ()),
                                         ("theta_conflict", ("kappa3",))])
def test_a_theta_of_minus_inf_reads_as_a_huge_negative_one(key, derived, tmp_path):
    # any theta <= 0 screens a one-word prefix and keeps every pair, -inf
    # included, which must not reach ceil()
    docs = []
    for value in ("-inf", "-1e300"):
        out = tmp_path / f"{value}.json"
        assert cli.main(["construct", "--gen", "gnp", "--n", "256", "--set", f"{key}={value}",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # the header echoes the override; theta and what it resolves are echoed
        del doc["header"]
        for name in (key,) + derived:
            del doc["diagnostics"]["resolved"][name]
        for name in derived:
            del doc[name], doc["diagnostics"]["sampling"][name]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["diagnostics"]["h_filtered_size"] == docs[0]["diagnostics"]["h_size"]


def test_per_m_csv_and_dump(tmp_path):
    out = tmp_path / "pm.csv"
    dump = tmp_path / "pm.json"
    code = cli.main(["per-m", "--gen", "gnp", "--n", "256", "--graph-seed", "3",
                     "--seed", "11", "--out", str(out), "--dump", str(dump)])
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "m,e_U,distinct_count,k_selected,p_selected,attempts"
    m, e_u, count, ks, ps, attempts = lines[1].split(",")
    assert int(count) > 0 and int(attempts) >= 1
    doc = json.loads(dump.read_text())
    assert doc["schema"] == cli.SCHEMA
    assert len(doc["distinct_sizes"]) == int(count)
    assert doc["m"] == int(m)
    # header lines carry version/seed/config and no timestamps
    header = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert header[0] == f"# ramspect {cli.VERSION}"
    assert header[1] == "# seed 11"
    assert header[2].startswith("# config {")


def test_theorem_csv(tmp_path):
    out = tmp_path / "th.csv"
    code = cli.main(["theorem", "--gen", "gnp", "--n", "256",
                     "--graph-seed", "3", "--seed", "11", "--out", str(out)])
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "m,e_U,distinct_count,k_selected,p_selected,attempts"
    tail = out.read_text().splitlines()[-1]
    assert tail.startswith("# total_distinct=")


def test_sweep_csv_and_slope_line(tmp_path):
    out = tmp_path / "sw.csv"
    code = cli.main(["sweep", "--mode", "per-m", "--n-list", "256,384,512",
                     "--seed", "21", "--out", str(out)])
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "n,count"
    assert len(lines) == 5
    assert lines[-1].startswith("slope=")
    slope = float(lines[-1].split()[0].split("=")[1])
    assert math.isfinite(slope)


def test_sweep_gives_zero_rows_for_empty_m_windows(tmp_path, capsys):
    # the m-window [c*n^2, 2c*n^2] holds no positive integer at n = 16, 32
    out = tmp_path / "sw.csv"
    code, _, err = run(capsys, "sweep", "--n-list", "16,32,64", "--out", str(out))
    assert code == 0
    assert "Traceback" not in err
    lines = body_lines(out)
    rows = [l.split(",") for l in lines[1:4]]
    assert lines[0] == "n,count"
    assert [n for n, _ in rows] == ["16", "32", "64"]
    assert rows[0][1] == "0" and rows[1][1] == "0"


# ── determinism ──────────────────────────────────────────────────────────


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["per-m", "--gen", "gnp", "--n", "256", "--graph-seed", "3",
            "--seed", "11"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
