"""Golden artifacts: sha256 pins of CLI outputs below their headers.

A refactor must leave every artifact byte-identical for a fixed config and
seed.  Text files are hashed after their three '# ramspect / # seed /
# config' lines (later '#' lines, such as lo's slope line, are body); JSON
files are hashed with their "header" key removed, re-serialized the way the
CLI writes them.  The header is excluded because it echoes the config, whose
keys may change without the results changing.
"""
import hashlib
import json

import pytest

from ramspect import cli


def text_body(path) -> bytes:
    lines = path.read_text().splitlines(keepends=True)
    assert [l.split()[:2] for l in lines[:3]] == [
        ["#", "ramspect"], ["#", "seed"], ["#", "config"]]
    return "".join(lines[3:]).encode()


def json_body(path) -> bytes:
    doc = json.loads(path.read_text())
    del doc["header"]
    return json.dumps(doc, sort_keys=True).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


LATE_WITNESS_AUDIT = ["audit", "--gen", "gnp", "--n", "200", "--p", "0.65",
                      "--graph-seed", "1"]

MATCHING_PER_M = ["per-m", "--gen", "gnp", "--n", "512", "--graph-seed", "1",
                  "--seed", "3", "--set", "theta_compl=0.45", "--set", "star_coeff=100"]

CASES = {
    "construct": (
        ["construct", "--gen", "gnp", "--n", "512", "--graph-seed", "1",
         "--seed", "3"],
        {"out.json": (json_body,
                      "e36355b174c61e182e603bba3653042c9ad95e4896d44abad30d891c8cad4a90")}),
    # matching mode, and the close-complement filter drops 779 of 65,248 pairs
    "construct-matching": (
        ["construct", "--gen", "gnp", "--n", "512", "--graph-seed", "1",
         "--seed", "3", "--set", "theta_compl=0.45", "--set", "star_coeff=100"],
        {"out.json": (json_body,
                      "e8a798842c3d7d583c6012064bec849dff7307abeaf31135cfa3c1478a02762e")}),
    # above pair_enum_cap, pigeonhole_pairs samples its pairs: about 615k
    # randrange calls from the one seeded stream
    "construct-sampled-pairs": (
        ["construct", "--gen", "gnp", "--n", "600", "--set", "pair_enum_cap=500"],
        {"out.json": (json_body,
                      "1053825799eec24fac944e0b5d7db5b1c6264c5ce3593aa77f6764e8efda7968")}),
    "per-m": (
        ["per-m", "--gen", "gnp", "--n", "256", "--graph-seed", "3",
         "--seed", "11"],
        {"out.csv": (text_body,
                     "43f88f37522f2a858ede7c45b52b99fd0ad2cebaa6fd3eeaadaacdf7b85305c5"),
         "dump.json": (json_body,
                       "dd83dfd5e3b289689d8d775121e4a92dbdd1f7acdec453176aef7bdbff33f02f")}),
    # matching mode: the family is pair units, some with an internal edge
    "per-m-matching": (
        MATCHING_PER_M,
        {"out.csv": (text_body,
                     "bfde0070d8807b8506c9cba8a9cfd6fb0d98d135c0b6b8a618d013f07440a121"),
         "dump.json": (json_body,
                       "e4c155d56e8f859dd7b434d9abf529b8d12816f5818da2df82d46e8c4eb90fd3")}),
    # kappa = c'*sqrt(n) = 3 exactly: a 4 x 4 family table (k = 3..6,
    # i = 0..3) and 15 distinct sizes
    "per-m-n1024": (
        ["per-m", "--gen", "gnp", "--n", "1024", "--graph-seed", "0",
         "--seed", "3", "--set", "c_prime=0.09375"],
        {"out.csv": (text_body,
                     "32479380c3479cfc6e91a61147e4f81d93873cc9f2c3c3abe62e36c2d63525dc"),
         "dump.json": (json_body,
                       "29199b6970947d916f72b8c4aa4ecb07df44b66c416860308630bcb4e8ecfe33")}),
    "audit": (
        ["audit", "--gen", "gnp", "--n", "40"],
        {"out.json": (json_body,
                      "c0e825bcce5bf03642c2a97981947eb870666cb79254c226966a079d46afb76c")}),
    # 24 words per row, no richness witness
    "audit-n1536": (
        ["audit", "--gen", "gnp", "--n", "1536", "--graph-seed", "2"],
        {"out.json": (json_body,
                      "0eaab48fc24c4bac655b02caef8788e0623e7a17fdd08386008dda22c5ff1509")}),
    # a partly filled last word, and extraction rounds after a witness
    "audit-sparse": (
        ["audit", "--gen", "gnp", "--n", "300", "--p", "0.05", "--set", "c_div=0.45"],
        {"out.json": (json_body,
                      "78c7d985586c26b0c8eaddc3764cec9593919a9800e4178d280c076e25112fbd")}),
    # the first richness witness is candidate 269, and the extraction rounds
    # audit graphs of 63, 34, 23, 15, 6 and 3 vertices after it
    "audit-late-witness": (
        LATE_WITNESS_AUDIT,
        {"out.json": (json_body,
                      "aee54e1aff26a76166c7fa6b5e9cf7988364d8be5fdc34c3961a3c6d1ca7298c")}),
    "lo": (
        ["lo", "--model", "u3", "--n-list", "16,32,64,128", "--trials", "2000",
         "--seed", "9"],
        {"out.csv": (text_body,
                     "20fb5c1d4e66b85de019ab192b685812652057ade5f26451053130773f05e4a7")}),
    "phi": (
        ["phi", "--gen", "gnp", "--n", "18", "--graph-seed", "2"],
        {"out.csv": (text_body,
                     "d8fa7e993134fdda83d4b1b44f0b071dce23e7c8c6de1e5d40846250aa03491c")}),
    # above PHI_NAIVE_CAP; Phi is [0, 133] plus e(G) = 140, so most high
    # subsets of the block walk add no new size
    "phi-n24": (
        ["phi", "--gen", "gnp", "--n", "24", "--graph-seed", "2"],
        {"out.csv": (text_body,
                     "c1515916624ae04c39b5206ad6dc0a7461b102c34b50bd2d27ebde7dfe1509b1")}),
    # sparse: Phi is the whole interval [0, 45]
    "phi-n24-sparse": (
        ["phi", "--gen", "gnp", "--n", "24", "--p", "0.15", "--graph-seed", "2"],
        {"out.csv": (text_body,
                     "f6f46f29b6ab7503a3baa9c4d849f6005e21c76dded818a989b3959841e7e18f")}),
    "psi": (
        ["psi", "--gen", "gnp", "--n", "16", "--graph-seed", "2"],
        {"out.csv": (text_body,
                     "07fcb269a9ccc40b4d6bcb0dbd577ef9c2f847ee3a89709c65a9acdb7fbfef6d")}),
    "psi-n22": (
        ["psi", "--gen", "gnp", "--n", "22", "--graph-seed", "2"],
        {"out.csv": (text_body,
                     "81b513d1356219f78f4cb26bf751fed1b2b0b578e2077be70def04818687c37d")}),
    # K_n: Phi is the triangular numbers, so no step of the block walk is
    # skipped and every step catches up and marks
    "phi-complete-n28": (
        ["phi", "--gen", "complete", "--n", "28"],
        {"out.csv": (text_body,
                     "f995d681f671627b6d4b4816a6c9e05004c1c064fa7801994add79563d643e57")}),
    "psi-complete-n26": (
        ["psi", "--gen", "complete", "--n", "26"],
        {"out.csv": (text_body,
                     "4eb3b78a7397d64b4b2c9de14a03c135f35616f960f9d364fa9da36ac77f2c70")}),
    "generate": (
        ["generate", "--gen", "gnp", "--n", "40", "--graph-seed", "5"],
        {"out.txt": (text_body,
                     "b3cdae1bceab9c4b7d378ad25e44a5044be9e73af77a7ceffcb32e8a1ac2b020")}),
    "generate-n1500": (
        ["generate", "--gen", "gnp", "--n", "1500", "--p", "0.3", "--graph-seed", "11"],
        {"out.txt": (text_body,
                     "30b85f2368097723a33532548ed449e039ce796c9a463138a6759cd1ba4c0841")}),
    "theorem": (
        ["theorem", "--gen", "gnp", "--n", "256", "--graph-seed", "3",
         "--seed", "11"],
        {"out.csv": (text_body,
                     "a470260affe2a004b12071ef3aade1ebc56ea7ec71d68f0974435e4404600d93"),
         "dump.json": (json_body,
                       "1f2fe01c9f3efbf3d3cf107a4848752bf55a11785e5607db504b0a109c906566")}),
    "sweep": (
        ["sweep", "--mode", "per-m", "--n-list", "256,384,512", "--seed", "4"],
        {"out.csv": (text_body,
                     "39cad27304b4c8598a3efda277dcdda0068c91c0a7df1336c9c835fe4785bf20")}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digest_is_pinned(name, tmp_path):
    argv, files = CASES[name]
    argv = argv + ["--out", str(tmp_path / next(iter(files)))]
    if "dump.json" in files:
        argv += ["--dump", str(tmp_path / "dump.json")]
    assert cli.main(argv) == 0
    for fname, (body, want) in files.items():
        assert sha256(body(tmp_path / fname)) == want, fname


def planted_clique(n: int, size: int, seed: int):
    """G(n, 1/2) at graph seed 0 with a clique on a seeded random set of
    size vertices."""
    import random

    from ramspect import graph_core as gc

    g = gc.generate("gnp", n=n)
    clique = gc.mask_of(random.Random(seed).sample(range(n), size))
    return gc.Graph(n, ((r | clique) & ~(1 << v) if clique >> v & 1 else r
                        for v, r in enumerate(g.adj)))


# G(600, 1/2) with a planted clique on 40% of its vertices: the audit finds a
# witness in every round, and each of the eight rounds shrinks the working
# graph (600, 421, 327, ...) through graph_core.induced_subgraph
PLANTED_AUDIT_DIGEST = "fb0ed9d257cbdac550cda3e9864be3687a17a780ab8074dda86ed687b56ec562"


def test_planted_clique_audit_is_pinned(tmp_path):
    from ramspect import graph_core as gc

    path = tmp_path / "planted.txt"
    path.write_text(gc.dump_graph(planted_clique(600, 240, 1)))
    out = tmp_path / "out.json"
    assert cli.main(["audit", "--graph", str(path), "--out", str(out)]) == 0
    rounds = json.loads(out.read_text())["extract_trace"]["rounds"]
    assert len(rounds) == 8 and all(r["size_after"] < r["size_before"] for r in rounds)
    assert sha256(json_body(out)) == PLANTED_AUDIT_DIGEST


def raw_json_body(path) -> bytes:
    # keys stay in the order the CLI wrote them, so a change of key type
    # (str(i) versus int i) that moves "10" relative to "2" moves the digest
    doc = json.loads(path.read_text())
    del doc["header"]
    return json.dumps(doc).encode()


def test_per_m_dump_of_witnesses_past_i_nine_is_pinned(tmp_path, monkeypatch):
    # no desk-scale run reaches i >= 10, so the witness key order is pinned
    # on a synthetic outcome
    from ramspect.double_exposure import PerKRecord, PerMOutcome
    from ramspect.graph_core import Unit
    import numpy as np

    rec = PerKRecord(
        k=3, i_values=list(range(11)), z_masks=[1 << i for i in range(11)],
        e_values=np.arange(11, dtype=np.int64) * 2, e_hat=np.float64(1.25),
        checks=(True, True, False, True), i_pass=[2, 10],
        x_witnesses={2: ((Unit.single(5), 7),),
                     10: ((Unit.pair(4, 1), 9.5), (Unit.single(0), 3))})
    outcome = PerMOutcome(
        m=12, u_mask=0b1011, e_u=np.int64(11), records=(rec,), k_selected=(3,),
        p_selected=((3, 2), (3, 10)),
        family=((3, 2, Unit.single(5)), (3, 10, Unit.pair(1, 4))),
        distinct_sizes=(18, 20), window_center=19, window_radius=2.5,
        attempts=2, constants={"n": 8, "c_prime": 0.5},
        diagnostics={"attempt_log": [{"e_u": 11}]})
    monkeypatch.setattr(cli, "per_m_run", lambda *args: outcome)
    out, dump = tmp_path / "out.csv", tmp_path / "dump.json"
    assert cli.main(["per-m", "--gen", "empty", "--n", "4", "--m", "12",
                     "--out", str(out), "--dump", str(dump)]) == 0
    assert sha256(text_body(out)) == \
        "02a7001226d98a5f4cbc206ca6de76c6ac841f9ae8761d0c83829c1b3ab80263"
    assert sha256(raw_json_body(dump)) == \
        "255fae313a37ff97f8aada6c07e980ca59105578dcdec13a2e8605168d0991c2"


def test_matching_pin_family_has_a_pair_with_an_internal_edge(tmp_path):
    # the pin above guards the internal-edge term of the adjusted degree
    # only if some emitted pair unit is itself an edge
    from ramspect import graph_core as gc

    dump = tmp_path / "dump.json"
    assert cli.main(MATCHING_PER_M + ["--out", str(tmp_path / "out.csv"),
                                      "--dump", str(dump)]) == 0
    g = gc.generate("gnp", n=512, p=0.5, seed=1)
    units = [gc.Unit(tuple(x)) for _, _, x in json.loads(dump.read_text())["family"]]
    assert units and all(x.is_pair for x in units)
    assert {gc.count_edges(g, x.mask()) for x in units} == {0, 1}


def test_late_witness_pin_finds_its_witness_past_the_first_candidates():
    # the pin above guards the candidate order of the richness audit only
    # if its first witness is not among the first few candidates
    from ramspect import graph_core as gc
    from ramspect import structure_audit as sa

    g = gc.generate("gnp", n=200, p=0.65, seed=1)
    verdict = sa.richness_audit(g, sa.AuditParams(seed=0))
    assert verdict.found and verdict.budget_used > 32


def test_n1024_pin_walks_a_four_by_four_table(tmp_path):
    # the pin above guards the family table past its first swap only if
    # its rows hold several cells
    dump = tmp_path / "dump.json"
    assert cli.main(CASES["per-m-n1024"][0] + ["--out", str(tmp_path / "out.csv"),
                                               "--dump", str(dump)]) == 0
    doc = json.loads(dump.read_text())
    assert [(r["k"], r["i_values"]) for r in doc["records"]] == \
        [(k, [0, 1, 2, 3]) for k in range(3, 7)]
    assert len(doc["distinct_sizes"]) == 15


# ── Monte-Carlo pins ─────────────────────────────────────────────────────
#
# The sampler's hit counts, pinned on the one numpy stream of seed and spawn
# key 0: any change to how the trials are drawn, chunked or split must keep
# every count.


def _signed_instance():
    import random

    from ramspect import anticoncentration as ac

    rng = random.Random(5)
    return ac.LOInstance(tuple(rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(40)),
                         offset=-7, p=0.4)


def _bench_instance():
    # the bench lo workload's u3 instance at n = 1024, seed 0
    from ramspect import anticoncentration as ac
    from ramspect.seeding import derive_seed

    return ac.LOInstance(ac.model_coefficients("u3", 1024, derive_seed(0, "lo-mc")))


def _wide_instance():
    # n = 70 000 coefficients: each chunk of the sampler is one row
    from ramspect import anticoncentration as ac

    return ac.LOInstance(ac.model_coefficients("u3", 70_000, 4), offset=3, p=0.4)


MC_PINS = {
    "u3-n1024": (_bench_instance, (1045,), 20_001, 3, (205,)),
    "signed-p0.4": (_signed_instance, (-5,), 30_001, 8, (1085,)),
    "u3-n70000": (_wide_instance,
                  (56479, 56225, 55969, 55154, 55892, 55555, 56686), 7, 11, (1,) * 7),
}


@pytest.mark.parametrize("name", sorted(MC_PINS))
def test_mc_hits_are_pinned(name):
    from ramspect import anticoncentration as ac

    build, targets, trials, seed, want = MC_PINS[name]
    inst = build()
    assert tuple(ac.lo_point_prob_mc(inst, x, trials, seed=seed).hits
                 for x in targets) == want


def test_mc_scaling_fit_is_pinned(monkeypatch):
    # the cap is lowered so that n = 16, 32 and 64 take _mc_max_mass
    from ramspect import anticoncentration as ac

    monkeypatch.setattr(ac, "EXACT_WEIGHT_CAP", 20)
    fit = ac.lo_scaling_fit((8, 16, 32, 64), coeff_model="u3", p=0.4, trials=30_001, seed=2)
    assert fit.methods == ("exact", "mc", "mc", "mc")
    assert fit.max_probs == (0.12275712, 0.1021965934468851, 0.0674977500749975,
                             0.04816506116462785)
    assert fit.slope == -0.4647679192990799
