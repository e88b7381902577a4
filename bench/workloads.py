"""The benchmark's workloads: one public ramspect entry point each.

Every workload derives all of its inputs from the bench seed in ``setup``
and hands the library only those inputs.  ``op(state, i)`` is the timed
call on input ``i``; ``check`` and ``run_checks`` are the untimed
correctness gates.  Inputs come from a pool cycled by op index, so a run
that gets faster only repeats inputs instead of needing a bigger set-up.
The runner builds several states, each from its own sub-seed, and cycles
ops over them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from ramspect import anticoncentration as ac
from ramspect import cli
from ramspect import double_exposure as de
from ramspect import graph_core as gc
from ramspect import ramsey_construct as rc
from ramspect import spectrum_oracle as so
from ramspect.seeding import derive_seed


class CheckFailed(Exception):
    """An output failed its correctness gate."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _seeds(seed: int, tag: str, count: int) -> list:
    return [derive_seed(seed, tag, i) for i in range(count)]


def _mid_m(n: int) -> int:
    # midpoint of the admissible window [c*n^2, 2c*n^2], as the CLI defaults it
    return round(1.5 * rc.ConstructionParams().c_density * n * n)


class Workload:
    name = ""
    work_unit = "ops"     # what work_per_s counts
    digest_ops = 3        # leading ops hashed into the output digest
    input_sets = 3        # states built in set-up, each from its own sub-seed
    probe = "mix"         # hostclock probe whose slowdown rescales the timings
    pinned = {}           # seed -> output digest of the first digest_ops ops
    # Untimed ops run first while glibc's mmap threshold and the caches
    # settle: lo's MC page-faults through its first two ops.
    warmup_ops = 3

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def run_checks(self, state) -> None:
        """Once-per-run gates; raise CheckFailed."""

    def op(self, state, i: int):
        raise NotImplementedError

    def check(self, state, i: int, out) -> None:
        """Gate on one op's output; raise CheckFailed."""

    def digest(self, out) -> bytes:
        raise NotImplementedError

    def work(self, state, out) -> float:
        return 1.0

    def parts(self, out) -> dict:
        """Seconds of the named calls inside one op, when it makes several."""
        return {}

    def figures(self, m: dict, parts: dict) -> list:
        """(name, value, unit) of the workload's own figures, from the
        end-to-end metrics m and the per-call parts of the same ops."""
        return []


# ── spectrum: the CLI phi and psi subcommands on G(n, 1/2) ───────────────

SPECTRUM_N = 21
SPECTRUM_POOL = 16
CROSS_CHECK_N = 16


@dataclass
class SpectrumState:
    seed: int
    graphs: list
    paths: list
    out: Path


@dataclass
class SpectrumOut:
    graph: int
    codes: tuple       # exit codes of phi and psi
    phi: list          # artifact lines below the '#' header
    psi: list
    phi_s: float
    psi_s: float


def _cli_body(argv, out: Path) -> tuple:
    """Run one CLI command in-process; (exit code, artifact body, seconds)."""
    t0 = perf_counter()
    code = cli.main(argv + ["--out", str(out)])
    dt = perf_counter() - t0
    return code, [ln for ln in out.read_text().splitlines() if not ln.startswith("#")], dt


class Spectrum(Workload):
    name = "spectrum"
    pinned = {0: "c9fc83f397551c742c6d6229c8216652b579507361a8118825aed19d76339d09"}
    work_unit = "subsets"
    warmup_ops = 1  # a pure-Python walk: one op warms the CLI path
    # Over six seeds the mixed probe left the median op 10 per cent apart
    # (interquartile range over median), wider than the raw wall times;
    # the Gray-walk probe left it 4 per cent apart.
    probe = "gray"

    def setup(self, seed, workdir):
        graphs, paths = [], []
        for j, s in enumerate(_seeds(seed, "spectrum", SPECTRUM_POOL)):
            g = gc.generate("gnp", n=SPECTRUM_N, p=0.5, seed=s)
            path = workdir / f"g{j}.graph"
            path.write_text(gc.dump_graph(g))
            graphs.append(g)
            paths.append(path)
        return SpectrumState(seed, graphs, paths, workdir / "spectrum.out")

    def run_checks(self, state):
        g = gc.generate("gnp", n=CROSS_CHECK_N, p=0.5,
                        seed=derive_seed(state.seed, "spectrum-naive"))
        _require(so.phi_exact(g) == so.phi_naive(g), "phi_exact != phi_naive at n=16")
        _require(so.psi_exact(g) == so.psi_naive(g), "psi_exact != psi_naive at n=16")

    def op(self, state, i):
        j = i % SPECTRUM_POOL
        graph = str(state.paths[j])
        phi_code, phi, phi_s = _cli_body(["phi", "--graph", graph], state.out)
        psi_code, psi, psi_s = _cli_body(["psi", "--graph", graph], state.out)
        return SpectrumOut(j, (phi_code, psi_code), phi, psi, phi_s, psi_s)

    def check(self, state, i, out):
        _require(out.codes == (0, 0), f"phi/psi exited {out.codes}")
        sizes = [int(t) for t in out.phi[0].split(",")]
        pairs = [tuple(int(v) for v in t.split(":")) for t in out.psi[0].split(",")]
        _require(pairs == sorted(set(pairs)), "psi pairs not sorted and distinct")
        _require(sizes == sorted({s for _, s in pairs}),
                 "Phi differs from the size projection of Psi")
        _require(sizes[-1] == state.graphs[out.graph].edge_count(), "largest size is not e(G)")

    def digest(self, out):
        return "\n".join(out.phi + out.psi).encode()

    def work(self, state, out):
        return float(2 << SPECTRUM_N)

    def parts(self, out):
        return {"phi_s": out.phi_s, "psi_s": out.psi_s}

    def figures(self, m, parts):
        return [(k, median(v), "s") for k, v in parts.items()]


# ── scaffold: construct() on one G(1024, 1/2) ────────────────────────────

SCAFFOLD_N = 1024


@dataclass
class GraphState:
    seed: int
    g: object
    m: int
    seeds: list
    result: object = None
    cparams: object = None


class Scaffold(Workload):
    name = "scaffold"
    pinned = {0: "cd51145009624c56dafcae1c64047bc9650a4aa95de2d479810715d745704df4"}
    work_unit = "builds"
    # A run holds about eight builds; a graph of its own for each keeps one
    # graph from setting the run's median.
    input_sets = 8
    digest_ops = 8
    # Builds copy and popcount 1024-bit rows; over six seeds the median
    # build ranged 7 per cent under the big-int probe, 11 under the mixed.
    probe = "bigint"

    def setup(self, seed, workdir):
        g = gc.generate("gnp", n=SCAFFOLD_N, p=0.5, seed=derive_seed(seed, "scaffold-graph"))
        return GraphState(seed, g, _mid_m(SCAFFOLD_N), _seeds(seed, "scaffold", 64))

    def _params(self, state, i):
        return rc.ConstructionParams(seed=state.seeds[i % len(state.seeds)])

    def op(self, state, i):
        return rc.construct(state.g, state.m, self._params(state, i))

    def check(self, state, i, out):
        _require(rc.verify_construction(state.g, out, self._params(state, i)),
                 "verify_construction returned False")

    def digest(self, out):
        units = tuple(tuple(u.vertices for u in fam)
                      for fam in (out.a_units, out.s_units, out.t_units, out.x_units))
        return repr((out.mode, out.anchor, out.u0_mask, units, out.d, out.d_prime,
                     out.d_doubleprime, out.p, out.gap_floor, out.kappa3,
                     out.working_n)).encode()

    def figures(self, m, parts):
        return [("construct_s", m["op_p50_s"], "s")]


# ── harvest: per_m_run windows over G(1024, 1/2) constructions ───────────

HARVEST_N = 1024
HARVEST_RECOUNTS = 3
HARVEST_POOL = 4096


class Harvest(Workload):
    name = "harvest"
    pinned = {0: "d74d48da579435b90ec49563a1f01030ae8f1d4e0e52214e85ad67fc4f6428d4"}
    work_unit = "sizes"
    digest_ops = 30
    # The scaffold decides much of a window's cost and how often it retries
    # its exposure, so a run averages over sixteen of them.  At n=2048 the
    # windows varied as much, and a scaffold took 7 to 9 s to build; at
    # n=1024 it takes about 2 s.
    input_sets = 16
    warmup_ops = 60
    # A window is mostly count_edges' big-int bit walk; the mixed probe
    # caught only about half of what host load did to it.
    probe = "bigint"

    def setup(self, seed, workdir):
        g = gc.generate("gnp", n=HARVEST_N, p=0.5, seed=derive_seed(seed, "harvest-graph"))
        m = _mid_m(HARVEST_N)
        cp = rc.ConstructionParams(seed=derive_seed(seed, "harvest-construct"))
        res = rc.construct(g, m, cp)
        return GraphState(seed, g, m, _seeds(seed, "harvest-expose", HARVEST_POOL), res, cp)

    def op(self, state, i):
        ep = de.ExposureParams(seed=state.seeds[i % HARVEST_POOL])
        return de.per_m_run(state.g, state.m, state.cparams, ep, result=state.result)

    def check(self, state, i, out):
        sizes = out.distinct_sizes
        _require(list(sizes) == sorted(set(sizes)), "sizes not sorted and distinct")
        _require(len(out.family) == len(sizes), "family and size counts differ")
        _require(all(abs(s - out.e_u) <= out.window_radius for s in sizes),
                 "size outside its window")
        by_k = {rec.k: rec for rec in out.records}
        size_set = set(sizes)
        rng = random.Random(derive_seed(state.seed, "harvest-recount", i))
        for k, ci, x in rng.sample(out.family, min(HARVEST_RECOUNTS, len(out.family))):
            rec = by_k[k]
            zm = rec.z_masks[rec.i_values.index(ci)]
            direct = gc.count_edges(state.g, zm | out.u_mask | x.mask())
            _require(direct in size_set, f"recount {direct} is not an emitted size")

    def digest(self, out):
        return repr((out.e_u, out.p_selected, out.distinct_sizes)).encode()

    def work(self, state, out):
        return float(len(out.distinct_sizes))

    def figures(self, m, parts):
        return [("window_p50_ms", m["op_p50_s"] * 1e3, "ms"),
                ("window_tail_ms", m["op_tail_s"] * 1e3, "ms"),
                ("sizes_per_s", m["work_per_s"], "1/s")]


# ── lo: scaling fit (dense DP) and Monte-Carlo point mass ────────────────

LO_FIT_NS = (1024, 2048, 4096, 8192)
LO_MC_N = 1024
LO_MC_TRIALS = 200_000


@dataclass
class LOState:
    seeds: list
    inst: object = None
    mode: int = 0
    mass: float = 0.0


@dataclass
class LOOut:
    fit: object
    mc: object
    fit_s: float
    mc_s: float


class LO(Workload):
    name = "lo"
    pinned = {0: "944cf01d99e4b8869c699715a41ed421c57bcd0e7b6e6ef6b375ee2e53c1feb8"}

    def setup(self, seed, workdir):
        inst = ac.LOInstance(ac.model_coefficients("u3", LO_MC_N, derive_seed(seed, "lo-mc")))
        pmf = ac.lo_exact_distribution(inst)
        return LOState(_seeds(seed, "lo", 64), inst, pmf.argmax(), pmf.max_mass())

    def run_checks(self, state):
        """Criterion 3: exact midpoint mass of Bin(100, 1/2) to 1e-12."""
        pmf = ac.lo_exact_distribution(ac.LOInstance((1,) * 100))
        exact = math.comb(100, 50) / 2 ** 100
        _require(abs(pmf.max_mass() - exact) <= 1e-12 * exact, "binomial midpoint mass off")
        _require(pmf.argmax() == 50, "binomial mode is not 50")

    def op(self, state, i):
        seed = state.seeds[i % len(state.seeds)]
        t0 = perf_counter()
        fit = ac.lo_scaling_fit(LO_FIT_NS, coeff_model="u10", seed=seed)
        t1 = perf_counter()
        mc = ac.lo_point_prob_mc(state.inst, state.mode, LO_MC_TRIALS, seed=seed)
        return LOOut(fit, mc, t1 - t0, perf_counter() - t1)

    def check(self, state, i, out):
        _require(all(m == "exact" for m in out.fit.methods), "fit left the exact DP")
        _require(-0.6 <= out.fit.slope <= -0.4,
                 f"u10 slope {out.fit.slope} outside [-0.6, -0.4]")
        _require(abs(out.mc.estimate - state.mass) <= 4 * out.mc.stderr,
                 f"MC {out.mc.estimate} more than 4 SE from the DP mass {state.mass}")

    def digest(self, out):
        return repr((out.fit.max_probs, out.fit.slope, out.mc.hits)).encode()

    def parts(self, out):
        return {"fit_s": out.fit_s, "mc_s": out.mc_s}

    def figures(self, m, parts):
        return [("lo_fit_s", median(parts["fit_s"]), "s"),
                ("mc_trials_per_s", LO_MC_TRIALS / median(parts["mc_s"]), "1/s")]


WORKLOADS = {w.name: w for w in (Spectrum(), Scaffold(), Harvest(), LO())}
