"""Weighted-Bernoulli-sum point masses: exact DP, MC, and scaling fits."""
import itertools
import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramspect import anticoncentration as ac
from ramspect.errors import CapacityError, ContractViolation, ParameterError
from ramspect.seeding import np_stream
from reference import mc_hits_loop, mc_max_mass_loop, prob, sampled_sums_loop


def brute_pmf(inst):
    """Enumerate all 2^n outcomes."""
    n = len(inst.coefficients)
    masses = {}
    for bits in itertools.product((0, 1), repeat=n):
        x = inst.offset + sum(a * b for a, b in zip(inst.coefficients, bits))
        pr = math.prod(inst.p if b else 1 - inst.p for b in bits)
        masses[x] = masses.get(x, 0.0) + pr
    return masses


# ── exact distribution ───────────────────────────────────────────────────


@settings(max_examples=120)
@given(coeffs=st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=12),
       offset=st.integers(-20, 20),
       p=st.sampled_from((0.3, 0.7, 0.05, 0.99))
       | st.floats(1e-3, 1 - 1e-3).filter(lambda p: p != 0.5))
def test_exact_matches_brute_force_battery(coeffs, offset, p):
    inst = ac.LOInstance(tuple(coeffs), offset=offset, p=p)
    pmf = ac.lo_exact_distribution(inst)
    want = brute_pmf(inst)
    for x, pr in want.items():
        assert prob(pmf, x) == pytest.approx(pr, rel=1e-12, abs=1e-15)
    # no mass where no outcome lands
    assert {pmf.support_min + i for i in np.flatnonzero(pmf.masses)} <= set(want)
    assert pmf.max_mass() == pytest.approx(max(want.values()), rel=1e-12)


def dense_reference(inst):
    """The DP over the whole dense support, one shift-and-mix per coefficient."""
    w = inst.weight
    neg = sum(-a for a in inst.coefficients if a < 0)
    f = np.zeros(w + 1, dtype=np.float64)
    f[neg] = 1.0  # index i holds Pr(X = support_min + i)
    p = inst.p
    q = 1.0 - p
    for a in inst.coefficients:
        if a > 0:
            f[a:] = f[a:] * q + f[:-a] * p
            f[:a] *= q
        else:
            b = -a
            f[:-b] = f[:-b] * q + f[b:] * p
            f[-b:] *= q
    return inst.offset - neg, f


def assert_matches_dense_reference(inst):
    pmf = ac.lo_exact_distribution(inst)
    support_min, masses = dense_reference(inst)
    assert pmf.support_min == support_min
    assert pmf.masses.tobytes() == masses.tobytes()
    return masses


@settings(max_examples=300)
@given(coeffs=st.lists(st.integers(-15, 15).filter(bool), min_size=1, max_size=80),
       offset=st.integers(-50, 50),
       p=st.sampled_from((0.5, 0.3, 0.05, 1e-9, 0.99)))
def test_live_window_dp_is_byte_identical_to_dense_reference(coeffs, offset, p):
    assert_matches_dense_reference(ac.LOInstance(tuple(coeffs), offset, p))


def _signed_coefficients(n, seed):
    rng = random.Random(seed)
    return tuple(rng.choice((-1, 1)) * rng.randint(1, 10) for _ in range(n))


@pytest.mark.parametrize("inst", [
    ac.LOInstance(ac.model_coefficients("u10", 2048, 0)),
    ac.LOInstance((1,) * 3000),
    ac.LOInstance(_signed_coefficients(2000, 7), offset=-5, p=0.05),
], ids=["u10-2048", "ones-3000", "signed-2000-p0.05"])
def test_live_window_dp_matches_dense_reference_where_tails_underflow(inst):
    masses = assert_matches_dense_reference(inst)
    # the tails underflow to exact zero mid-run, so the window ends walk inward
    assert masses[0] == 0.0 or masses[-1] == 0.0


def test_exact_binomial_midpoint_n100():
    inst = ac.LOInstance((1,) * 100, p=0.5)
    pmf = ac.lo_exact_distribution(inst)
    want = math.comb(100, 50) / 2 ** 100
    assert abs(pmf.max_mass() - want) <= 1e-12 * want
    assert prob(pmf, 50) == pytest.approx(want, rel=1e-12)


def test_exact_mass_sums_to_one():
    rng = random.Random(43)
    for _ in range(10):
        coeffs = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(rng.randrange(1, 12)))
        pmf = ac.lo_exact_distribution(ac.LOInstance(coeffs, p=0.4))
        assert float(np.sum(pmf.masses)) == pytest.approx(1.0, abs=1e-12)


def test_exact_mass_drift_is_a_contract_violation(monkeypatch):
    monkeypatch.setattr(ac.LOPmf, "total", lambda self: 1.5)
    with pytest.raises(ContractViolation, match="drifted"):
        ac.lo_exact_distribution(ac.LOInstance((1, 2), p=0.5))


def test_exact_weight_cap_enforced():
    inst = ac.LOInstance((ac.EXACT_WEIGHT_CAP + 1,), p=0.5)
    with pytest.raises(CapacityError):
        ac.lo_exact_distribution(inst)


def test_instance_validation():
    with pytest.raises(ParameterError):
        ac.LOInstance(())
    with pytest.raises(ParameterError):
        ac.LOInstance((1, 0, 2))
    with pytest.raises(ParameterError):
        ac.LOInstance((1,), p=1.0)


# ── Monte-Carlo estimator ────────────────────────────────────────────────


def test_mc_within_four_standard_errors_of_exact():
    inst = ac.LOInstance((1,) * 40, p=0.5)
    exact = prob(ac.lo_exact_distribution(inst), 20)
    est = ac.lo_point_prob_mc(inst, 20, trials=60_000, seed=5)
    assert est.trials == 60_000
    assert est.stderr > 0
    assert abs(est.estimate - exact) <= 4 * est.stderr


def test_mc_is_seed_deterministic():
    inst = ac.LOInstance((1, 2, -1, 3, 1, 1, -2, 1), p=0.5)
    a = ac.lo_point_prob_mc(inst, 2, trials=5000, seed=9)
    b = ac.lo_point_prob_mc(inst, 2, trials=5000, seed=9)
    c = ac.lo_point_prob_mc(inst, 2, trials=5000, seed=10)
    assert a.estimate == b.estimate and a.hits == b.hits
    assert a.estimate != c.estimate


def one_shot_sums(inst, trials, seed):
    """All (trials, n) Bernoulli draws at once, from _sampled_sums' stream."""
    a = np.asarray(inst.coefficients, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    return (rng.random((trials, len(a))) < inst.p) @ a


@pytest.mark.parametrize("n,trials", [(1, 2 * 65536 + 5), (7, 20_001), (1024, 1000),
                                      (70_000, 3)])
def test_mc_chunks_match_one_shot_sampler(n, trials):
    # trials is no multiple of the chunk; at n = 70 000 each chunk is one row
    inst = ac.LOInstance(ac.model_coefficients("u3", n, 4), offset=3, p=0.4)
    want = one_shot_sums(inst, trials, 11)
    got = np.concatenate(list(ac._sampled_sums(inst, 0, trials, 11)))
    assert np.array_equal(got, want)
    # a run of trials that starts at trial first continues the same stream
    first = trials // 3
    tail = np.concatenate(list(ac._sampled_sums(inst, first, trials - first, 11)))
    assert np.array_equal(tail, want[first:])
    vals, counts = np.unique(want, return_counts=True)
    target = int(vals[counts.argmax()])
    est = ac.lo_point_prob_mc(inst, target + inst.offset, trials, seed=11)
    assert est.hits == int(counts.max())


PLANE_LENGTHS = (1, 7, 8, 9, 63, 64, 65, 1025)  # both sides of a byte and of a word


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from(PLANE_LENGTHS), signs=st.sampled_from(("mixed", "+", "-")),
       top=st.sampled_from((0, 1, 3, 17, 40)), p=st.sampled_from((0.3, 0.5, 0.8)),
       first=st.integers(0, 200),
       size=st.sampled_from(("one", "chunk - 1", "chunk", "chunk + 1", "two chunks + 3")),
       seed=st.integers(0, 2 ** 32))
def test_plane_sums_match_the_product_loop(n, signs, top, p, first, size, seed):
    # magnitudes up to 2**top, 2**top itself included; one sign leaves the
    # other without a plane
    rng = random.Random(seed)
    mags = [rng.choice((1 << top, rng.randint(1, 1 << top))) for _ in range(n)]
    sign = {"mixed": lambda: rng.choice((-1, 1)), "+": lambda: 1, "-": lambda: -1}[signs]
    inst = ac.LOInstance(tuple(sign() * m for m in mags), p=p)
    chunk = max(1, (1 << 16) // n)
    trials = {"one": 1, "chunk - 1": max(1, chunk - 1), "chunk": chunk, "chunk + 1": chunk + 1,
              "two chunks + 3": 2 * chunk + 3}[size]
    want = np.concatenate(list(sampled_sums_loop(inst, first + trials, seed)))[first:]
    chunks = list(ac._sampled_sums(inst, first, trials, seed))
    assert all(c.dtype == np.int64 for c in chunks)
    assert np.array_equal(np.concatenate(chunks), want)


def test_planes_split_the_coefficients_by_sign_and_bit():
    def planes(coeffs):
        return [(w, int(mask[0])) for w, mask in ac._planes(np.array(coeffs, np.int64))]

    # bit 1 of (1, 4, 5) is set nowhere, and no coefficient is negative
    assert planes((1, 4, 5)) == [(1, 0b101), (4, 0b110)]
    assert planes((-3, -1)) == [(-1, 0b11), (-2, 0b01)]
    assert planes((6, -1, 2)) == [(2, 0b101), (4, 0b001), (-1, 0b010)]
    # the masks are zero past the coefficients, up to the end of the last word
    assert [m.tolist() for _, m in ac._planes(np.ones(65, np.int64))] == [[2 ** 64 - 1, 1]]


@pytest.mark.parametrize("key,skip,m", [(0, 0, 5), (0, 1, 5), (3, 7, 1), (0, 1000, 33),
                                        (5, 4096, 100)])
def test_np_stream_skip_continues_the_unskipped_stream(key, skip, m):
    # PCG64 gives one 64-bit output per random() double, so skipping k
    # outputs skips k draws
    got = np_stream(17, key, skip).random(m)
    assert np.array_equal(got, np_stream(17, key).random(skip + m)[skip:])


def _cpus(k):
    """The CPU affinity of a process allowed k CPUs."""
    return lambda pid: set(range(k))


def test_split_trials_cuts_contiguous_runs_in_trial_order(monkeypatch):
    def job(first, count):
        return first, count

    monkeypatch.setattr(ac.os, "sched_getaffinity", _cpus(3))
    assert ac._split_trials(job, 10) == [(0, 3), (3, 3), (6, 4)]
    assert ac._split_trials(job, 11) == [(0, 3), (3, 4), (7, 4)]
    assert ac._split_trials(job, 2) == [(0, 1), (1, 1)]
    # without an affinity call, the CPU count decides, and no count is one CPU
    monkeypatch.delattr(ac.os, "sched_getaffinity")
    monkeypatch.setattr(ac.os, "cpu_count", lambda: 4)
    assert ac._split_trials(job, 10) == [(0, 2), (2, 3), (5, 2), (7, 3)]
    monkeypatch.setattr(ac.os, "cpu_count", lambda: None)
    assert ac._split_trials(job, 10) == [(0, 10)]


@settings(max_examples=80, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=12),
       offset=st.integers(-9, 9), p=st.sampled_from((0.5, 0.3, 0.8)),
       cpus=st.sampled_from((1, 2, 3, 7)),
       size=st.sampled_from(("one", "under W", "chunk - 1", "chunk", "chunk + 1", "odd")),
       odd=st.integers(0, 600), seed=st.integers(0, 2 ** 40))
def test_split_trials_match_the_one_stream_loop(coeffs, offset, p, cpus, size, odd, seed):
    inst = ac.LOInstance(tuple(coeffs), offset, p)
    chunk = max(1, (1 << 16) // len(coeffs))
    trials = {"one": 1, "under W": max(1, cpus - 1), "chunk - 1": chunk - 1, "chunk": chunk,
              "chunk + 1": chunk + 1, "odd": 2 * odd + 1}[size]
    sums = np.concatenate(list(sampled_sums_loop(inst, trials, seed)))
    x = int(sums[trials // 2]) + offset
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ac.os, "sched_getaffinity", _cpus(cpus))
        assert ac.lo_point_prob_mc(inst, x, trials, seed).hits \
            == mc_hits_loop(inst, x, trials, seed)
        assert ac._mc_max_mass(inst, trials, seed) == mc_max_mass_loop(inst, trials, seed)


def test_split_trials_join_every_thread_and_raise_in_the_caller(monkeypatch):
    monkeypatch.setattr(ac.os, "sched_getaffinity", _cpus(4))
    before = threading.active_count()
    inst = ac.LOInstance((1, -2, 3), p=0.5)
    assert ac.lo_point_prob_mc(inst, 1, 1001, seed=1).hits == mc_hits_loop(inst, 1, 1001, 1)
    assert threading.active_count() == before

    sampled = ac._sampled_sums

    def failing(inst, first, trials, seed):
        if first == 500:
            raise ValueError("run at trial 500")
        return sampled(inst, first, trials, seed)

    monkeypatch.setattr(ac, "_sampled_sums", failing)
    with pytest.raises(ValueError, match="run at trial 500"):
        ac.lo_point_prob_mc(inst, 1, 1000, seed=1)
    assert threading.active_count() == before

    def slow_workers(first, count):
        if first == 0:
            raise ValueError("run 0")
        time.sleep(0.2)
        return count

    # run 0 fails on the calling thread while the other runs still sleep
    with pytest.raises(ValueError, match="run 0"):
        ac._split_trials(slow_workers, 40)
    assert threading.active_count() == before


def test_split_trials_hold_with_more_threads_than_cores(monkeypatch):
    # seven runs on at most two cores, switching threads every 10 us: each
    # run writes its own slot of the results, so no hit is lost or doubled
    monkeypatch.setattr(ac.os, "sched_getaffinity", _cpus(7))
    inst = ac.LOInstance(ac.model_coefficients("u3", 96, 2), offset=-4, p=0.35)
    x = round(inst.p * sum(inst.coefficients)) + inst.offset  # near the mean
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        hits = [ac.lo_point_prob_mc(inst, x, 40_003, seed=s).hits for s in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert hits == [mc_hits_loop(inst, x, 40_003, s) for s in range(3)]
    assert min(hits) > 1000


def test_mc_refuses_sums_past_int64(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before the refusal")

    monkeypatch.setattr(ac, "_sampled_sums", no_draw)
    # 3 * 2**62 wraps in int64: the wrapped sampler read Pr(X = 2**63) = 0,
    # where it is 3/8
    for inst, x in ((ac.LOInstance((2 ** 62,) * 3), 2 ** 63), (ac.LOInstance((2 ** 70,)), 0)):
        with pytest.raises(CapacityError, match=f"sampled sum weight {inst.weight} is above "
                                                f"the cap {2 ** 63 - 1}; the sampled sums "
                                                f"are int64"):
            ac.lo_point_prob_mc(inst, x, 4000, seed=1)
        with pytest.raises(CapacityError, match="the sampled sums are int64"):
            ac._mc_max_mass(inst, 4000, 1)
    monkeypatch.undo()
    # the cap itself samples exactly; its sums just fit
    inst = ac.LOInstance((2 ** 62, -(2 ** 62 - 1)), p=0.5)
    assert inst.weight == ac.INT64_MAX
    est = ac.lo_point_prob_mc(inst, 1, 4000, seed=1)
    assert est.hits == mc_hits_loop(inst, 1, 4000, 1)
    assert abs(est.estimate - 0.25) <= 4 * est.stderr
    # the CLI cannot reach the cap: lo's coefficients are at most 10 and its
    # --n-list values at most EXACT_WEIGHT_CAP
    assert 10 * ac.EXACT_WEIGHT_CAP < ac.INT64_MAX


# ── coefficient models and scaling ───────────────────────────────────────


def test_model_coefficients_shapes():
    assert ac.model_coefficients("ones", 7, 0) == (1,) * 7
    for model, hi in (("u3", 3), ("u10", 10)):
        coeffs = ac.model_coefficients(model, 50, 3)
        assert len(coeffs) == 50
        assert all(1 <= a <= hi for a in coeffs)
        assert coeffs == ac.model_coefficients(model, 50, 3)
    with pytest.raises(ParameterError):
        ac.model_coefficients("gauss", 5, 0)


def test_both_generators_refuse_a_negative_seed():
    # numpy's SeedSequence takes no negative entropy; the refusal is a
    # parameter error, raised before any draw
    inst = ac.LOInstance((1, 2, 3), p=0.5)
    with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
        ac.model_coefficients("u3", 5, -1)
    with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
        ac.lo_point_prob_mc(inst, 2, trials=10, seed=-1)
    assert ac.model_coefficients("ones", 5, -1) == (1,) * 5  # draws nothing


def test_scaling_fit_slope_near_minus_half_for_ones():
    fit = ac.lo_scaling_fit((64, 128, 256, 512), coeff_model="ones", seed=1)
    assert fit.methods == ("exact",) * 4
    assert -0.6 <= fit.slope <= -0.4


def test_scaling_fit_validation():
    with pytest.raises(ParameterError):
        ac.lo_scaling_fit((64, 128, 256))  # too few points
    with pytest.raises(ParameterError):
        ac.lo_scaling_fit((64, 64, 128, 256))  # repeats
    with pytest.raises(ParameterError):
        ac.lo_scaling_fit((64, 66, 68, 70))  # under two octaves


@pytest.mark.parametrize("trials", [0, -3])
def test_scaling_fit_rejects_nonpositive_trials(trials, monkeypatch):
    monkeypatch.setattr(ac, "EXACT_WEIGHT_CAP", 20)
    with pytest.raises(ParameterError, match="trials"):
        ac.lo_scaling_fit((8, 16, 32, 64), trials=trials)


def test_scaling_fit_falls_back_to_mc_past_cap(monkeypatch):
    # the cap is lowered so that n = 32 and 64 take the Monte-Carlo path
    monkeypatch.setattr(ac, "EXACT_WEIGHT_CAP", 20)
    fit = ac.lo_scaling_fit((8, 16, 32, 64), coeff_model="ones",
                            trials=20_000, seed=2)
    assert fit.methods[0] == "exact"
    assert fit.methods[-1] == "mc"
    # mode mass still shrinks with n even in MC mode
    assert fit.max_probs[0] > fit.max_probs[-1]
