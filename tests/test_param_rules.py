"""The parameter rules of errors._require over every field and argument that
states one: which values each rule refuses, and in what words.  Likewise the
capacity rule errors._require_cap at every cap the package checks."""
import math
import re
import sys

import pytest

from ramspect import anticoncentration as ac
from ramspect import graph_core as gc
from ramspect import ramsey_construct as rc
from ramspect import structure_audit as sa
from ramspect import seeding
from ramspect import spectrum_oracle as so
from ramspect.double_exposure import ExposureParams, expose
from ramspect.errors import CapacityError, ParameterError, _require_cap

VALUES = {"0": 0, "1": 1, "-1": -1, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
          "maxsize": sys.maxsize, "maxsize+1": sys.maxsize + 1}
# the values each rule refuses; the others pass.  A count refuses inf and
# maxsize+1 by its bound and NaN by the positive rule.  These are the only
# new refusals: retry_max, trials and k_rounds took all three before the
# rules had one home, bucket_width and sample_budget took NaN, and
# pigeonhole_pairs failed on all three with a TypeError or ValueError
REFUSED = {
    "positive": {"0", "-1", "nan", "-inf"},
    "count": {"0", "-1", "nan", "inf", "-inf", "maxsize+1"},
    "number": {"nan"},
}
G8 = gc.generate("gnp", n=8, p=0.5, seed=0)
CP_RULES = {
    "positive": ("c_density", "density_factor", "kappa1", "kappa2", "kappa5", "star_coeff",
                 "match_coeff", "a_cap_coeff", "pair_sample_coeff", "c_div"),
    "count": ("bucket_width", "retry_max", "audit_budget", "k_rounds"),
    "number": ("theta_compl", "theta_conflict", "kappa3", "kappa4"),
}
EP_RULES = {"positive": ("c_prime", "big_m"), "count": ("trials",),
            "number": ("beta", "q_const", "expose_window")}
AP_RULES = {"positive": ("c_div",), "count": ("sample_budget", "k_rounds")}


def _field_cases(cls, rules):
    # audit_budget reaches AuditParams as sample_budget, and is refused by that name
    return [(f"{cls.__name__}.{f}", rule, {"audit_budget": "sample_budget"}.get(f, f),
             lambda v, f=f: cls(**{f: v}))
            for rule, names in rules.items() for f in names]


CASES = [
    *_field_cases(rc.ConstructionParams, CP_RULES),
    *_field_cases(ExposureParams, EP_RULES),
    *_field_cases(sa.AuditParams, AP_RULES),
    ("pair_audit.c_div", "positive", "c_div", lambda v: sa.pair_audit(G8, v, 0.1)),
    ("pair_audit.threshold_fraction", "positive", "threshold_fraction",
     lambda v: sa.pair_audit(G8, 0.1, v)),
    ("lo_point_prob_mc.trials", "count", "trials",
     lambda v: ac.lo_point_prob_mc(ac.LOInstance((1, 2)), 0, v)),
    ("lo_scaling_fit.trials", "count", "trials",
     lambda v: ac.lo_scaling_fit([4, 8, 16, 32], trials=v)),
    ("pigeonhole_pairs.bucket_width", "count", "bucket_width",
     lambda v: rc.pigeonhole_pairs(G8, v)),
]


def _message(name: str, rule: str, v) -> str:
    if rule == "number":
        return f"{name} must be a number, got nan"
    if v > sys.maxsize:
        return f"{name} must be at most {sys.maxsize}, got {v}"
    return f"{name} must be positive, got {v}"


@pytest.mark.parametrize("case,rule,name,call", CASES, ids=[c[0] for c in CASES])
def test_each_rule_refuses_its_values_in_its_words(case, rule, name, call, monkeypatch):
    # an accepted trial count draws nothing, so sys.maxsize trials end at once
    monkeypatch.setattr(ac, "_sampled_sums", lambda inst, first, trials, seed: iter(()))
    refused = {}
    for label, v in VALUES.items():
        try:
            call(v)
        except ParameterError as exc:
            refused[label] = str(exc)
    assert refused == {label: _message(name, rule, VALUES[label])
                       for label in VALUES if label in REFUSED[rule]}


SEEDED = {
    "stream": seeding.stream,
    "np_stream": lambda seed: seeding.np_stream(seed, 0),
    "generate.gnp": lambda seed: gc.generate("gnp", n=8, seed=seed),
    "expose": lambda seed: expose(0b1011, seed),
    "AuditParams.seed": lambda seed: sa.AuditParams(seed=seed),
}
# random.Random seeds an int by its absolute value, so a negative seed
# would replay the stream of its positive twin
NEGATIVE_SEEDS = (-1, -2, -2 ** 70, -2 ** 80, -math.inf, math.nan)


def test_a_seed_must_be_non_negative():
    for name, call in SEEDED.items():
        for seed in (0, 1, 2 ** 64, sys.maxsize + 1, 2 ** 200):
            call(seed)
        for seed in NEGATIVE_SEEDS:
            with pytest.raises(ParameterError) as exc:
                call(seed)
            assert str(exc.value) == f"seed must be non-negative, got {seed}", name


def test_the_cap_rule_admits_its_cap_and_words_one_message():
    _require_cap("n", 14, 14)
    for why, tail in (("", ""), ("it enumerates 2^n sets", "; it enumerates 2^n sets")):
        with pytest.raises(CapacityError) as exc:
            _require_cap("n", 15, 14, why)
        assert str(exc.value) == "n 15 is above the cap 14" + tail


CAP = 6
# each cap the package checks: the module constant that holds it (lowered to
# CAP here; load_graph takes its cap as max_n), a call at vertex count or
# weight v, and the subject of the refusal
CAP_SITES = {
    "load_graph": (None, lambda v: gc.load_graph(f"n {v}\n", max_n=CAP), "graph header n"),
    "count_edges_many": ((gc, "GRAM_EXACT_CAP"),
                         lambda v: gc.count_edges_many(gc.generate("empty", n=v), [0]),
                         "count_edges_many n"),
    "phi_exact": ((so, "PHI_EXACT_CAP"), lambda v: so.phi_exact(gc.generate("empty", n=v)),
                  "phi_exact n"),
    "psi_naive": ((so, "PHI_NAIVE_CAP"), lambda v: so.psi_naive(gc.generate("empty", n=v)),
                  "psi_naive n"),
    "lo_exact_distribution": ((ac, "EXACT_WEIGHT_CAP"),
                              lambda v: ac.lo_exact_distribution(ac.LOInstance((1,) * v)),
                              "exact pmf weight"),
}


@pytest.mark.parametrize("site", sorted(CAP_SITES))
def test_each_cap_admits_its_value_and_refuses_the_next_in_one_format(site, monkeypatch):
    const, call, what = CAP_SITES[site]
    if const:
        monkeypatch.setattr(*const, CAP)
    call(CAP)
    with pytest.raises(CapacityError) as exc:
        call(CAP + 1)
    assert re.fullmatch(f"{what} {CAP + 1} is above the cap {CAP}(; .+)?", str(exc.value))
