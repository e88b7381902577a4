"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import Span, Tracer, installed, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Workload  # noqa: E402

import ramspect  # noqa: E402
from ramspect import graph_core as gc  # noqa: E402
from ramspect import spectrum_oracle as so  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0, -1, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("a.child", 0, 1, 2.0, 1.0),
        Span("kernel", 0, 0, 6.0, 3.0, calls=50),  # aggregate of 50 calls
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 3.0]


@pytest.mark.parametrize("n, index, pct", [(100, 89, 90.0), (21, 10, 1100 / 21),
                                           (20, 10, 55.0), (4, 2, 75.0),
                                           (1, 0, 100.0)])
def test_tail_is_highest_percentile_with_ten_beyond(n, index, pct):
    values = [float(v) for v in range(n)][::-1]
    value, percentile, count = run.tail(values)
    assert (value, count) == (float(index), n)
    assert percentile == pytest.approx(pct)
    assert sum(v > value for v in values) == min(10, (n - 1) // 2)


def test_host_clock_drops_probe_runs_and_rescales_by_nearby_probes():
    clock = HostClock()
    n = clock.nominal
    clock.samples = [(0.9, 0.9 + n), (1.9, 1.9 + 2 * n), (2.9, 2.9 + n)]
    assert clock.seconds(1.0, 2.5) == pytest.approx(1.5 - 2 * n)
    assert clock.seconds(2.0, 2.5) == pytest.approx(0.5 / 1.5)
    assert clock.seconds(3.0, 4.0) == pytest.approx(1.0)
    assert clock.slowdown() == pytest.approx(1.0)


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "ramspect" or name.startswith("ramspect.")}


def test_wrappers_record_spans_and_are_restored():
    before = _namespaces()
    g = gc.generate("gnp", n=8, p=0.5, seed=1)
    tracer = Tracer()
    with installed(tracer):
        assert so.phi_exact is not before["ramspect.spectrum_oracle"]["phi_exact"]
        original = before["ramspect.graph_core"]["count_edges"]
        assert ramspect.double_exposure.count_edges is gc.count_edges is not original
        so.phi_exact(g)  # outside an op: passes through unrecorded
        assert tracer.spans == []
        with tracer.root("op", 0):
            sizes = so.phi_exact(g)
    assert sizes == so.phi_exact(g)
    assert _namespaces() == before
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["op", "spectrum_oracle.phi_exact"]
    kernel = tracer.spans[names.index("graph_core.count_edges")]
    assert kernel.parent == 1 and kernel.calls == 1
    m = layer_metrics(tracer, ops=1)
    assert m["spectrum_oracle.phi_exact.subsets_per_s"] > 0
    assert m["spectrum_oracle.spectrum_entries"] == len(sizes.sizes)


def test_missing_traced_name_is_reported_absent():
    before = _namespaces()
    tracer = Tracer()
    traced = {"ramspect.spectrum_oracle": ["phi_window_removed", "phi_exact"]}
    with installed(tracer, traced):
        pass
    assert tracer.absent == ["spectrum_oracle.phi_window_removed"]
    assert _namespaces() == before


class _Flaky(Workload):
    name = "flaky"

    def setup(self, seed, workdir):
        return None

    def op(self, state, i):
        if i == 3:
            raise RuntimeError("injected op error")
        return i

    def check(self, state, i, out):
        if i == 1:
            raise CheckFailed("injected check failure")

    def digest(self, out):
        return str(out).encode()


def test_failures_count_against_attempted_ops():
    with HostClock() as clock:
        p = run.run_ops(_Flaky(), [None], 0, clock, ops=5)
    assert (p.count, p.failed, len(p.ops)) == (5, 2, 4)
    assert p.failed / p.count == 0.4


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = list(layer_metrics(Tracer(), ops=1)) + ["trace_overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    traced = {f"{mod.split('.')[-1]}.{fn}" for mod, fns in tracing.TRACED.items()
              for fn in fns}
    assert set(tracing.HOOKS) <= traced and tracing.AGGREGATED <= traced
