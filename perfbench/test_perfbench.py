"""Fast checks of the daemon benchmark's own logic (no daemon is started)."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == (
        layers.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert bench["run_seconds"] == workloads.DESIGN_SECONDS


def test_lru_simulation_predicts_open_flags():
    live, stored = [], set()
    setup = workloads.simulate_lru([0, 1, 2], 2, live, stored)
    assert setup == [(True, False)] * 3
    assert live == [1, 2]
    flags = workloads.simulate_lru([2, 0, 0, 1, 2], 2, live, stored)
    # 2 is live; 0 comes back from disk and pushes out 1; 1 comes back
    # and pushes out 2, which then comes back too.
    assert flags == [(False, False), (True, True), (False, True),
                     (True, True), (True, True)]


def test_tenant_requests_are_a_function_of_the_seed():
    first = workloads.tenant_requests(7)
    assert first == workloads.tenant_requests(7)
    assert first != workloads.tenant_requests(8)
    visited = sorted(v["tenant"] for v in first["visits"])
    other = sorted(v["tenant"] for v in workloads.tenant_requests(8)["visits"])
    assert visited == other  # every seed replays the same cycle


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_committed_request_lists_carry_their_seed(workload):
    plan = workloads.load_requests(workload, 0)
    assert plan["workload"] == workload and plan["seed"] == 0


def test_design_count_scales_with_seconds():
    assert workloads.design_count(24, workloads.DESIGN_SECONDS) == 24
    assert workloads.design_count(24, 1) == 1
    assert workloads.design_count(24, 1000) == 24


def test_tail_has_ten_requests_above_it():
    latencies = [float(i) for i in range(100)]
    assert run.tail(latencies) == 89.0
    assert run.tail([1.0, 2.0]) == 1.0


def speed_log(*samples):
    log = hostspeed.SpeedLog()
    log.samples = list(samples)
    return log


def test_host_speed_scales_by_the_samples_around_a_request():
    ref = hostspeed.REFERENCE_S
    log = speed_log((0.0, ref), (1.0, 2 * ref), (1.2, 2 * ref), (3.0, ref))
    # Inside a slow stretch: both neighbours ran the kernel at half speed.
    assert log.scale(1.05, 1.1) == pytest.approx(0.5)
    # Between a slow and a fast sample, with none other near.
    assert log.scale(2.0, 2.1) == pytest.approx(2 / 3)
    # Before the first sample and after the last, the nearest one counts.
    assert log.scale(-1.0, -0.9) == pytest.approx(1.0)
    assert log.scale(5.0, 6.0) == pytest.approx(1.0)


def test_request_latency_is_its_median_over_passes():
    def phase(*latencies):
        requests = [run.Request("why", b"{}", lambda response: None, index,
                                sent=0.0, received=latency)
                    for index, latency in enumerate(latencies)]
        return run.Phase(0.1, requests, 0.0, 1.0, [], {}, 0,
                         speed=speed_log((-1.0, hostspeed.REFERENCE_S)))

    # A slow burst in the first pass and another in the third move no median.
    passes = [phase(9.0, 1.0), phase(1.0, 2.0), phase(2.0, 9.0)]
    assert run.median_latencies(passes) == [2.0, 2.0]


def make_spans(rows, counts=()):
    return {"spans": [list(row) for row in rows], "counts": list(counts)}


def test_self_time_subtracts_children():
    # span_id, name, start, end, parent, request, extra
    spans = layers.Spans(make_spans([
        (1, "sat.solve", 1.0, 2.0, 0, 5, {"conflicts": 3}),
        (2, "encoder.encoding", 2.0, 2.5, 0, 5, {"built": 1}),
        (0, "server.handle_line", 0.5, 3.0, -1, 5, None),
        (3, "sat.solve", 0.0, 9.0, -1, 4, None),
    ]), first_request=5, count=1)
    assert spans.self_s("server.handle_line") == pytest.approx(1.0)
    assert spans.self_s("sat.solve") == pytest.approx(1.0)  # request 4 is set-up
    assert spans.extra("sat.solve", "conflicts") == [3]


def test_accounting_flags_a_span_outside_the_client_latency():
    request = run.Request("why", b"{}", lambda response: None, 0,
                          sent=1.0, received=2.0)
    inside = make_spans([(0, "server.handle_line", 1.1, 1.9, -1, 3, None)])
    outside = make_spans([(0, "server.handle_line", 0.9, 1.9, -1, 3, None)])
    phase = run.Phase(0.1, [request], 1.0, 1.0, [], {}, 3, inside)
    assert layers.accounting_errors(phase) == []
    phase.spans = outside
    assert layers.accounting_errors(phase) == [
        "request 0: handle_line span lies outside the client's latency"]


def test_canonical_member_is_in_why_provenance():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.session import ProvenanceSession
    from repro.datalog.parser import parse_database
    from repro.scenarios import get_scenario

    scenario = get_scenario("Andersen")
    session = ProvenanceSession(scenario.query(), scenario.database("D1"))
    for tup in session.answers()[:10]:
        member = workloads._canonical_member(session, tup)
        assert session.decide(tup, parse_database(" ".join(member)), "unambiguous")
