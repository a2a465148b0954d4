"""Unit tests of the benchmark harness itself (no timing asserted)."""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from suite import gen, harness, metrics, staged, workloads

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TestPercentiles:
    def test_nearest_rank(self):
        samples = list(range(1, 201))
        assert metrics.percentile(samples, 50) == 100
        assert metrics.percentile(samples, 95) == 190
        assert metrics.percentile([7.0], 95) == 7.0
        with pytest.raises(ValueError):
            metrics.percentile([], 50)

    def test_ten_samples_beyond_the_reported_percentile(self):
        assert metrics.samples_beyond(200, 95) == 10
        assert metrics.samples_beyond(199, 95) == 9
        assert metrics.samples_beyond(199, 90) == 19
        assert workloads.MIN_OPERATIONS == 200

    def test_every_workload_schedules_enough_for_p95(self):
        for workload in workloads.WORKLOADS.values():
            for seconds in (0.1, workloads.RUN_SECONDS):
                rounds = workloads.rounds_for(workload, seconds)
                ops = sum(
                    workload.ops_in_round(workload.warmup_rounds + r)
                    for r in range(rounds)
                )
                assert metrics.samples_beyond(ops, 95) >= metrics.MIN_TAIL_SAMPLES


class TestEndToEnd:
    def phase(self):
        phase = harness.PhaseResult()
        for position in range(200):
            slow = 10.0 if position >= 185 else 1.0  # 15 of 200 beyond the rest
            phase.latency_s.append(0.010 * slow)
            phase.cpu_s.append(0.008)
            phase.first_row_s.append(0.001 if position % 2 else None)
            phase.templates.append("wr_point_read" if position % 2 else "t")
            phase.calls.append("iter")
        return phase

    def test_latencies_are_pooled_and_rates_are_over_the_whole_phase(self):
        phase = self.phase()
        values = metrics.end_to_end(phase, phase, setup_s=1.0)
        assert values["throughput_ops_s"] == pytest.approx(200 / (185 * 0.010 + 15 * 0.100))
        assert values["latency_p50_ms"] == pytest.approx(10.0)
        assert values["latency_p95_ms"] == pytest.approx(100.0)  # pooled tail, not a block's
        assert values["cpu_ms_per_op"] == pytest.approx(8.0)
        assert values["first_row_p50_ms"] == pytest.approx(1.0)
        assert list(values) == list(metrics.END_TO_END)

    def test_raw_view_reads_the_clocks(self):
        phase = self.phase()
        phase.raw_latency_s = [2 * s for s in phase.latency_s]
        phase.raw_cpu_s = list(phase.cpu_s)
        phase.raw_first_row_s = list(phase.first_row_s)
        raw = metrics.end_to_end(phase.raw(), phase.raw(), setup_s=1.0)
        assert raw["latency_p50_ms"] == pytest.approx(20.0)
        assert raw["cpu_ms_per_op"] == pytest.approx(8.0)


class TestSpeedometer:
    def test_wall_and_cpu_slowdowns_are_measured_separately(self):
        speed = harness.Speedometer()
        speed.at = [0.0, 1.0, 2.0]
        speed.wall = [harness.SPEED_REFERENCE_S * f for f in (2.0, 2.0, 2.0)]
        speed.cpu = [harness.SPEED_REFERENCE_S] * 3  # preempted: wall doubled, CPU not
        wall, cpu = speed.slowdown(0.9, 1.1)
        assert wall == pytest.approx(2.0) and cpu == pytest.approx(1.0)

    def test_an_operation_is_corrected_by_the_samples_around_it(self):
        speed = harness.Speedometer()
        speed.at = [float(t) for t in range(10)]
        speed.wall = [harness.SPEED_REFERENCE_S * (3.0 if t >= 5 else 1.0) for t in range(10)]
        speed.cpu = list(speed.wall)
        assert speed.slowdown(1.9, 2.1)[0] == pytest.approx(1.0)
        assert speed.slowdown(6.9, 7.1)[0] == pytest.approx(3.0)


class TestSpans:
    def test_self_time_is_duration_minus_direct_children(self):
        spans = [
            ["op", 0.0, 10.0, None, 0],
            ["parse", 1.0, 3.0, 0, 0],
            ["exec", 3.0, 9.0, 0, 0],
            ["inner", 4.0, 5.0, 2, 0],
        ]
        assert staged.self_times(spans) == [2.0, 2.0, 5.0, 1.0]

    def test_tracer_records_parent_and_operation(self):
        tracer = staged.Tracer()
        tracer.op_id = 4
        with tracer.span("op") as outer:
            with tracer.span("parse") as inner:
                pass
        assert tracer.spans[inner][3] == outer and tracer.spans[outer][3] is None
        assert tracer.spans[inner][4] == 4
        assert tracer.duration(outer) >= tracer.duration(inner) >= 0.0


class TestSchedule:
    def lines(self, name, seed):
        workload = workloads.WORKLOADS[name]
        data = gen.generate(seed, 200, 400)
        ops = workloads.flatten(workloads.build_rounds(workload, data, seed, 3))
        return "\n".join(op.line() for op in ops).encode()

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_equal_seeds_give_byte_identical_schedules(self, name):
        assert self.lines(name, 5) == self.lines(name, 5)

    @pytest.mark.parametrize("name", ["point_lookup", "path_search", "write_read_mix"])
    def test_unequal_seeds_give_different_schedules(self, name):
        assert self.lines(name, 5) != self.lines(name, 6)

    def test_generator_is_deterministic_and_seeded(self):
        assert gen.generate(9, 100, 200) == gen.generate(9, 100, 200)
        assert gen.generate(9, 100, 200) != gen.generate(10, 100, 200)

    def test_generator_fixes_what_metrics_must_not_depend_on(self):
        data = gen.generate(4, 2000, 4000)
        assert sum(a.blocked == "yes" for a in data.accounts) == 200
        assert len(data.transfers) == 4000
        # transfers are whole cycles: every account sends and receives two
        sent = Counter(t.src for t in data.transfers)
        received = Counter(t.dst for t in data.transfers)
        assert set(sent.values()) == set(received.values()) == {2}
        assert sum(t.src == t.dst for t in data.transfers) == 2
        # the first cycle runs through every account: everything reaches everything
        out = {}
        for transfer in data.transfers:
            out.setdefault(transfer.src, set()).add(transfer.dst)
        seen, frontier = {"a0"}, ["a0"]
        while frontier:
            frontier = [n for node in frontier for n in out[node] - seen if not seen.add(n)]
        assert len(seen) == 2000

    def test_every_template_says_why(self):
        for workload in workloads.WORKLOADS.values():
            assert workload.why
            for template in workloads.all_templates(workload):
                assert template.why and template.expect is not None, template.name


class TestDigests:
    ROWS = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 2, "b": "y"}]

    def test_unordered_digest_ignores_row_order_but_not_multiplicity(self):
        shuffled = [self.ROWS[2], self.ROWS[0], self.ROWS[1]]
        assert harness.digest(self.ROWS, False) == harness.digest(shuffled, False)
        assert harness.digest(self.ROWS, False) != harness.digest(self.ROWS[:2], False)

    def test_ordered_digest_sees_row_order(self):
        swapped = [self.ROWS[1], self.ROWS[0], self.ROWS[2]]
        assert harness.digest(self.ROWS, True) != harness.digest(swapped, True)
        assert harness.digest(self.ROWS, True) == harness.digest(list(self.ROWS), True)

    def test_column_order_inside_a_row_is_irrelevant(self):
        assert harness.canon_row({"a": 1, "b": 2}) == harness.canon_row({"b": 2, "a": 1})


class TestBenchmarkJson:
    def test_metric_names_are_well_formed_and_match_the_harness(self):
        end_to_end = [m["name"] for m in SPEC["end_to_end"]]
        per_layer = [m["name"] for m in SPEC["per_layer"]]
        assert end_to_end == list(metrics.END_TO_END)
        assert per_layer == list(metrics.PER_LAYER)
        for name in end_to_end + per_layer:
            assert NAME.fullmatch(name), name
        assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)

    def test_units_bounds_and_workloads(self):
        for metric in SPEC["end_to_end"]:
            assert metric["unit"] == metrics.unit_of(metric["name"])
            assert 0 < metric["bound"] <= 0.25
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())
        assert bounds["latency_p95_ms"] > bounds["latency_p50_ms"]
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
        assert SPEC["run_seconds"] == workloads.RUN_SECONDS
        assert SPEC["paths"] == ["benchmarks/suite"]
