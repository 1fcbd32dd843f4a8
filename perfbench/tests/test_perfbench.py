"""Tests of the benchmark's own machinery: tracer arithmetic, inputs, checks."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import workloads  # noqa: E402
from layers import Target, Tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_on_synthetic_span_tree():
    clock = FakeClock()
    ns = types.SimpleNamespace()

    def leaf(duration):
        clock.now += duration
        return duration

    def mid():
        clock.now += 1
        ns.leaf(2)
        clock.now += 3
        ns.leaf(4)

    def root():
        ns.mid()
        clock.now += 5
        ns.leaf(6)
        raise KeyError("done")

    ns.leaf, ns.mid, ns.root = leaf, mid, root
    targets = (
        Target("t.root", ((ns, "root"),)),
        Target("t.mid", ((ns, "mid"),)),
        Target("t.leaf", ((ns, "leaf"),)),
    )
    tracer = Tracer(targets, clock=clock)
    with tracer:
        try:
            ns.root()
        except KeyError:
            pass
    c = tracer.counters
    assert (c["t.leaf"].calls, c["t.leaf"].busy, c["t.leaf"].self_time) == (3, 12, 12)
    assert (c["t.mid"].calls, c["t.mid"].busy, c["t.mid"].self_time) == (1, 10, 4)
    assert (c["t.root"].calls, c["t.root"].busy, c["t.root"].self_time) == (1, 21, 5)
    assert c["t.root"].raised == 1 and c["t.leaf"].raised == 0
    assert tracer.self_total() == c["t.root"].busy
    assert (ns.leaf, ns.mid, ns.root) == (leaf, mid, root)


def test_sweep_generator_is_deterministic_per_seed():
    def docs(seed):
        return [(c.name, c.doc, c.steps, c.expect) for c in workloads.generate_sweep(seed)]

    assert docs(7) == docs(7)
    assert docs(7) != docs(8)
    # Every seed asks for the same work: same model/step-count plan, 20 rejections.
    plans = [sorted((c.model, c.steps) for c in workloads.generate_sweep(seed)) for seed in (7, 8)]
    assert plans[0] == plans[1]
    assert sum(c.expect is not None for c in workloads.generate_sweep(7)) == workloads.SWEEP_REJECT_COUNT


def _single_queue_op(out_dir: Path) -> workloads.Op:
    return workloads.Op(
        ["simulate", str(ROOT / "scenarios" / "sine_floor_single_queue.json"), "--out-dir", str(out_dir)],
        out_dir=out_dir,
    )


def test_flipping_one_csv_byte_fails_the_golden_check(tmp_path):
    result = workloads.run_op(_single_queue_op(tmp_path))
    golden = [workloads.digests(result)]
    assert workloads.check("t", [result], golden) == []
    csv = tmp_path / "pqm1.csv"
    data = bytearray(csv.read_bytes())
    data[100] ^= 1
    csv.write_bytes(bytes(data))
    failures = workloads.check("t", [result], golden)
    assert len(failures) == 1 and "pqm1.csv digest differs" in failures[0]


def test_wrapped_functions_return_what_the_originals_return(tmp_path):
    from pqsim.profiles import SineFloor
    from pqsim.scenario import load_scenario, simulate_model

    scenario = load_scenario(ROOT / "scenarios" / "sine_floor_relaxed.json").with_overrides(horizon=0.05)
    profile = SineFloor(2000, 1000)
    plain = (simulate_model(scenario, "eps-pqm3"), profile.rate_at(0.3))
    plain_op = workloads.run_op(_single_queue_op(tmp_path / "plain"))
    assert layers.altered_sites() == []
    with Tracer() as tracer:
        assert layers.altered_sites() != []
        traced = (simulate_model(scenario, "eps-pqm3"), profile.rate_at(0.3))
        traced_op = workloads.run_op(_single_queue_op(tmp_path / "traced"))
    assert layers.altered_sites() == []
    assert traced == plain
    assert traced_op.stdout.replace("traced", "plain") == plain_op.stdout
    assert (tmp_path / "traced" / "pqm1.csv").read_bytes() == (tmp_path / "plain" / "pqm1.csv").read_bytes()
    assert tracer.counters["approx.step"].calls == 500
    assert tracer.counters["cli.main"].calls == 1


def test_benchmark_json_declares_exactly_the_reported_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    assert sorted(declared) == sorted([*Tracer().metrics(), "trace.overhead_s"])
    assert spec["paths"] == [BENCH.name]
