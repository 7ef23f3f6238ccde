"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q        # from the repository root
"""

import dataclasses
import json
import sys
import types

import numpy as np
import pytest

import run  # pins BLAS threads before numpy does any work

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from siad import experiments, inference, model  # noqa: E402


# ------------------------------------------------------------ tail percentile

@pytest.mark.parametrize("n, expected", [
    (0, None), (10, None), (19, None), (20, 50), (39, 50), (40, 75),
    (100, 90), (199, 90), (200, 95), (1000, 99), (9999, 99), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert wl.tail_percentile(n) == expected


def test_percentile_value_is_nearest_rank():
    values = list(range(1, 21))  # 1..20
    assert wl.percentile_value(values, 50) == 10
    assert wl.percentile_value(values, 75) == 15
    assert wl.percentile_value(values, 100) == 20


# ------------------------------------------------------- host-speed scaling

def test_normalized_rate_is_the_plain_rate_at_reference_speed():
    ref = run.REF_KERNEL_S
    assert run.normalized_rate(4, [0.5, 0.5], [ref, ref, ref]) == pytest.approx(4.0)


def test_normalized_rate_divides_out_a_slow_spell():
    ref = run.REF_KERNEL_S
    # the second call ran while the host was at half speed, and the kernel
    # times around it show that; the first call sits before the slowdown
    steady = run.normalized_rate(2, [1.0, 1.0], [ref, ref, ref])
    slowed = run.normalized_rate(2, [1.0, 2.0], [ref, ref, 3 * ref])
    assert slowed == pytest.approx(steady)


def test_normalized_rate_without_kernel_times_is_the_plain_rate():
    assert run.normalized_rate(24, [10.0, 14.0], []) == pytest.approx(1.0)


# ------------------------------------------------------------------ self time

def span(id_, parent, start, end, name="layer.f"):
    return tracing.Span(id_, parent, name, start, end, None, 0)


def test_self_time_of_nested_spans():
    spans = [span("a", None, 0.0, 10.0), span("b", "a", 2.0, 5.0),
             span("c", "b", 3.0, 4.0)]
    assert tracing.self_times(spans) == pytest.approx({"a": 7.0, "b": 2.0, "c": 1.0})


def test_self_time_counts_overlapping_children_once():
    # two pool workers busy at once under one client span
    spans = [span("p", None, 0.0, 10.0), span("w1", "p", 1.0, 4.0),
             span("w2", "p", 3.0, 6.0), span("w3", "p", 8.0, 12.0)]
    own = tracing.self_times(spans)
    assert own["p"] == pytest.approx(10.0 - 5.0 - 2.0)  # [1,6] and clipped [8,10]


def test_layer_self_times_sum_by_prefix():
    spans = [span("a", None, 0.0, 4.0, "inference.selective_pvalue"),
             span("b", "a", 1.0, 3.0, "parametric.parametric_infer"),
             span("c", "b", 1.5, 2.0, "parametric.scan_linear_pieces")]
    assert tracing.layer_self_times(spans) == pytest.approx(
        {"inference": 2.0, "parametric": 2.0})


def test_tracer_records_parents_subjects_and_restores(tmp_path):
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = tracing.Tracer(tmp_path)
    tracer.wrap(mod, "inner", "layer.inner")
    tracer.wrap(mod, "outer", "layer.outer", subject_root=True,
                after=lambda result, attrs: attrs.update(result=result))
    assert mod.outer(1) == 4
    assert mod.outer(2) == 6
    tracer.uninstall()
    assert mod.inner is original
    inner1, outer1, inner2, outer2 = tracer.spans
    assert inner1.parent == outer1.id and inner2.parent == outer2.id
    assert inner1.subject == outer1.subject != outer2.subject
    assert outer2.attrs == {"result": 6}
    tracer.flush()
    assert [s.id for s in tracing.load_spans(tmp_path)] == [s.id for s in
                                                            (inner1, outer1, inner2, outer2)]


# ---------------------------------------------------------- reference checks

@pytest.fixture(scope="module")
def null_setup():
    reference = wl.load_reference()
    work = wl.NullScan(reference)
    return work, work.setup(reference["seed"]), reference


def test_reference_and_oracle_accept_the_stored_outcome(null_setup):
    work, state, reference = null_setup
    index = next(i for i, r in enumerate(reference[work.name]) if r["status"] == "tested")
    state.problems.clear()
    assert work.check(state, [(index, reference[work.name][index])]) == 0, state.problems


def test_reference_check_flags_pvalue_moved_by_1e8(null_setup):
    work, state, reference = null_setup
    record = json.loads(json.dumps(reference[work.name][0]))
    record["p_selective"] += 1e-8
    assert wl.compare_outcome(record, reference[work.name][0]) is not None
    assert work.check(state, [(0, record)]) == 1
    record["p_selective"] -= 1e-8 - 1e-11  # within the 1e-9 gate
    assert wl.compare_outcome(record, reference[work.name][0]) is None


def test_reference_check_flags_moved_endpoint_and_interval_count(null_setup):
    work, _, reference = null_setup
    want = reference[work.name][0]
    record = json.loads(json.dumps(want))
    record["intervals"][0][1] += 1e-7
    assert "endpoint" in wl.compare_outcome(record, want)
    record = json.loads(json.dumps(want))
    record["intervals"].append([1e6, 1e6 + 1])
    assert "intervals" in wl.compare_outcome(record, want)


def test_oracle_flags_a_wrong_truncation_set(null_setup):
    work, state, reference = null_setup
    index = next(i for i, r in enumerate(reference[work.name]) if r["status"] == "tested")
    record = json.loads(json.dumps(reference[work.name][index]))
    lo, hi = record["intervals"][0]
    assert wl.oracle_check(state, index, reference[work.name][index]) is None
    record["intervals"][0] = [lo, lo + 0.9 * (hi - lo)]  # ends too early
    assert "gap" in wl.oracle_check(state, index, record)
    record["intervals"][0] = [lo, hi + 1e-5 * (hi - lo)]  # ends too late
    assert "interval" in wl.oracle_check(state, index, record)


def test_paper_reference_check_flags_a_moved_interior_breakpoint():
    ref = wl.load_reference()["paper-scale"]
    assert len(ref["endpoints"]) == wl.PAPER_PIECES + 1
    state = types.SimpleNamespace(
        z_obs=ref["z_obs"], line=types.SimpleNamespace(window=(ref["z_obs"], ref["window_hi"])))
    record = {"endpoints": list(ref["endpoints"]), "losses": list(ref["losses"])}
    assert wl.PaperScale.compare_reference(state, record, ref) is None
    record["endpoints"][2] += 1e-8  # between pieces 1 and 2; piece count unchanged
    assert "endpoint 2" in wl.PaperScale.compare_reference(state, record, ref)


def test_paper_oracle_flags_a_moved_interior_breakpoint():
    reference = wl.load_reference()
    state = wl.PaperScale(reference).setup(reference["seed"])
    state.pieces = wl.parametric.parametric_infer(state.line, state.cond, state.weights)
    assert wl.PaperScale.oracle(state) is None
    # the output's slope changes by 6e-3 at the end of piece 2, so moving that
    # end shows; where it changes by less (1e-7 at the end of piece 1) only
    # the reference check catches a move
    p2, p3 = state.pieces[2], state.pieces[3]
    moved = p3.lo + 0.3 * (p3.hi - p3.lo)
    state.pieces[2:4] = [dataclasses.replace(p2, hi=moved), dataclasses.replace(p3, lo=moved)]
    assert "oracle" in wl.PaperScale.oracle(state)


def test_failure_raised_inside_a_pool_worker_is_counted(monkeypatch):
    arch = model.ArchitectureSpec(side=4, channels=(3,), latent_dim=2)
    rng = np.random.default_rng(0)
    images = [rng.normal(size=16) for _ in range(wl.NULL_SUBJECTS)]
    poisoned = images[5]
    real = experiments.selective_pvalue

    def selective_pvalue(x, *args, **kwargs):
        if np.array_equal(x, poisoned):
            raise inference.NumericalDiagnosticError("planted failure")
        return real(x, *args, **kwargs)

    monkeypatch.setattr(experiments, "selective_pvalue", selective_pvalue)
    work = wl.NullScan({"seed": None})
    state = types.SimpleNamespace(
        seed=0, images=images, conds=rng.normal(size=(wl.NULL_SUBJECTS, 2)),
        weights=model.init_weights(arch, 0),
        threshold=wl.anomaly.Threshold(0.8, 0.95, 10),
        roi=wl.anomaly.RoiMask(np.ones(16, dtype=bool)), problems=[])
    results = work.item(state, 0, {})
    assert work.workers == 2 and len(results) == wl.NULL_BATCH
    assert work.check(state, results) == wl.NULL_BATCH
    assert "planted failure" in state.problems[0]


# -------------------------------------------------------------------- layout

def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # signal-scan runs by hand and in --workload all, outside the gated set
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in run.WORKLOADS if w != "signal-scan"]


def test_flops_per_piece_from_layer_shapes():
    arch = model.ArchitectureSpec(side=4, channels=(3,), latent_dim=2, cond_count=0)
    # enc conv 16*1*3*9, mu 12*2, dense 2*12, dec conv 16*6*1*9; x2 planes x2 flops
    assert wl.flops_per_piece(arch) == 4 * (16 * 27 + 24 + 24 + 16 * 54)
    assert wl.flops_per_piece(None) == 0
