"""Tests of the benchmark itself: tiny smoke rounds of every workload, output
checks that reject corrupted outputs, and the independent cloud distances.

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import time
from argparse import Namespace

import numpy as np
import pytest

import checks
import run
import spans
import workloads


@pytest.fixture(scope="module")
def program():
    return run.Program()


@pytest.fixture
def tiny_audit(program, monkeypatch):
    """grad-check on 12x15 audit cases instead of 32x40; the workload reads
    the case size from the generator, so its coverage floor scales with it."""
    depthopt = program.modules["depthopt"]
    monkeypatch.setattr(depthopt, "random_audit_case",
                        functools.partial(depthopt.random_audit_case, h=12, w=15))
    workload = workloads.GradAudit(program)
    assert workload.case_pixels() == 12 * 15
    return workload


def tiny(program, name):
    # The pipeline keeps the benchmark's own surface floor of 0.80: at 48x60
    # with 5 views four seeds gave 0.87-0.91, at 32x40 they gave 0.58-0.81.
    if name == "pipeline":
        return workloads.Pipeline(program, size=(48, 60), n_views=5)
    return workloads.Optimize(program, size=(32, 40), n_views=5, iterations=11)


def one_round(program, workload, root, seed=1):
    """Run one round's commands and keep its outputs for the test to inspect."""
    inp = workload.prepare(root / "round", seed)
    return inp, [program.run(argv) for argv in workload.commands(inp)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["pipeline", "optimize", "grad_audit"])
def test_smoke_rounds(program, tiny_audit, tmp_path, name, trace):
    workload = tiny_audit if name == "grad_audit" else tiny(program, name)
    args = Namespace(seed=3, seconds=0.01, trace=trace)
    probe = None if trace else (lambda: (0.5, run.REFERENCE_START_S))
    result = run.run_rounds(args, program, workload, tmp_path, time.perf_counter(), probe)
    assert (result.failed, result.bad_checks, result.problems) == (0, 0, [])
    commands = len(workload.commands({"root": tmp_path, "seed": 0}))
    assert result.attempted == len(result.rounds) * commands
    assert all(x.result.work > 0 and 0 < x.result.accurate_frac <= 1 for x in result.rounds)
    if trace:
        metrics = run.layer_metrics(workload, result, tmp_path / "trace.jsonl")
        assert [m for m, _, _ in spans.layer_metric_specs()] == list(metrics)
        assert sum(v for k, v in metrics.items() if k.startswith("cli.")) > 0
    else:
        assert len(result.setup_samples) == run.SETUP_PROBES
        metrics = run.end_to_end_metrics(workload, result)
        assert all(v > 0 for v in metrics.values())
        assert metrics["setup_s"] == pytest.approx(0.5)


def test_layer_spans_cover_each_workload(program, tiny_audit, tmp_path):
    expected = {"pipeline": ["planesweep.build_feature_volume.calls",
                             "fusion.project_with_depth.calls", "fusion.cloud_metrics.s",
                             "fileio.bytes_written", "fusion.points"],
                "optimize": ["depthopt.evaluate_grad.calls", "losses.ssim_loss_arrays.s",
                             "planesweep.refresh_confidence.calls"],
                "grad_audit": ["depthopt.multi_values.calls", "depthopt.audit.checked",
                               "depthopt.finite_diff_grad_multi.s"]}
    for name, names in expected.items():
        workload = tiny_audit if name == "grad_audit" else tiny(program, name)
        args = Namespace(seed=3, seconds=0.01, trace=1)
        result = run.run_rounds(args, program, workload, tmp_path / name,
                                time.perf_counter())
        metrics = run.layer_metrics(workload, result, tmp_path / "trace.jsonl")
        assert all(metrics[n] > 0 for n in names), name


def move_ply_points(ply, count, dz=300.0):
    """Lift the PLY's first `count` points `dz` mm off the surface."""
    raw = bytearray(ply.read_bytes())
    body = raw.index(b"end_header\n") + len(b"end_header\n")
    verts = np.frombuffer(raw, dtype=checks.PLY_VERTEX, offset=body).copy()
    verts["z"][:count] += dz
    raw[body:] = verts.tobytes()
    ply.write_bytes(bytes(raw))


@pytest.fixture(scope="module")
def pipeline_round(program, tmp_path_factory):
    workload = tiny(program, "pipeline")
    inp, stdouts = one_round(program, workload, tmp_path_factory.mktemp("pipeline"))
    workload.check(inp, stdouts)
    return workload, inp, stdouts


def test_moved_ply_point_is_rejected(pipeline_round):
    """One point moved after `eval` ran: the recomputed accuracy no longer
    matches what `eval` printed. The surface floor alone would not catch it."""
    workload, inp, stdouts = pipeline_round
    ply = inp["root"] / "fused.ply"
    saved = ply.read_bytes()
    move_ply_points(ply, 1)
    try:
        with pytest.raises(checks.CheckFailed, match="cloud acc"):
            workload.check(inp, stdouts)
    finally:
        ply.write_bytes(saved)


def test_cloud_off_the_surface_is_rejected(pipeline_round):
    """A fifth of the points off the surface fails the surface floor itself,
    whatever `eval` would say about that cloud."""
    workload, inp, _ = pipeline_round
    ply = inp["root"] / "fused.ply"
    saved = ply.read_bytes()
    move_ply_points(ply, len(checks.read_ply(ply)) // 5)
    try:
        pred = checks.read_ply(ply)
        fuse_rec = checks.read_jsonl(inp["root"] / "fused.jsonl")[0]
        with pytest.raises(checks.CheckFailed, match="of fused points within"):
            checks.check_fused_cloud(pred, fuse_rec, workloads.INTERVAL_MM,
                                     workloads.SURFACE_FLOOR)
    finally:
        ply.write_bytes(saved)


def test_truncated_ply_fails_the_round(pipeline_round):
    """Output the checks cannot parse counts as a failed check, not a crash."""
    workload, inp, stdouts = pipeline_round
    ply = inp["root"] / "fused.ply"
    saved = ply.read_bytes()
    ply.write_bytes(saved[:saved.index(b"end_header")])
    try:
        result, problem = run.check_outputs(workload, inp, stdouts)
        assert result is None and problem.startswith("unreadable output")
    finally:
        ply.write_bytes(saved)


def test_rising_loss_history_is_rejected(program, tmp_path):
    workload = tiny(program, "optimize")
    inp, stdouts = one_round(program, workload, tmp_path)
    workload.check(inp, stdouts)
    path = inp["root"] / "opt" / "loss_history.jsonl"
    history = checks.read_jsonl(path)
    history[-1]["loss_reg"] = history[-2]["loss_reg"] * (1 + 1e-9)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in history))
    with pytest.raises(checks.CheckFailed, match="loss_reg rose"):
        workload.check(inp, stdouts)


def test_final_report_off_by_one_weight_is_rejected(program, tmp_path):
    workload = tiny(program, "optimize")
    inp, stdouts = one_round(program, workload, tmp_path)
    workload.check(inp, stdouts)
    path = inp["root"] / "opt" / "final_report.jsonl"
    report = checks.read_jsonl(path)[0]
    # the smoothness term, the smallest, counted with weight 0 instead of its own
    report["total"] -= workload.loss_weights()["smooth"] * report["component_smooth"]
    path.write_text(json.dumps(report) + "\n")
    with pytest.raises(checks.CheckFailed, match="final_report total"):
        workload.check(inp, stdouts)


def test_thin_audit_is_rejected():
    records = [{"term": t, "checked": 900, "passed": 900} for t in workloads.AUDIT_TERMS]
    floor = workloads.AUDIT_CHECKED_SHARE * 32 * 40
    checks.check_audit_records(records, workloads.AUDIT_TERMS, floor)
    records[0]["checked"] = records[0]["passed"] = 799
    with pytest.raises(checks.CheckFailed, match="pixels checked"):
        checks.check_audit_records(records, workloads.AUDIT_TERMS, floor)


def test_nearest_neighbour_matches_distance_matrix():
    rng = np.random.default_rng(0)
    pred = rng.uniform(200, 260, size=(300, 3))
    gt = rng.uniform(200, 260, size=(400, 3))
    dist = np.sqrt(((pred[:, None] - gt[None]) ** 2).sum(axis=-1))
    for cap in (2.0, 5.0, 1e3):
        for chunk in (7, 64, 1000):
            to_gt, to_pred = checks.clamped_nn_distances(pred, gt, cap, chunk)
            np.testing.assert_allclose(to_gt, np.minimum(dist.min(axis=1), cap), rtol=1e-9)
            np.testing.assert_allclose(to_pred, np.minimum(dist.min(axis=0), cap), rtol=1e-9)
    acc = np.minimum(dist.min(axis=1), 5.0).mean()
    comp = np.minimum(dist.min(axis=0), 5.0).mean()
    np.testing.assert_allclose(checks.acc_comp(*checks.clamped_nn_distances(pred, gt, 5.0)),
                               (acc, comp, (acc + comp) / 2), rtol=1e-9)


def test_cube_surface_distance():
    pts = np.array([[0.0, 0.0, 124.0],     # on the top face
                    [0.0, 0.0, 130.0],     # above the top face
                    [70.0, 0.0, 50.0],     # beside a side face
                    [200.0, 0.0, -5.0],    # below open ground
                    [0.0, 0.0, 60.0],      # inside the cube
                    [61.0, 0.0, -1.0]])    # under the cube, near its edge
    np.testing.assert_allclose(checks.cube_surface_distance(pts),
                               [0.0, 6.0, 8.0, 5.0, 62.0, np.hypot(1.0, 1.0)])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == spans.layer_metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
