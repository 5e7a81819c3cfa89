"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criteria 5/6/7 print only win counts and mean margins;
`mvslab ablate --claim {icc,scc,norm} --out DIR` runs the same trials and
writes the per-seed arms and margins as JSONL. Each trial optimizes only the
branches it reads. Criteria 5 (icc) and 6 (scc) run the regular branch once
per seed, sweep the contrastive sample once, and step each arm's image- or
scene-contrastive branch from that depth against the regular run; criterion
7 (norm) runs the regular branch alone from one cascade depth, once per arm,
and sweeps no confidence.
"""

import time

import numpy as np

from mvslab import claims, depthopt, fileio, fusion, synth
from mvslab.cli import EVAL_CAVEAT, main as cli_main
from mvslab.losses import NormKind, norm_value_grad
from mvslab.planesweep import cascade_infer, groupwise_correlation

from conftest import mutual_visibility


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_gradient_audit():
    start = time.time()
    worst_frac, worst_rel = 1.0, 0.0
    for case_idx in range(16):
        case = depthopt.random_audit_case(case_idx)
        reports = depthopt.audit_case(case.sample, case.depth, case.configs())
        for term, rep in reports.items():
            worst_frac = min(worst_frac, rep.frac_passed)
            worst_rel = max(worst_rel, rep.max_rel_err)
            assert rep.frac_passed >= 0.99, (case_idx, term, rep.frac_passed)
    elapsed = time.time() - start
    report("criterion 1 (gradient audit)", worst_frac >= 0.99 and elapsed < 120.0,
           f"worst pass fraction {worst_frac:.4f}, worst max rel err "
           f"{worst_rel:.2e}, {elapsed:.0f}s")


def test_criterion_2_norm_gradient_ordering():
    start = time.time()
    rng = np.random.default_rng(42)
    l05, l1, l2 = NormKind(0.5), NormKind(1.0), NormKind(2.0)
    for _ in range(1000):
        e = rng.uniform(1e-3, 1.0, rng.integers(2, 16))
        idx = int(rng.integers(len(e)))
        lo, hi = e.copy(), e.copy()
        lo[idx], hi[idx] = 0.1, 0.9
        assert norm_value_grad(lo, l05)[1][idx] > norm_value_grad(hi, l05)[1][idx]
        assert norm_value_grad(lo, l1)[1][idx] == norm_value_grad(hi, l1)[1][idx]
        assert norm_value_grad(lo, l2)[1][idx] < norm_value_grad(hi, l2)[1][idx]
    report("criterion 2 (norm gradient ordering)", True,
           f"1000 vectors, {time.time() - start:.1f}s")


def test_criterion_3_correlation_oracle():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(5):
        n_c, n_g = 8, rng.choice([2, 4])
        d, h, w = int(rng.integers(2, 5)), 16, 16
        ref = rng.standard_normal((n_c, d, h, w))
        srcs = [rng.standard_normal((n_c, d, h, w))]
        cost = groupwise_correlation(ref, srcs, n_g)
        per_group = n_c // n_g
        oracle = np.zeros_like(cost)
        for g in range(n_g):
            for dd in range(d):
                for v in range(h):
                    for u in range(w):
                        acc = 0.0
                        for s in srcs:
                            for c in range(per_group):
                                ch = g * per_group + c
                                acc += ref[ch, dd, v, u] * s[ch, dd, v, u]
                        oracle[g, dd, v, u] = acc / (len(srcs) * per_group)
        worst = max(worst, float(np.abs(cost - oracle).max()))
    report("criterion 3 (correlation oracle)", worst < 1e-6,
           f"max |difference| {worst:.2e}, {time.time() - start:.1f}s")


def test_criterion_4_plane_sweep_fidelity(checker_scene, checker_samples,
                                          checker_cascade):
    start = time.time()
    gt = checker_scene.views[0].gt_depth
    valid = mutual_visibility(checker_samples["regular"], gt, crop=4)
    err = np.abs(checker_cascade[-1].depth - gt)
    frac = (err[valid] <= 2.0).mean()
    gt_field = checker_scene.views[0].gt_depth
    perfect = fusion.depth_metrics(gt_field, gt_field)
    elapsed = time.time() - start
    ok = frac >= 0.90 and perfect == {2.0: 1.0, 4.0: 1.0, 8.0: 1.0} and elapsed < 120
    report("criterion 4 (plane-sweep fidelity)", ok,
           f"{frac:.3f} of valid pixels within 2mm at 64x80, perfect-depth "
           f"metrics {tuple(perfect.values())}, {elapsed:.0f}s")


def _claim_trials(claim: str) -> list[dict]:
    """The claim's trial records over the criteria's seeds, skipping seeds
    whose scene does not qualify."""
    records = [claims.TRIALS[claim](seed) for seed in claims.CLAIM_SEEDS[claim]]
    return [r for r in records if r is not None]


def test_criterion_5_image_consistency_efficacy():
    start = time.time()
    records = _claim_trials("icc")
    wins = sum(r["win"] for r in records)
    elapsed = time.time() - start
    report("criterion 5 (image-consistency efficacy)",
           wins == 5 and elapsed < 300,
           f"{wins}/5 seeds, median improvement "
           f"{np.mean([r['margin'] for r in records]):.2f}mm, {elapsed:.0f}s")


def test_criterion_6_scene_consistency_efficacy():
    start = time.time()
    records = _claim_trials("scc")
    assert len(records) == 5
    wins = sum(r["win"] for r in records)
    elapsed = time.time() - start
    report("criterion 6 (scene-consistency efficacy)",
           wins == 5 and elapsed < 300,
           f"{wins}/5 seeds, median improvement "
           f"{np.mean([r['margin'] for r in records]):.2f}mm, {elapsed:.0f}s")


def test_criterion_7_sqrt_norm_accurate_points():
    start = time.time()
    records = _claim_trials("norm")
    wins = sum(r["win"] for r in records)
    elapsed = time.time() - start
    report("criterion 7 (square-root norm favors accurate points)",
           wins >= 4 and elapsed < 300,
           f"{wins}/5 seeds, mean within-2mm gain "
           f"{np.mean([r['margin'] for r in records]):+.3f}, {elapsed:.0f}s")


def test_criterion_8_fusion_integrity():
    start = time.time()
    scene = synth.gen_scene(synth.SceneSpec(geometry="cube", texture="checker",
                                            height=64, width=80, n_views=7, seed=9))
    views = []
    for ref in scene.views:
        final = cascade_infer(synth.regular_sample(scene, ref.view_id, 5))
        views.append(fusion.DepthView(final.depth, final.prob_map,
                                      ref.camera, ref.image, ref.view_id))
    cfg = fusion.FusionConfig(reproj_px=0.5, rel_depth=0.005, min_consistent_views=4)
    cloud, masks = fusion.fuse_point_cloud(views, cfg)
    half = synth._CUBE_HALF
    center = np.array([0.0, 0.0, half])
    d_plane = np.abs(cloud.points[:, 2])
    q = np.abs(cloud.points - center) - half
    outside = np.linalg.norm(np.maximum(q, 0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    dist = np.minimum(d_plane, np.abs(outside + inside))
    interval = (935.0 - 425.0) / 191.0
    frac = float((dist <= interval).mean())
    provenance_ok = all(masks[vid][v, u] and
                        views[vid].prob_map[v, u] > cfg.conf_threshold
                        for vid, v, u in cloud.provenance)
    elapsed = time.time() - start
    report("criterion 8 (fusion integrity)",
           frac >= 0.95 and provenance_ok and len(cloud) > 500 and elapsed < 120,
           f"{frac:.3f} of {len(cloud)} fused points within one final interval, "
           f"provenance audit {'ok' if provenance_ok else 'FAILED'}, {elapsed:.0f}s")


def test_criterion_9_determinism_and_formats(tmp_path):
    start = time.time()
    trees = []
    for name in ("a", "b"):
        scene = tmp_path / name / "scene"
        depths = tmp_path / name / "depths"
        assert cli_main(["--seed", "7", "gen-synth", "--preset", "checker_plane",
                         "--size", "24x32", "--n-views", "5",
                         "--out", str(scene)]) == 0
        assert cli_main(["infer", "--scene", str(scene),
                         "--out", str(depths)]) == 0
        tree = {str(p.relative_to(tmp_path / name)): p.read_bytes()
                for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}
        trees.append(tree)
    identical = trees[0] == trees[1]

    # format round trips, bit exact
    rng = np.random.default_rng(0)
    field = rng.random((9, 11)).astype(np.float32).astype(np.float64)
    fileio.write_pfm(tmp_path / "f.pfm", field)
    pfm_ok = np.array_equal(fileio.read_pfm(tmp_path / "f.pfm"), field)
    cam = synth.gen_scene(synth.SceneSpec(height=24, width=32, seed=1)).views[0].camera
    fileio.write_cam(tmp_path / "c.txt", cam)
    back = fileio.read_cam(tmp_path / "c.txt")
    cam_ok = (np.array_equal(back.k, cam.k) and np.array_equal(back.pose, cam.pose)
              and back.depth_min == cam.depth_min and back.depth_max == cam.depth_max)
    pts = rng.uniform(-100, 100, (17, 3)).astype(np.float32).astype(np.float64)
    cols = rng.integers(0, 256, (17, 3)).astype(np.uint8)
    fileio.write_ply(tmp_path / "p.ply", pts, cols)
    rp, rc = fileio.read_ply(tmp_path / "p.ply")
    ply_ok = np.array_equal(rp, pts) and np.array_equal(rc, cols)
    elapsed = time.time() - start
    report("criterion 9 (determinism and formats)",
           identical and pfm_ok and cam_ok and ply_ok,
           f"byte-identical trees: {identical}, pfm/cam/ply round trips: "
           f"{pfm_ok}/{cam_ok}/{ply_ok}, {elapsed:.0f}s")


def test_criterion_10_benchmark_disclosure(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    depths = tmp_path / "depths"
    assert cli_main(["--seed", "3", "gen-synth", "--preset", "checker_plane",
                     "--size", "24x32", "--n-views", "5",
                     "--out", str(scene_dir)]) == 0
    assert cli_main(["infer", "--scene", str(scene_dir),
                     "--out", str(depths)]) == 0
    assert cli_main(["eval", "--scene", str(scene_dir),
                     "--depths", str(depths)]) == 0
    out = capsys.readouterr().out
    caveat_printed = EVAL_CAVEAT in out
    # the artifact reports the metric definitions (2/4/8mm fractions and
    # accuracy/completeness), never the published benchmark scores
    has_metric_table = "<=2mm" in out and "<=4mm" in out and "<=8mm" in out
    report("criterion 10 (benchmark disclosure)",
           caveat_printed and has_metric_table,
           f"caveat printed with every metric table: {caveat_printed}")
