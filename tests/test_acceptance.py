"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
from scipy.ndimage import binary_dilation

from mvslab import depthopt, fileio, fusion, sampling, synth
from mvslab.cli import EVAL_CAVEAT, main as cli_main
from mvslab.depthopt import OptimizerConfig, optimize_joint
from mvslab.geometry import CameraView, pixel_grid, project_with_depth
from mvslab.grids import BinaryMask, Image, ScalarField
from mvslab.losses import LossWeights, NormKind, norm_value_grad
from mvslab.planesweep import SweepConfig, cascade_infer, groupwise_correlation
from mvslab.sampling import Sample, curriculum, make_image_contrastive, \
    make_scene_contrastive, select_regular_views

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
    gt = checker_scene.views[0].gt_depth.data
    valid = mutual_visibility(checker_samples["regular"], gt, crop=4)
    err = np.abs(checker_cascade[-1].depth.data - gt)
    frac = (err[valid] <= 2.0).mean()
    gt_field = checker_scene.views[0].gt_depth
    perfect = fusion.depth_metrics(gt_field, gt_field,
                                   BinaryMask(np.ones(gt.shape, dtype=bool)))
    elapsed = time.time() - start
    ok = frac >= 0.90 and perfect == {2.0: 1.0, 4.0: 1.0, 8.0: 1.0} and elapsed < 120
    report("criterion 4 (plane-sweep fidelity)", ok,
           f"{frac:.3f} of valid pixels within 2mm at 64x80, perfect-depth "
           f"metrics {tuple(perfect.values())}, {elapsed:.0f}s")


def _occlusion_affected(sample: Sample, gt: np.ndarray, ref_cam) -> np.ndarray:
    h, w = gt.shape
    grid = pixel_grid(h, w)
    affected = np.zeros((h, w), dtype=bool)
    for view, occ in zip(sample.sources, sample.occlusion_masks):
        uv, _, front = project_with_depth(grid, gt, ref_cam, view.camera)
        u = np.round(uv[..., 0]).astype(int)
        v = np.round(uv[..., 1]).astype(int)
        inb = front & (u >= 0) & (u < w) & (v >= 0) & (v < h)
        fat = binary_dilation(occ, iterations=1)
        hit = np.zeros((h, w), dtype=bool)
        hit[inb] = fat[np.clip(v, 0, h - 1), np.clip(u, 0, w - 1)][inb]
        affected |= hit
    return affected


def test_criterion_5_image_consistency_efficacy():
    start = time.time()
    wins, margins = 0, []
    for trial in range(5):
        spec = synth.SceneSpec(height=48, width=64, n_views=7, seed=100 + trial,
                               checker_period_mm=45.0)
        scene = synth.gen_scene(spec)
        gt = scene.views[0].gt_depth.data
        schedule = curriculum(15, 16)  # occlusion rate 0.1
        samples = synth.build_branch_samples(scene, 0, 5, schedule.occlusion_rate,
                                             500 + trial)
        affected = _occlusion_affected(samples["image_contrastive"], gt,
                                       scene.views[0].camera)
        meds = {}
        for weight in (400.0, 0.0):
            opt = OptimizerConfig(iterations=60, image_consist_weight=weight)
            state = optimize_joint(samples, schedule, SweepConfig(), opt)
            err = np.abs(state.depths["image_contrastive"].data - gt)
            meds[weight] = float(np.median(err[affected]))
        wins += meds[400.0] < meds[0.0]
        margins.append(meds[0.0] - meds[400.0])
    elapsed = time.time() - start
    report("criterion 5 (image-consistency efficacy)",
           wins == 5 and elapsed < 300,
           f"{wins}/5 seeds, median improvement {np.mean(margins):.2f}mm, "
           f"{elapsed:.0f}s")


def _scc_case(seed: int):
    spec = synth.SceneSpec(geometry="plane_with_occluder", texture="checker",
                           height=48, width=64, n_views=7, seed=seed,
                           specular_strength=0.35)
    scene = synth.gen_scene(spec)
    reference = scene.views[0]
    candidates = [v for v in scene.views if v.view_id != 0]
    regular = select_regular_views(reference, candidates, scene.pair_scores[0], 5)
    if scene.corrupted_view in regular.source_ids():
        return None
    for s in range(200):
        sc = make_scene_contrastive(scene.views, reference, 3, s)
        if scene.corrupted_view in sc.source_ids():
            return scene, regular, sc
    return None


def test_criterion_6_scene_consistency_efficacy():
    start = time.time()
    cases, seed = [], 0
    while len(cases) < 5 and seed < 100:
        case = _scc_case(seed)
        if case is not None:
            cases.append(case)
        seed += 1
    assert len(cases) == 5
    sweep = SweepConfig(softmax_sharpness=100.0)
    wins, margins = 0, []
    for scene, regular, sc in cases:
        gt = scene.views[0].gt_depth.data
        affected = synth.occlusion_affected_mask(scene, 0, scene.corrupted_view).data
        inert_ic = make_image_contrastive(regular, 0.0, 1, None)
        samples = {"regular": regular, "image_contrastive": inert_ic,
                   "scene_contrastive": sc}
        schedule = curriculum(0, 16)
        meds = {}
        for weight in (400.0, 0.0):
            opt = OptimizerConfig(iterations=80, image_consist_weight=0.0,
                                  weights=LossWeights(scene_consist=weight))
            state = optimize_joint(samples, schedule, sweep, opt)
            err = np.abs(state.depths["scene_contrastive"].data - gt)
            meds[weight] = float(np.median(err[affected]))
        wins += meds[400.0] < meds[0.0]
        margins.append(meds[0.0] - meds[400.0])
    elapsed = time.time() - start
    report("criterion 6 (scene-consistency efficacy)",
           wins == 5 and elapsed < 300,
           f"{wins}/5 seeds, median improvement {np.mean(margins):.2f}mm, "
           f"{elapsed:.0f}s")


def _contaminate_sources(sample: Sample, frac: float, seed: int) -> Sample:
    """View-inconsistent noise rectangles over ~frac of each source image."""
    out = []
    for i, view in enumerate(sample.sources):
        rng = np.random.default_rng([seed, i, 77])
        img = view.image.data.copy()
        h, w, _ = img.shape
        covered = np.zeros((h, w), dtype=bool)
        while covered.mean() < frac:
            rh = int(rng.integers(4, 12))
            rw = int(rng.integers(5, 14))
            v0 = int(rng.integers(0, h - rh))
            u0 = int(rng.integers(0, w - rw))
            img[v0:v0 + rh, u0:u0 + rw] = rng.random((rh, rw, 3))
            covered[v0:v0 + rh, u0:u0 + rw] = True
        out.append(CameraView(Image(img), view.camera, view.gt_depth, view.view_id))
    return Sample(sample.reference, out, kind=sample.kind)


def test_criterion_7_sqrt_norm_accurate_points():
    start = time.time()
    wins, deltas = 0, []
    for trial in range(5):
        spec = synth.SceneSpec(height=48, width=64, n_views=7, seed=300 + trial)
        scene = synth.gen_scene(spec)
        gt = scene.views[0].gt_depth.data
        reference = scene.views[0]
        candidates = [v for v in scene.views if v.view_id != 0]
        regular = select_regular_views(reference, candidates,
                                       scene.pair_scores[0], 5)
        regular = _contaminate_sources(regular, 0.20, 900 + trial)
        stages = cascade_infer(regular)
        prob_map = stages[-1].prob_map.data
        top80 = prob_map >= np.quantile(prob_map, 0.2)
        init = stages[-1].depth
        inert_ic = make_image_contrastive(regular, 0.0, 1, None)
        sc = make_scene_contrastive(scene.views, reference, 5, 1)
        samples = {"regular": regular, "image_contrastive": inert_ic,
                   "scene_contrastive": sc}
        schedule = curriculum(0, 16)
        fracs = {}
        for exponent in (0.5, 1.0):
            opt = OptimizerConfig(iterations=60, image_consist_weight=0.0,
                                  norm=NormKind(exponent),
                                  weights=LossWeights(scene_consist=0.0))
            state = optimize_joint(samples, schedule, SweepConfig(), opt,
                                   init_depths={k: init for k in samples})
            err = np.abs(state.depths["regular"].data - gt)
            fracs[exponent] = float((err[top80] <= 2.0).mean())
        wins += fracs[0.5] > fracs[1.0]
        deltas.append(fracs[0.5] - fracs[1.0])
    elapsed = time.time() - start
    report("criterion 7 (square-root norm favors accurate points)",
           wins >= 4 and elapsed < 300,
           f"{wins}/5 seeds, mean within-2mm gain {np.mean(deltas):+.3f}, "
           f"{elapsed:.0f}s")


def test_criterion_8_fusion_integrity():
    start = time.time()
    scene = synth.gen_scene(synth.SceneSpec(geometry="cube", texture="checker",
                                            height=64, width=80, n_views=7, seed=9))
    views = []
    for ref in scene.views:
        candidates = [v for v in scene.views if v.view_id != ref.view_id]
        sample = select_regular_views(ref, candidates,
                                      scene.pair_scores[ref.view_id], 5)
        stages = cascade_infer(sample)
        views.append(fusion.DepthView(stages[-1].depth, stages[-1].prob_map,
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
    provenance_ok = all(masks[vid].data[v, u] and
                        views[vid].prob_map.data[v, u] > cfg.conf_threshold
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
    field = ScalarField(rng.random((9, 11)).astype(np.float32).astype(np.float64))
    fileio.write_pfm(tmp_path / "f.pfm", field)
    pfm_ok = np.array_equal(fileio.read_pfm(tmp_path / "f.pfm").data, field.data)
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
