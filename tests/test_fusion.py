import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvslab import fusion, sampling, synth
from mvslab.fusion import (DepthView, FusionConfig, FusionError, PointCloud,
                           cloud_metrics, depth_metrics, fuse_point_cloud,
                           geometric_consistency_filter)
from mvslab.geometry import Camera, backproject, pixel_grid
from mvslab.grids import BinaryMask, ScalarField
from mvslab.planesweep import cascade_infer


@pytest.fixture(scope="module")
def cube_views():
    scene = synth.gen_scene(synth.SceneSpec(geometry="cube", texture="checker",
                                            height=48, width=64, n_views=7, seed=9))
    views = []
    for ref in scene.views:
        candidates = [v for v in scene.views if v.view_id != ref.view_id]
        sample = sampling.select_regular_views(ref, candidates,
                                               scene.pair_scores[ref.view_id], 5)
        stages = cascade_infer(sample)
        views.append(DepthView(stages[-1].depth, stages[-1].prob_map, ref.camera,
                               ref.image, ref.view_id))
    return scene, views


@pytest.fixture(scope="module")
def gt_views():
    scene = synth.gen_scene(synth.SceneSpec(height=32, width=40, n_views=5, seed=13))
    views = [DepthView(v.gt_depth, ScalarField(np.ones((32, 40))), v.camera,
                       v.image, v.view_id) for v in scene.views]
    return scene, views


def test_filter_gt_depths_mostly_survive(gt_views):
    scene, views = gt_views
    cfg = FusionConfig(conf_threshold=0.5, reproj_px=1.0, rel_depth=0.01,
                       min_consistent_views=3)
    masks = geometric_consistency_filter(views, cfg)
    # mutually visible pixels: GT projects into at least 3 other views
    for view, mask in zip(views, masks):
        h, w = view.depth.data.shape
        grid = pixel_grid(h, w)
        count = np.zeros((h, w), dtype=int)
        for other in views:
            if other.view_id == view.view_id:
                continue
            from mvslab.geometry import project_with_depth
            uv, _, front = project_with_depth(grid, view.depth.data, view.camera,
                                              other.camera)
            count += (front & (uv[..., 0] >= 0) & (uv[..., 0] <= w - 1)
                      & (uv[..., 1] >= 0) & (uv[..., 1] <= h - 1))
        visible = count >= 3
        assert mask.data[visible].mean() >= 0.99


def test_filter_rejects_corrupted_view(gt_views):
    scene, views = gt_views
    cfg = FusionConfig(conf_threshold=0.5, reproj_px=1.0, rel_depth=0.01,
                       min_consistent_views=3)
    base = geometric_consistency_filter(views, cfg)[0]
    corrupted = [DepthView(ScalarField(v.depth.data + (50.0 if v.view_id == 0 else 0.0)),
                           v.prob_map, v.camera, v.image, v.view_id) for v in views]
    masks = geometric_consistency_filter(corrupted, cfg)
    # view 0's +50mm depths fail the cross-view round trip almost everywhere
    assert masks[0].data.mean() < 0.02
    assert base.data.mean() > 0.5


def test_filter_photometric_gate(gt_views):
    scene, views = gt_views
    low_conf = [DepthView(v.depth, ScalarField(np.full(v.depth.data.shape, 0.5)),
                          v.camera, v.image, v.view_id) for v in views]
    cfg = FusionConfig(conf_threshold=0.95)
    masks = geometric_consistency_filter(low_conf, cfg)
    assert all(not m.data.any() for m in masks)


def test_filter_needs_two_views(gt_views):
    scene, views = gt_views
    with pytest.raises(FusionError):
        geometric_consistency_filter(views[:1], FusionConfig())


def test_filter_stricter_thresholds_give_subsets(gt_views):
    scene, views = gt_views
    noisy = [DepthView(ScalarField(v.depth.data
                                   + np.random.default_rng(v.view_id).normal(0, 1.5,
                                                                             v.depth.data.shape)),
                       v.prob_map, v.camera, v.image, v.view_id) for v in views]
    loose = geometric_consistency_filter(
        noisy, FusionConfig(conf_threshold=0.5, reproj_px=2.0, rel_depth=0.02,
                            min_consistent_views=2))
    strict = geometric_consistency_filter(
        noisy, FusionConfig(conf_threshold=0.5, reproj_px=0.8, rel_depth=0.005,
                            min_consistent_views=3))
    for lo, hi in zip(loose, strict):
        assert np.all(~hi.data | lo.data)


def test_backprojection_pinhole_point():
    cam = Camera(np.eye(3), np.eye(4), 100.0, 1000.0)
    pts = backproject(cam, np.array([[2.0, 3.0]]), np.array([7.0]))
    assert np.allclose(pts, [[14.0, 21.0, 7.0]])


def test_fuse_cube_points_on_surface(cube_views):
    scene, views = cube_views
    cfg = FusionConfig(reproj_px=0.5, rel_depth=0.005, min_consistent_views=4)
    masks = geometric_consistency_filter(views, cfg)
    cloud = fuse_point_cloud(views, masks, cfg)
    assert len(cloud) > 500
    half = synth._CUBE_HALF
    center = np.array([0.0, 0.0, half])
    d_plane = np.abs(cloud.points[:, 2])
    q = np.abs(cloud.points - center) - half
    outside = np.linalg.norm(np.maximum(q, 0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    dist = np.minimum(d_plane, np.abs(outside + inside))
    interval = (935.0 - 425.0) / 191.0
    assert (dist <= interval).mean() >= 0.95


def test_fuse_provenance_passes_gates(cube_views):
    scene, views = cube_views
    cfg = FusionConfig(reproj_px=0.5, rel_depth=0.005, min_consistent_views=4)
    masks = geometric_consistency_filter(views, cfg)
    cloud = fuse_point_cloud(views, masks, cfg)
    for vid, v, u in cloud.provenance:
        assert masks[vid].data[v, u]
        assert views[vid].prob_map.data[v, u] > cfg.conf_threshold


def test_fuse_duplicate_suppression(gt_views):
    scene, views = gt_views
    cfg = FusionConfig(conf_threshold=0.5, reproj_px=1.0, rel_depth=0.01,
                       min_consistent_views=1)
    pair = views[:2]
    masks = geometric_consistency_filter(pair, cfg)
    cloud = fuse_point_cloud(pair, masks, cfg)
    single = int(masks[0].data.sum())
    assert single > 0
    assert len(cloud) <= 1.2 * single


def test_fuse_empty_masks_give_empty_cloud(gt_views):
    scene, views = gt_views
    empty = [BinaryMask(np.zeros(v.depth.data.shape, dtype=bool)) for v in views]
    cloud = fuse_point_cloud(views, empty, FusionConfig())
    assert len(cloud) == 0


def test_depth_metrics_exact():
    gt = ScalarField(np.full((6, 6), 600.0))
    valid = BinaryMask(np.ones((6, 6), dtype=bool))
    fr = depth_metrics(gt, gt, valid)
    assert (fr[2.0], fr[4.0], fr[8.0]) == (1.0, 1.0, 1.0)


def test_depth_metrics_uniform_offset():
    gt = ScalarField(np.full((6, 6), 600.0))
    off = ScalarField(gt.data + 3.0)
    fr = depth_metrics(off, gt, BinaryMask(np.ones((6, 6), dtype=bool)))
    assert (fr[2.0], fr[4.0], fr[8.0]) == (0.0, 1.0, 1.0)


def test_depth_metrics_sampled_uniform_errors():
    rng = np.random.default_rng(3)
    n = 200 * 200
    gt = ScalarField(np.full((200, 200), 600.0))
    errors = rng.uniform(0, 10, (200, 200))
    noisy = ScalarField(gt.data + errors)
    fr = depth_metrics(noisy, gt, BinaryMask(np.ones((200, 200), dtype=bool)))
    for tau, expect in ((2.0, 0.2), (4.0, 0.4), (8.0, 0.8)):
        sigma = np.sqrt(expect * (1 - expect) / n)
        assert abs(fr[tau] - expect) < 5 * sigma


def test_depth_metrics_monotone_in_threshold():
    rng = np.random.default_rng(4)
    gt = ScalarField(np.full((20, 20), 600.0))
    noisy = ScalarField(gt.data + rng.normal(0, 4, (20, 20)))
    fr = depth_metrics(noisy, gt, BinaryMask(np.ones((20, 20), dtype=bool)),
                       thresholds=(1.0, 2.0, 4.0, 8.0, 16.0))
    vals = [fr[t] for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_depth_metrics_empty_mask_errors():
    gt = ScalarField(np.ones((3, 3)))
    with pytest.raises(FusionError):
        depth_metrics(gt, gt, BinaryMask(np.zeros((3, 3), dtype=bool)))


def cloud_of(points):
    points = np.asarray(points, dtype=np.float64)
    return PointCloud(points, np.full((len(points), 3), 128, dtype=np.uint8))


def test_cloud_metrics_identical():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-50, 50, (100, 3))
    acc, comp, overall = cloud_metrics(cloud_of(pts), cloud_of(pts))
    assert acc == comp == overall == 0.0


def test_cloud_metrics_rigid_offset():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-50, 50, (80, 3))
    # spread points so the nearest neighbor of a shifted point is its own copy
    pts = pts * np.array([10, 10, 10]) / 10
    shifted = pts + np.array([1.0, 0.0, 0.0])
    acc, comp, overall = cloud_metrics(cloud_of(shifted), cloud_of(pts))
    assert acc <= 1.0 + 1e-9
    assert overall == pytest.approx((acc + comp) / 2)


def test_cloud_metrics_half_coverage_asymmetry():
    xs = np.arange(100, dtype=np.float64) * 5
    gt = np.stack([xs, np.zeros(100), np.zeros(100)], axis=1)
    pred = gt[:50]
    acc, comp, overall = cloud_metrics(cloud_of(pred), cloud_of(gt))
    assert acc == pytest.approx(0.0)
    assert comp > acc


def test_cloud_metrics_symmetry():
    rng = np.random.default_rng(7)
    a = rng.uniform(-40, 40, (60, 3))
    b = rng.uniform(-40, 40, (70, 3))
    acc_ab, comp_ab, _ = cloud_metrics(cloud_of(a), cloud_of(b))
    acc_ba, comp_ba, _ = cloud_metrics(cloud_of(b), cloud_of(a))
    assert acc_ab == pytest.approx(comp_ba)
    assert comp_ab == pytest.approx(acc_ba)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 31 - 1))
def test_cloud_metrics_match_kdtree_oracle(seed):
    # the oracle is a brute-force distance matrix, independent of the KD-tree
    rng = np.random.default_rng(seed)
    a = rng.uniform(-60, 60, (40, 3))
    b = rng.uniform(-60, 60, (50, 3))
    cap = 20.0
    acc, comp, overall = cloud_metrics(cloud_of(a), cloud_of(b), outlier_cap=cap)
    dist = np.linalg.norm(a[:, None] - b[None], axis=-1)
    d_ab = np.minimum(dist.min(1), cap)
    d_ba = np.minimum(dist.min(0), cap)
    assert acc == pytest.approx(d_ab.mean(), rel=1e-12)
    assert comp == pytest.approx(d_ba.mean(), rel=1e-12)
    assert overall == pytest.approx((acc + comp) / 2)


def test_cloud_metrics_outlier_clamp():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1000.0, 0.0, 0.0]])
    acc, comp, overall = cloud_metrics(cloud_of(a), cloud_of(b), outlier_cap=20.0)
    assert acc == comp == overall == 20.0


def test_cloud_metrics_empty_errors():
    with pytest.raises(FusionError):
        cloud_metrics(cloud_of(np.zeros((0, 3))), cloud_of(np.ones((2, 3))))
