import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvslab import fusion, synth
from mvslab.fusion import (DepthView, FusionConfig, FusionError, cloud_metrics,
                           depth_metrics, fuse_point_cloud)
from mvslab.geometry import Camera, backproject, pixel_grid
from mvslab.planesweep import cascade_infer


@pytest.fixture(scope="module")
def cube_views():
    scene = synth.gen_scene(synth.SceneSpec(geometry="cube", texture="checker",
                                            height=48, width=64, n_views=7, seed=9))
    views = []
    for ref in scene.views:
        final = cascade_infer(synth.regular_sample(scene, ref.view_id, 5))
        views.append(DepthView(final.depth, final.prob_map, ref.camera,
                               ref.image, ref.view_id))
    return scene, views


@pytest.fixture(scope="module")
def gt_views():
    scene = synth.gen_scene(synth.SceneSpec(height=32, width=40, n_views=5, seed=13))
    views = [DepthView(v.gt_depth, np.ones((32, 40)), v.camera,
                       v.image, v.view_id) for v in scene.views]
    return scene, views


def test_filter_gt_depths_mostly_survive(gt_views):
    scene, views = gt_views
    cfg = FusionConfig(conf_threshold=0.5, reproj_px=1.0, rel_depth=0.01,
                       min_consistent_views=3)
    _, masks = fuse_point_cloud(views, cfg)
    # mutually visible pixels: GT projects into at least 3 other views
    for view, mask in zip(views, masks):
        h, w = view.depth.shape
        grid = pixel_grid(h, w)
        count = np.zeros((h, w), dtype=int)
        for other in views:
            if other.view_id == view.view_id:
                continue
            from mvslab.geometry import project_with_depth
            uv, _, front = project_with_depth(grid, view.depth, view.camera,
                                              other.camera)
            count += (front & (uv[..., 0] >= 0) & (uv[..., 0] <= w - 1)
                      & (uv[..., 1] >= 0) & (uv[..., 1] <= h - 1))
        visible = count >= 3
        assert mask[visible].mean() >= 0.99


def test_textureless_scene_fuses_to_no_points(uniform_scene):
    views = []
    for ref in uniform_scene.views:
        final = cascade_infer(synth.regular_sample(uniform_scene, ref.view_id, 5))
        views.append(DepthView(final.depth, final.prob_map, ref.camera,
                               ref.image, ref.view_id))
    cloud, masks = fuse_point_cloud(views, FusionConfig())
    assert len(cloud) == 0
    assert not any(mask.any() for mask in masks)


def test_filter_rejects_corrupted_view(gt_views):
    scene, views = gt_views
    cfg = FusionConfig(conf_threshold=0.5, reproj_px=1.0, rel_depth=0.01,
                       min_consistent_views=3)
    base = fuse_point_cloud(views, cfg)[1][0]
    corrupted = [DepthView(v.depth + (50.0 if v.view_id == 0 else 0.0),
                           v.prob_map, v.camera, v.image, v.view_id) for v in views]
    _, masks = fuse_point_cloud(corrupted, cfg)
    # view 0's +50mm depths fail the cross-view round trip almost everywhere
    assert masks[0].mean() < 0.02
    assert base.mean() > 0.5


def test_filter_photometric_gate(gt_views):
    scene, views = gt_views
    low_conf = [DepthView(v.depth, np.full(v.depth.shape, 0.5),
                          v.camera, v.image, v.view_id) for v in views]
    cfg = FusionConfig(conf_threshold=0.95)
    _, masks = fuse_point_cloud(low_conf, cfg)
    assert all(not m.any() for m in masks)


def test_filter_needs_two_views(gt_views):
    scene, views = gt_views
    with pytest.raises(FusionError):
        fuse_point_cloud(views[:1], FusionConfig())


def test_filter_stricter_thresholds_give_subsets(gt_views):
    scene, views = gt_views
    noisy = [DepthView(v.depth + np.random.default_rng(v.view_id).normal(0, 1.5, v.depth.shape),
                       v.prob_map, v.camera, v.image, v.view_id) for v in views]
    _, loose = fuse_point_cloud(
        noisy, FusionConfig(conf_threshold=0.5, reproj_px=2.0, rel_depth=0.02,
                            min_consistent_views=2))
    _, strict = fuse_point_cloud(
        noisy, FusionConfig(conf_threshold=0.5, reproj_px=0.8, rel_depth=0.005,
                            min_consistent_views=3))
    for lo, hi in zip(loose, strict):
        assert np.all(~hi | lo)


def test_backprojection_pinhole_point():
    cam = Camera(np.eye(3), np.eye(4), 100.0, 1000.0)
    pts = backproject(cam, np.array([[2.0, 3.0]]), np.array([7.0]))
    assert np.allclose(pts, [[14.0, 21.0, 7.0]])


def test_fuse_cube_points_on_surface(cube_views):
    scene, views = cube_views
    cfg = FusionConfig(reproj_px=0.5, rel_depth=0.005, min_consistent_views=4)
    cloud, _ = fuse_point_cloud(views, cfg)
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
    cloud, masks = fuse_point_cloud(views, cfg)
    for vid, v, u in cloud.provenance:
        assert masks[vid][v, u]
        assert views[vid].prob_map[v, u] > cfg.conf_threshold


def test_fuse_duplicate_suppression(gt_views):
    scene, views = gt_views
    cfg = FusionConfig(conf_threshold=0.5, reproj_px=1.0, rel_depth=0.01,
                       min_consistent_views=1)
    pair = views[:2]
    cloud, masks = fuse_point_cloud(pair, cfg)
    single = int(masks[0].sum())
    assert single > 0
    assert len(cloud) <= 1.2 * single


def test_fuse_empty_masks_give_empty_cloud(gt_views):
    scene, views = gt_views
    # each view has only len(views) - 1 others, so no pixel can reach this count
    cfg = FusionConfig(min_consistent_views=len(views))
    cloud, masks = fuse_point_cloud(views, cfg)
    assert all(not m.any() for m in masks)
    assert len(cloud) == 0


def test_fuse_rejects_duplicate_view_ids(gt_views):
    scene, views = gt_views
    twin = DepthView(views[1].depth, views[1].prob_map, views[1].camera,
                     views[1].image, views[0].view_id)
    with pytest.raises(FusionError):
        fuse_point_cloud([views[0], twin, *views[2:]], FusionConfig())


def test_depth_view_rejects_shape_mismatch(gt_views):
    scene, views = gt_views
    v = views[2]
    small = np.ones((16, 20))
    with pytest.raises(FusionError, match="view 2"):
        DepthView(small, v.prob_map, v.camera, v.image, v.view_id)
    with pytest.raises(FusionError, match="view 2"):
        DepthView(v.depth, small, v.camera, v.image, v.view_id)
    with pytest.raises(FusionError, match="view 2"):
        DepthView(small, small, v.camera, v.image, v.view_id)


def test_fuse_evaluates_each_ordered_pair_once(cube_views, monkeypatch):
    scene, views = cube_views
    pairs = []
    original = fusion._pairwise_consistency

    def counted(ref, other, cfg):
        pairs.append((ref.view_id, other.view_id))
        return original(ref, other, cfg)

    monkeypatch.setattr(fusion, "_pairwise_consistency", counted)
    fuse_point_cloud(views, FusionConfig())
    n = len(views)
    assert n == 7
    assert len(pairs) == n * (n - 1) == len(set(pairs))


def test_depth_metrics_exact():
    gt = np.full((6, 6), 600.0)
    fr = depth_metrics(gt, gt)
    assert (fr[2.0], fr[4.0], fr[8.0]) == (1.0, 1.0, 1.0)


def test_depth_metrics_uniform_offset():
    gt = np.full((6, 6), 600.0)
    off = gt + 3.0
    fr = depth_metrics(off, gt)
    assert (fr[2.0], fr[4.0], fr[8.0]) == (0.0, 1.0, 1.0)


def test_depth_metrics_sampled_uniform_errors():
    rng = np.random.default_rng(3)
    n = 200 * 200
    gt = np.full((200, 200), 600.0)
    errors = rng.uniform(0, 10, (200, 200))
    noisy = gt + errors
    fr = depth_metrics(noisy, gt)
    for tau, expect in ((2.0, 0.2), (4.0, 0.4), (8.0, 0.8)):
        sigma = np.sqrt(expect * (1 - expect) / n)
        assert abs(fr[tau] - expect) < 5 * sigma


def test_depth_metrics_monotone_in_threshold(monkeypatch):
    monkeypatch.setattr(fusion, "DEPTH_THRESHOLDS_MM", (1.0, 2.0, 4.0, 8.0, 16.0))
    rng = np.random.default_rng(4)
    gt = np.full((20, 20), 600.0)
    noisy = gt + rng.normal(0, 4, (20, 20))
    fr = depth_metrics(noisy, gt)
    assert list(fr) == [1.0, 2.0, 4.0, 8.0, 16.0]
    vals = [fr[t] for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_depth_metrics_shape_mismatch_errors():
    # an 8x10 depth against a 16x20 ground truth would otherwise broadcast-fail
    depth = np.full((8, 10), 600.0)
    gt = np.full((16, 20), 600.0)
    with pytest.raises(FusionError, match="disagree in shape"):
        depth_metrics(depth, gt)
    with pytest.raises(FusionError, match="disagree in shape"):
        depth_metrics(gt, depth)


def cloud_of(points):
    return np.asarray(points, dtype=np.float64)


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
    cap = fusion.OUTLIER_CAP_MM
    acc, comp, overall = cloud_metrics(cloud_of(a), cloud_of(b))
    dist = np.linalg.norm(a[:, None] - b[None], axis=-1)
    d_ab = np.minimum(dist.min(1), cap)
    d_ba = np.minimum(dist.min(0), cap)
    assert acc == pytest.approx(d_ab.mean(), rel=1e-12)
    assert comp == pytest.approx(d_ba.mean(), rel=1e-12)
    assert overall == pytest.approx((acc + comp) / 2)


def test_cloud_metrics_outlier_clamp():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1000.0, 0.0, 0.0]])
    acc, comp, overall = cloud_metrics(cloud_of(a), cloud_of(b))
    assert acc == comp == overall == fusion.OUTLIER_CAP_MM == 20.0


def test_cloud_metrics_empty_errors():
    with pytest.raises(FusionError):
        cloud_metrics(cloud_of(np.zeros((0, 3))), cloud_of(np.ones((2, 3))))
