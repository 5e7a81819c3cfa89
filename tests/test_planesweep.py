import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvslab.geometry import Camera, CameraView, pixel_grid, warp_image, warp_rays
from mvslab.geometry import resize_bilinear
from mvslab.grids import Image
from mvslab.planesweep import (N_FEATURES, N_GROUPS, STAGE_COUNTS, HypothesisSet,
                               PlaneSweepError, SweepConfig, _normalize_groups,
                               build_feature_volume, build_hypotheses,
                               cascade_infer, extract_features,
                               groupwise_correlation, probability_and_confidence,
                               refresh_confidence, regress_depth,
                               regularize_and_softmax)
from mvslab import synth
from mvslab.sampling import Sample
from conftest import assert_same_bytes, mutual_visibility, signed_values


def flat_camera(dmin=425.0, dmax=935.0):
    k = np.array([[96.0, 0, 39.5], [0, 96.0, 31.5], [0, 0, 1.0]])
    return Camera(k, np.eye(4), dmin, dmax)


def test_stage1_hypotheses_span_range():
    cam = flat_camera()
    hyps = build_hypotheses(cam, 1, None, 4, 5)
    assert hyps.count == 48
    assert hyps.values[0, 0, 0] == pytest.approx(425.0)
    assert hyps.values[-1, 0, 0] == pytest.approx(935.0)
    spacing = np.diff(hyps.values[:, 2, 3])
    assert np.allclose(spacing, (935 - 425) / 47)


def test_stage2_window_arithmetic():
    cam = flat_camera()
    # stage-2 interval = 4 x final interval; a 191mm range makes the final
    # interval exactly 1mm, and the range is placed so the window fits
    cam_1mm = Camera(cam.k, cam.pose, 480.0, 480.0 + 191.0)
    prev = np.full((4, 5), 600.0)
    hyps = build_hypotheses(cam_1mm, 2, prev, 4, 5)
    assert hyps.count == 32
    assert hyps.values[0, 0, 0] == pytest.approx(600.0 - 62.0)
    assert hyps.values[-1, 0, 0] == pytest.approx(600.0 + 62.0)


def test_hypothesis_clamp_shifts_window_into_range():
    cam = flat_camera()
    prev = np.full((3, 3), 430.0)
    hyps = build_hypotheses(cam, 2, prev, 3, 3)
    assert hyps.values.min() >= 425.0
    assert np.all(np.diff(hyps.values, axis=0) > 0)  # still strictly increasing


def test_stage2_requires_previous_depth():
    with pytest.raises(PlaneSweepError):
        build_hypotheses(flat_camera(), 2, None, 4, 5)


def test_features_constant_image_all_zero():
    img = Image(np.full((16, 20, 3), 0.4))
    for stage in (1, 2, 3):
        feats = extract_features(img, stage)
        assert np.allclose(feats, 0.0, atol=1e-6)


def test_feature_stage_resolutions():
    img = Image(np.random.default_rng(0).random((64, 80, 3)))
    assert extract_features(img, 1).shape == (16, 20, 8)
    assert extract_features(img, 2).shape == (32, 40, 8)
    assert extract_features(img, 3).shape == (64, 80, 8)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 31 - 1))
def test_features_finite_and_bounded(seed):
    img = Image(np.random.default_rng(seed).random((12, 14, 3)))
    feats = extract_features(img, 3)
    assert np.all(np.isfinite(feats))
    # per-group L2 normalization bounds every channel by 1
    assert np.abs(feats).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("shape", [(6, 7, N_FEATURES), (3, 6, 7, N_FEATURES)])
def test_normalize_groups_equals_the_norm_formula_exactly(shape):
    rng = np.random.default_rng(9)
    feats = signed_values(rng, shape)
    feats[..., 2:4] *= 1e-9  # groups whose norm is under the 1e-8 floor
    feats[0, ..., 4:6] = 0.0
    groups = feats.reshape(shape[:-1] + (N_GROUPS, -1))
    expect = (groups / np.maximum(np.linalg.norm(groups, axis=-1, keepdims=True), 1e-8)
              ).reshape(shape)
    out = _normalize_groups(feats)
    assert_same_bytes(out, expect)
    # an all-zero group stays exactly +0.0
    assert not np.signbit(out[0, ..., 4:6]).any() and not out[0, ..., 4:6].any()


def test_feature_volume_identity_camera():
    cam = flat_camera()
    img = Image(np.random.default_rng(1).random((64, 80, 3)))
    feats = extract_features(img, 3)
    hyps = build_hypotheses(cam, 1, None, 64, 80)
    vol = build_feature_volume(feats, hyps, cam, cam)
    # the warp itself, before build_feature_volume re-normalizes each group
    warped = warp_image(*warp_rays(pixel_grid(64, 80), cam, cam), feats, hyps.values)[0]
    # re-normalization divides a group that is exactly 0 in feats by its 1e-8
    # floor, so float residue of the warp there (7e-15 at the bottom-right
    # pixel of plane 44) grows to 7e-7; every other group of feats is unit-norm
    group_norms = np.linalg.norm(feats.reshape(64, 80, N_GROUPS, -1), axis=-1)
    unit = np.repeat(group_norms > 0.5, N_FEATURES // N_GROUPS, axis=-1)
    for d in range(0, 48, 11):
        assert np.allclose(warped[d], feats, atol=1e-9)
        assert np.allclose(np.moveaxis(vol[:, d], 0, -1)[unit], feats[unit], atol=1e-9)


def test_feature_volume_at_gt_depth_matches_reference(checker_scene):
    ref = checker_scene.views[0]
    src = checker_scene.views[1]
    ref_feat = extract_features(ref.image, 3)
    src_feat = extract_features(src.image, 3)
    h, w = ref.gt_depth.shape
    hyps = HypothesisSet(ref.gt_depth[None, :, :], 1.0)
    vol = build_feature_volume(src_feat, hyps, ref.camera, src.camera)
    warped = np.moveaxis(vol[:, 0], 0, -1)
    covered = np.abs(warped).sum(axis=2) > 0
    covered[:4] = covered[-4:] = False
    covered[:, :4] = covered[:, -4:] = False
    # unit-normalized group vectors agree closely where the warp is in frame
    diff = np.abs(warped - ref_feat).max(axis=2)
    assert np.median(diff[covered]) < 0.25
    agree = (warped * ref_feat).reshape(h, w, N_GROUPS, -1).sum(axis=3)
    assert np.median(agree[covered].mean(axis=-1)) > 0.9  # cosine near 1


def test_feature_volume_out_of_frustum_zero():
    cam = flat_camera()
    pose = np.eye(4)
    pose[0, 3] = 1e5  # pushes every projection far outside
    src = Camera(cam.k, pose, 425.0, 935.0)
    feats = np.ones((8, 10, 8))
    hyps = build_hypotheses(cam, 1, None, 8, 10)
    vol = build_feature_volume(feats, hyps, cam, src)
    assert np.all(vol == 0)


def test_groupwise_correlation_all_ones():
    # 2 views, 4 channels, 2 groups, unit features: inner product per group is
    # 2, normalizer (N-1) * N_C / N_G = 2, so every cell is 1
    ref = np.ones((4, 2, 3, 3))
    src = np.ones((4, 2, 3, 3))
    cost = groupwise_correlation(ref, [src], 2)
    assert cost.shape == (2, 2, 3, 3)
    assert np.allclose(cost, 1.0)


def test_groupwise_correlation_orthogonal_is_zero():
    ref = np.zeros((4, 1, 2, 2))
    src = np.zeros((4, 1, 2, 2))
    ref[0] = 1.0  # group 0 uses channel 0 only
    src[1] = 1.0  # ... while the source uses channel 1
    cost = groupwise_correlation(ref, [src], 2)
    assert np.allclose(cost, 0.0)


def test_groupwise_correlation_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    n_c, n_g, d, h, w = 4, 2, 2, 3, 3
    ref = rng.standard_normal((n_c, d, h, w))
    srcs = [rng.standard_normal((n_c, d, h, w)) for _ in range(2)]
    cost = groupwise_correlation(ref, srcs, n_g)
    per_group = n_c // n_g
    norm = len(srcs) * per_group
    for g in range(n_g):
        for dd in range(d):
            for v in range(h):
                for u in range(w):
                    acc = 0.0
                    for s in srcs:
                        for c in range(per_group):
                            ch = g * per_group + c
                            acc += ref[ch, dd, v, u] * s[ch, dd, v, u]
                    assert cost[g, dd, v, u] == pytest.approx(acc / norm, abs=1e-12)


@pytest.mark.parametrize("n_groups", [4, 2, 1, 8])
def test_groupwise_correlation_equals_the_reduction_form_exactly(n_groups):
    # the reference volume is broadcast over its hypotheses, as in the sweep
    rng = np.random.default_rng(7)
    d, h, w = 3, 5, 6
    ref = np.broadcast_to(signed_values(rng, (N_FEATURES, 1, h, w)), (N_FEATURES, d, h, w))
    srcs = [signed_values(rng, (N_FEATURES, d, h, w)) for _ in range(3)]
    per_group = N_FEATURES // n_groups
    ref_g = ref.reshape(n_groups, per_group, d, h, w)
    acc = np.zeros((n_groups, d, h, w))
    for v in srcs:
        acc += (ref_g * v.reshape(n_groups, per_group, d, h, w)).sum(axis=1)
    expect = acc / (len(srcs) * per_group)
    cost = groupwise_correlation(ref, srcs, n_groups)
    assert_same_bytes(cost, expect)


def test_groupwise_correlation_group_divisibility():
    with pytest.raises(PlaneSweepError):
        groupwise_correlation(np.ones((5, 1, 2, 2)), [np.ones((5, 1, 2, 2))], 2)


def test_softmax_uniform_for_equal_scores():
    cfg = SweepConfig()
    cost = np.full((4, 6, 3, 3), 0.3)
    prob = regularize_and_softmax(cost, cfg)
    assert np.allclose(prob, 1.0 / 6.0)


def test_softmax_saturates_on_dominant_score():
    cfg = SweepConfig()
    cost = np.zeros((1, 8, 1, 1))
    cost[0, 3] = 1.0
    prob = regularize_and_softmax(cost, cfg)
    assert prob[3, 0, 0] > 0.9
    assert np.argmax(prob[:, 0, 0]) == 3


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_probability_volume_normalized(seed):
    cfg = SweepConfig()
    cost = np.random.default_rng(seed).uniform(-1, 1, (4, 5, 4, 4))
    prob = regularize_and_softmax(cost, cfg)
    assert np.all(prob >= 0)
    assert np.allclose(prob.sum(axis=0), 1.0, atol=1e-6)


def uniform_hyps(values, h, w):
    vals = np.broadcast_to(np.asarray(values)[:, None, None],
                           (len(values), h, w)).copy()
    return HypothesisSet(vals, float(values[1] - values[0]))


def test_regress_depth_uniform_prob_is_mean():
    hyps = uniform_hyps([400.0, 500.0, 600.0], 2, 2)
    prob = np.full((3, 2, 2), 1.0 / 3.0)
    depth = regress_depth(prob, hyps)
    assert np.allclose(depth, 500.0)


def test_regress_depth_one_hot():
    hyps = uniform_hyps([400.0, 500.0, 600.0], 2, 2)
    prob = np.zeros((3, 2, 2))
    prob[2] = 1.0
    assert np.allclose(regress_depth(prob, hyps), 600.0)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_regress_depth_within_hypothesis_range(seed):
    rng = np.random.default_rng(seed)
    hyps = uniform_hyps(np.linspace(425, 935, 8), 3, 3)
    raw = rng.random((8, 3, 3))
    prob = raw / raw.sum(axis=0, keepdims=True)
    depth = regress_depth(prob, hyps)
    assert depth.min() >= 425.0 - 1e-9
    assert depth.max() <= 935.0 + 1e-9


def test_confidence_one_hot_prob():
    hyps = uniform_hyps(np.linspace(425, 935, 48), 2, 2)
    prob = np.zeros((48, 2, 2))
    prob[20] = 1.0
    depth = regress_depth(prob, hyps)
    pm, mc = probability_and_confidence(prob, hyps, depth, 0.95)
    assert np.allclose(pm, 1.0)
    assert np.all(mc)


def test_confidence_uniform_prob():
    hyps = uniform_hyps(np.linspace(425, 935, 48), 2, 2)
    prob = np.full((48, 2, 2), 1.0 / 48.0)
    depth = regress_depth(prob, hyps)
    pm, mc = probability_and_confidence(prob, hyps, depth, 0.95)
    assert np.allclose(pm, 4.0 / 48.0)
    assert not mc.any()


def test_confidence_rejects_fewer_than_four_hypotheses():
    # every cascade stage sweeps at least 8 hypotheses; fewer than the
    # window's 4 can only come from a caller's own volume
    hyps = uniform_hyps([500.0, 510.0, 520.0], 2, 2)
    prob = np.full((3, 2, 2), 1.0 / 3.0)
    depth = regress_depth(prob, hyps)
    with pytest.raises(PlaneSweepError, match="needs 4 hypotheses, got 3"):
        probability_and_confidence(prob, hyps, depth, 0.95)


def test_confidence_antitone_in_threshold():
    rng = np.random.default_rng(7)
    hyps = uniform_hyps(np.linspace(425, 935, 16), 4, 4)
    raw = rng.random((16, 4, 4)) ** 4
    prob = raw / raw.sum(axis=0, keepdims=True)
    depth = regress_depth(prob, hyps)
    prev = None
    for gamma in (0.3, 0.5, 0.7, 0.9):
        _, mc = probability_and_confidence(prob, hyps, depth, gamma)
        if prev is not None:
            assert np.all(~mc | prev)  # mc is a subset of prev
        prev = mc
    # raising gamma never adds pixels
    _, lo = probability_and_confidence(prob, hyps, depth, 0.2)
    _, hi = probability_and_confidence(prob, hyps, depth, 0.8)
    assert np.all(hi <= lo)


def test_cascade_stage1_recovers_plane(checker_scene, checker_samples, checker_cascade):
    gt = checker_scene.views[0].gt_depth
    st1 = checker_cascade[0]
    h, w = st1.depth.shape
    ref = checker_samples["regular"].reference
    cam = ref.camera.scaled(h, w, ref.image.height, ref.image.width)
    spacing = (cam.depth_max - cam.depth_min) / (STAGE_COUNTS[0] - 1)
    gt_s = resize_bilinear(gt, h, w)
    valid = mutual_visibility(checker_samples["regular"], gt, crop=4)
    valid_s = resize_bilinear(valid.astype(float), h, w) > 0.99
    # the quarter-res feature stack and cost smoothing span ~4 px, so the
    # stage-1 evidence is only complete a few pixels in from the border
    valid_s[:3, :] = valid_s[-3:, :] = False
    valid_s[:, :3] = valid_s[:, -3:] = False
    err = np.abs(st1.depth - gt_s)
    assert (err[valid_s] <= spacing).mean() >= 0.95


def test_cascade_final_stage_accuracy(checker_scene, checker_samples, checker_cascade):
    gt = checker_scene.views[0].gt_depth
    final = checker_cascade[-1]
    valid = mutual_visibility(checker_samples["regular"], gt, crop=4)
    err = np.abs(final.depth - gt)
    assert (err[valid] <= 2.0).mean() >= 0.90


def test_cascade_median_error_never_increases(checker_scene, checker_samples,
                                              checker_cascade):
    gt = checker_scene.views[0].gt_depth
    valid = mutual_visibility(checker_samples["regular"], gt, crop=4)
    medians = []
    for stage in checker_cascade:
        h, w = stage.depth.shape
        gt_s = resize_bilinear(gt, h, w)
        v_s = resize_bilinear(valid.astype(float), h, w) > 0.99
        medians.append(np.median(np.abs(stage.depth - gt_s)[v_s]))
    assert medians[1] <= medians[0] + 1e-9
    assert medians[2] <= medians[1] + 1e-9


def test_cascade_infer_returns_the_last_stage(checker_samples, checker_cascade):
    final = cascade_infer(checker_samples["regular"])
    last = checker_cascade[-1]
    assert np.array_equal(final.depth, last.depth)
    assert np.array_equal(final.prob_map, last.prob_map)
    assert np.array_equal(final.conf_mask, last.conf_mask)


@pytest.mark.parametrize("size", [(3, 3), (4, 5), (2, 8)], ids=["3x3", "4x5", "2x8"])
def test_image_too_small_for_stage_divisor_raises(size):
    # the default coarsest divisor is 4; a 4x5 image would sweep a 1x1 stage
    h, w = size
    scene = synth.gen_scene(synth.SceneSpec(height=h, width=w, n_views=3, seed=0))
    with pytest.raises(PlaneSweepError, match=f"{h}x{w} image .* divisor 4"):
        cascade_infer(synth.regular_sample(scene, 0, 2))


def test_textureless_scene_has_no_confidence(uniform_scene):
    samples = synth.build_branch_samples(uniform_scene, 0, 5, 0.0, 7)
    final = cascade_infer(samples["regular"])
    assert np.isfinite(final.depth).all() and np.isfinite(final.prob_map).all()
    assert final.conf_mask.mean() < 0.05


def test_refresh_at_the_far_end_of_the_range_has_no_confidence(small_scene):
    sample = synth.regular_sample(small_scene, 0, 4)
    far = np.full((32, 40), sample.reference.camera.depth_max)
    prob, conf = refresh_confidence(sample, far, SweepConfig())
    assert np.isfinite(prob).all()
    assert conf.sum() == 0


def test_all_black_sources_sweep_to_finite_depth_with_no_confidence(small_scene):
    sample = synth.regular_sample(small_scene, 0, 4)
    black = Sample(sample.reference, [CameraView(Image(np.zeros_like(v.image.data)),
                                                 v.camera, v.gt_depth, v.view_id)
                                      for v in sample.sources])
    final = cascade_infer(black)
    assert np.isfinite(final.depth).all() and np.isfinite(final.prob_map).all()
    assert final.conf_mask.sum() == 0


def test_refresh_confidence_centers_on_given_depth(checker_scene, checker_samples,
                                                   checker_cascade):
    reg = checker_samples["regular"]
    depth = checker_cascade[-1].depth
    pm, mc = refresh_confidence(reg, depth, SweepConfig())
    assert pm.shape == depth.shape
    assert 0.0 <= pm.min() and pm.max() <= 1.0
    assert mc.mean() > 0.1  # plenty of confident pixels on a textured plane
