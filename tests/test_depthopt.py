import numpy as np
import pytest

from mvslab import depthopt, synth
from mvslab.depthopt import (BranchLossConfig, OptimizationDiverged,
                             OptimizerConfig, audit_case, finite_diff_grad, loss_grad_wrt_depth,
                             optimize_joint, random_audit_case)
from mvslab.geometry import Camera, CameraView
from mvslab.grids import BinaryMask, Image, ScalarField
from mvslab.losses import LossWeights, NormKind
from mvslab.planesweep import SweepConfig
from mvslab.sampling import Sample, curriculum


def test_finite_diff_on_quadratic_toy():
    # L = sum (D - c)^2 expressed through the consistency term would be |.|;
    # instead check the oracle itself on an analytic quadratic via a stub
    # config: weight_consist on |D - c| gives +-1 gradients away from ties
    target = ScalarField(np.full((4, 5), 500.0))
    depth = ScalarField(np.full((4, 5), 507.5))
    mask = BinaryMask(np.ones((4, 5), dtype=bool))
    case = random_audit_case(0, 4, 5)
    cfg = BranchLossConfig(weight_photo=0.0, weight_ssim=0.0, weight_smooth=0.0,
                           weight_consist=1.0, consist_target=target,
                           consist_mask=mask)
    fd = finite_diff_grad(case.sample, depth, cfg, h=1e-3)
    assert np.allclose(fd, 1.0 / 20.0, atol=1e-9)  # d|D-c| / dD = +1 / ||M||


def test_identity_source_pose_zero_photometric_gradient():
    rng = np.random.default_rng(0)
    h, w = 8, 10
    k = np.array([[12.0, 0, (w - 1) / 2], [0, 12.0, (h - 1) / 2], [0, 0, 1.0]])
    cam = Camera(k, np.eye(4), 100.0, 1000.0)
    ref = CameraView(Image(rng.random((h, w, 3))), cam, view_id=0)
    src = CameraView(Image(rng.random((h, w, 3))), cam, view_id=1)
    sample = Sample(ref, [src])
    depth = ScalarField(np.full((h, w), 400.0))
    cfg = BranchLossConfig(weight_photo=1.0, weight_ssim=0.0, weight_smooth=0.0)
    total, grad = loss_grad_wrt_depth(sample, depth, cfg)
    assert total > 0  # images differ
    assert np.allclose(grad, 0.0)  # but the warp is depth-independent


def test_gradient_matches_fd_every_norm():
    case = random_audit_case(1)
    cfgs = {f"photo_{expo}": BranchLossConfig(norm=NormKind(expo), weight_photo=1.0,
                                              weight_ssim=0.0, weight_smooth=0.0)
            for expo in (0.5, 1.0, 2.0)}
    reports = audit_case(case.sample, case.depth, cfgs)
    assert reports.keys() == cfgs.keys()
    for term, rep in reports.items():
        assert rep.frac_passed >= 0.99, term
        assert rep.n_checked > 0.5 * case.depth.data.size, term


def test_fd_convergence_order():
    # against the analytic gradient of the square-root norm (the term with
    # real curvature), the FD error falls quadratically in h and then climbs
    # back up on the round-off flank
    case = random_audit_case(2, 12, 14)
    cfg = BranchLossConfig(norm=NormKind(0.5), weight_photo=1.0,
                           weight_ssim=0.0, weight_smooth=0.0)
    _, grad, _, details = loss_grad_wrt_depth(case.sample, case.depth, cfg,
                                              return_details=True)
    excl = depthopt._exclusion_mask(case.sample, case.depth, cfg, details, 2.7e-1)
    errs = []
    for h in (2.7e-1, 2.7e-2, 2.7e-4):
        fd = finite_diff_grad(case.sample, case.depth, cfg, h)
        errs.append(np.percentile(np.abs(fd - grad)[~excl], 95))
    assert errs[1] < errs[0] * 0.04  # ~quadratic: 100x per decade, some slack
    assert errs[2] > errs[1]  # round-off noise dominates for tiny steps


def test_batched_fd_equals_per_config_fd():
    case = random_audit_case(3, 6, 7)
    cfgs = case.configs()
    multi = depthopt.finite_diff_grad_multi(case.sample, case.depth, cfgs, 3e-4)
    for term, cfg in cfgs.items():
        single = finite_diff_grad(case.sample, case.depth, cfg, 3e-4)
        assert np.array_equal(single, multi[term])


def test_gt_depth_is_near_stationary_for_vanilla_norms():
    # on a clean render, the photometric loss is close to a local minimum at
    # the true depth: FD derivatives stay tiny on high-texture pixels for the
    # absolute and Euclidean norms (the square-root norm's gradient is
    # deliberately amplified at small residuals, so it is not expected here)
    scene = synth.gen_scene(synth.SceneSpec(height=24, width=30, n_views=5, seed=21))
    samples = synth.build_branch_samples(scene, 0, 4, 0.0, 1, fluctuation=None)
    reg = samples["regular"]
    gt = scene.views[0].gt_depth
    from mvslab.grids import forward_diff, to_grayscale
    gx, gy = forward_diff(to_grayscale(reg.reference.image))
    energy = gx * gx + gy * gy
    strong = energy > np.quantile(energy, 0.7)
    strong[:3] = strong[-3:] = False
    strong[:, :3] = strong[:, -3:] = False
    for expo in (1.0, 2.0):
        cfg = BranchLossConfig(norm=NormKind(expo), weight_photo=1.0,
                               weight_ssim=0.0, weight_smooth=0.0)
        fd = finite_diff_grad(reg, gt, cfg, h=1e-3)
        assert np.median(np.abs(fd[strong])) < 1e-3, expo


def opt_scene(seed=3):
    scene = synth.gen_scene(synth.SceneSpec(height=32, width=40, n_views=6, seed=seed))
    schedule = curriculum(8, 16)
    samples = synth.build_branch_samples(scene, 0, 4, schedule.occlusion_rate, 11)
    return scene, schedule, samples


def test_optimize_joint_runs_and_decreases_branch_losses():
    scene, schedule, samples = opt_scene()
    state = optimize_joint(samples, schedule, SweepConfig(),
                           OptimizerConfig(iterations=8))
    assert state.iteration == 8
    first, last = state.history[0], state.history[-1]
    assert last["loss_reg"] <= first["loss_reg"]
    assert last["loss_ic"] <= first["loss_ic"]
    assert last["loss_sc"] <= first["loss_sc"]


def test_accepted_steps_never_increase_branch_loss():
    scene, schedule, samples = opt_scene()
    state = optimize_joint(samples, schedule, SweepConfig(),
                           OptimizerConfig(iterations=12, refresh_every=0))
    for short in ("reg", "ic", "sc"):
        losses = [rec[f"loss_{short}"] for rec in state.history]
        accepted = [rec[f"accepted_{short}"] for rec in state.history]
        for i in range(1, len(losses)):
            if accepted[i]:
                assert losses[i] <= losses[i - 1] + 1e-9


def test_total_loss_monotone_without_cross_terms():
    scene, schedule, samples = opt_scene()
    opt = OptimizerConfig(iterations=10, refresh_every=0, image_consist_weight=0.0,
                          weights=LossWeights(scene_consist=0.0))
    state = optimize_joint(samples, schedule, SweepConfig(), opt)
    totals = [rec["total"] for rec in state.history]
    assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))


def test_gt_initialization_is_a_fixed_point():
    # noise-free inputs: with the occlusion rate at zero and fluctuation off,
    # every branch sees clean images; the bulk of the field stays within one
    # final interval of the truth (a small weak-texture tail drifts to nearby
    # spurious photometric optima)
    scene = synth.gen_scene(synth.SceneSpec(height=32, width=40, n_views=6, seed=5))
    schedule = curriculum(0, 16)
    samples = synth.build_branch_samples(scene, 0, 4, 0.0, 11, fluctuation=None)
    gt = scene.views[0].gt_depth.data
    init = {k: ScalarField(gt.copy()) for k in samples}
    sweep = SweepConfig()
    state = optimize_joint(samples, schedule, sweep,
                           OptimizerConfig(iterations=50), init_depths=init)
    interval = sweep.final_interval(scene.views[0].camera)
    for name, depth in state.depths.items():
        drift = np.abs(depth.data - gt)
        assert (drift <= interval).mean() > 0.94, name
        assert np.median(drift) < 0.4 * interval, name


def test_branches_independent_when_consistency_off():
    scene, schedule, samples = opt_scene(seed=7)
    opt = OptimizerConfig(iterations=6, image_consist_weight=0.0,
                          weights=LossWeights(scene_consist=0.0))
    joint = optimize_joint(samples, schedule, SweepConfig(), opt)
    # single-branch runs: replace the other two samples' depths by running the
    # same optimizer on a bundle whose branches are all the same sample
    for name in ("regular", "image_contrastive", "scene_contrastive"):
        solo_samples = {"regular": samples[name],
                        "image_contrastive": samples[name],
                        "scene_contrastive": samples[name]}
        solo = optimize_joint(solo_samples, schedule, SweepConfig(), opt)
        key = {"regular": "regular", "image_contrastive": "regular",
               "scene_contrastive": "regular"}[name]
        assert np.array_equal(solo.depths[key].data, joint.depths[name].data), name


def test_detach_contract_regular_branch_invariant():
    scene, schedule, samples = opt_scene(seed=9)
    with_terms = optimize_joint(samples, schedule, SweepConfig(),
                                OptimizerConfig(iterations=8,
                                                image_consist_weight=5.0))
    without = optimize_joint(samples, schedule, SweepConfig(),
                             OptimizerConfig(iterations=8,
                                             image_consist_weight=0.0,
                                             weights=LossWeights(scene_consist=0.0)))
    assert np.array_equal(with_terms.depths["regular"].data,
                          without.depths["regular"].data)


def test_symmetric_consistency_changes_regular_branch():
    scene, schedule, samples = opt_scene(seed=9)
    asym = optimize_joint(samples, schedule, SweepConfig(),
                          OptimizerConfig(iterations=6, image_consist_weight=5.0))
    sym = optimize_joint(samples, schedule, SweepConfig(),
                         OptimizerConfig(iterations=6, image_consist_weight=5.0,
                                         symmetric_consistency=True))
    assert not np.array_equal(asym.depths["regular"].data,
                              sym.depths["regular"].data)


def test_divergence_aborts_with_snapshot():
    scene, schedule, samples = opt_scene(seed=3)
    bad = OptimizerConfig(iterations=3, weights=LossWeights(photo=np.nan))
    with pytest.raises(OptimizationDiverged) as excinfo:
        optimize_joint(samples, schedule, SweepConfig(), bad)
    assert "iteration" in excinfo.value.snapshot


def test_missing_branch_rejected():
    scene, schedule, samples = opt_scene(seed=3)
    del samples["scene_contrastive"]
    with pytest.raises(ValueError):
        optimize_joint(samples, schedule, SweepConfig(), OptimizerConfig(iterations=1))
