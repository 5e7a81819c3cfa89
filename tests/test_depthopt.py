import numpy as np
import pytest

from mvslab import depthopt, losses, synth
from mvslab.depthopt import (BranchLossConfig, OptimizationDiverged, OptimizerConfig,
                             OptState, audit_case, final_report, loss_grad_wrt_depth,
                             optimize_contrastive, optimize_joint, optimize_regular,
                             random_audit_case)
from mvslab.geometry import Camera, CameraView
from mvslab.grids import Image
from mvslab.losses import LossError, LossWeights, NormKind, branch_consistency
from mvslab.planesweep import SweepConfig, cascade_infer, final_interval
from mvslab.sampling import Sample, SamplingError, curriculum

ICC_EPOCH_8 = 0.16  # curriculum(8).image_consist_weight


def finite_diff_grad(sample: Sample, depth: np.ndarray, cfg: BranchLossConfig,
                     h: float) -> np.ndarray:
    """Central finite difference of the total loss, one pixel at a time: the
    slow black-box reference for finite_diff_grad_multi, with a full
    evaluation per perturbation."""
    grad = np.zeros_like(depth)
    work = depth.copy()
    for v in range(depth.shape[0]):
        for u in range(depth.shape[1]):
            d0 = work[v, u]
            work[v, u] = d0 + h
            plus = depthopt._evaluate(sample, work, cfg, False)[0]
            work[v, u] = d0 - h
            minus = depthopt._evaluate(sample, work, cfg, False)[0]
            work[v, u] = d0
            grad[v, u] = (plus - minus) / (2.0 * h)
    return grad


def test_finite_diff_on_quadratic_toy():
    # L = sum (D - c)^2 expressed through the consistency term would be |.|;
    # instead check the oracle itself on an analytic quadratic via a stub
    # config: weight_consist on |D - c| gives +-1 gradients away from ties
    target = np.full((4, 5), 500.0)
    depth = np.full((4, 5), 507.5)
    mask = np.ones((4, 5), dtype=bool)
    case = random_audit_case(0, 4, 5)
    cfg = BranchLossConfig(weight_consist=1.0, consist_target=target, consist_mask=mask)
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
    depth = np.full((h, w), 400.0)
    cfg = BranchLossConfig(weight_photo=1.0)
    total, grad, _, _ = loss_grad_wrt_depth(sample, depth, cfg)
    assert total > 0  # images differ
    assert np.allclose(grad, 0.0)  # but the warp is depth-independent


def test_gradient_matches_fd_every_norm():
    case = random_audit_case(1)
    cfgs = {f"photo_{expo}": BranchLossConfig(norm=NormKind(expo), weight_photo=1.0)
            for expo in (0.5, 1.0, 2.0)}
    reports = audit_case(case.sample, case.depth, cfgs)
    assert reports.keys() == cfgs.keys()
    for term, rep in reports.items():
        assert rep.frac_passed >= 0.99, term
        assert rep.n_checked == case.depth.size, term


def test_audit_checks_every_pixel():
    case = random_audit_case(0)
    reports = audit_case(case.sample, case.depth, case.configs())
    assert reports.keys() == case.configs().keys()
    for term, rep in reports.items():
        assert rep.n_checked == case.depth.size == 1280, term
        assert rep.frac_passed >= 0.99, (term, rep)


def test_fd_convergence_order():
    # against the analytic gradient of the square-root norm (the term with
    # real curvature), the FD error falls quadratically in h and then climbs
    # back up on the round-off flank
    case = random_audit_case(2, 12, 14)
    cfg = BranchLossConfig(norm=NormKind(0.5), weight_photo=1.0)
    grad = loss_grad_wrt_depth(case.sample, case.depth, cfg)[1]
    errs = []
    for h in (2.7e-1, 2.7e-2, 2.7e-4):
        fd = finite_diff_grad(case.sample, case.depth, cfg, h)
        errs.append(np.percentile(np.abs(fd - grad), 95))
    assert errs[1] < errs[0] * 0.04  # ~quadratic: 100x per decade, some slack
    assert errs[2] > errs[1]  # round-off noise dominates for tiny steps


def test_batched_fd_equals_per_config_fd():
    case = random_audit_case(3, 6, 7)
    cfgs = case.configs()
    multi = depthopt.finite_diff_grad_multi(case.sample, case.depth, cfgs, 3e-4)
    for term, cfg in cfgs.items():
        single = finite_diff_grad(case.sample, case.depth, cfg, 3e-4)
        assert np.array_equal(single, multi[term])


def assert_local_warp_fd_is_exact(case: depthopt.AuditCase, h: float):
    """The local-warp oracle equals, bit for bit, the per-config black-box
    one, and itself when called again on the same inputs."""
    cfgs = case.configs()
    multi = depthopt.finite_diff_grad_multi(case.sample, case.depth, cfgs, h)
    again = depthopt.finite_diff_grad_multi(case.sample, case.depth, cfgs, h)
    for term, cfg in cfgs.items():
        single = finite_diff_grad(case.sample, case.depth, cfg, h)
        assert np.array_equal(single, multi[term]), term
        assert np.array_equal(again[term], multi[term]), term


@pytest.mark.parametrize("seed", [0, 1])
def test_local_warp_fd_equals_per_config_fd(seed):
    assert_local_warp_fd_is_exact(random_audit_case(seed, 12, 15), 3e-4)


def test_local_warp_fd_is_exact_where_a_step_flips_a_mask():
    # a 10 mm step moves some pixels' warps across a source's border, so the
    # moved pixel changes its mask and the mask areas the norms divide by
    case, h = random_audit_case(0, 12, 15), 10.0
    d = case.depth
    plus = depthopt._warp_sources(case.sample, d + h).masks
    minus = depthopt._warp_sources(case.sample, d - h).masks
    assert any((p != m).any() for p, m in zip(plus, minus))
    assert_local_warp_fd_is_exact(case, h)


def test_fd_oracle_warps_three_times_and_shares_residuals(monkeypatch):
    # three whole-image warps per sweep (at depth and depth +- h), one value
    # evaluation per perturbation, and the photometric residuals once per
    # source per perturbation for all three norms: a return to per-pixel or
    # per-perturbation re-warps, or to per-norm residuals, fails
    case = random_audit_case(4, 5, 6)
    calls = {"_warp_sources": 0, "warp_image": 0, "_multi_values": 0,
             "photometric_residual": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(depthopt, name, counting(name, getattr(depthopt, name)))
    monkeypatch.setattr(losses, "photometric_residual",
                        counting("photometric_residual", losses.photometric_residual))
    depthopt.finite_diff_grad_multi(case.sample, case.depth, case.configs(), 3e-4)
    perturbations = 2 * 5 * 6
    n_sources = len(case.sample.sources)
    assert calls == {"_warp_sources": 3, "warp_image": 3 * n_sources,
                     "_multi_values": perturbations,
                     "photometric_residual": perturbations * n_sources}


@pytest.mark.parametrize("h", [0.0, -3e-4, np.nan, np.inf])
def test_fd_oracles_reject_a_step_that_is_not_positive_and_finite(h):
    case = random_audit_case(0, 3, 4)
    with pytest.raises(LossError, match="positive and finite"):
        depthopt.finite_diff_grad_multi(case.sample, case.depth, case.configs(), h)


def test_gt_depth_is_near_stationary_for_vanilla_norms():
    # on a clean render, the photometric loss is close to a local minimum at
    # the true depth: FD derivatives stay tiny on high-texture pixels for the
    # absolute and Euclidean norms (the square-root norm's gradient is
    # deliberately amplified at small residuals, so it is not expected here)
    scene = synth.gen_scene(synth.SceneSpec(height=24, width=30, n_views=5, seed=21))
    reg = synth.regular_sample(scene, 0, 4)
    gt = scene.views[0].gt_depth
    from mvslab.grids import forward_diff, to_grayscale
    gx, gy = forward_diff(to_grayscale(reg.reference.image))
    energy = gx * gx + gy * gy
    strong = energy > np.quantile(energy, 0.7)
    strong[:3] = strong[-3:] = False
    strong[:, :3] = strong[:, -3:] = False
    for expo in (1.0, 2.0):
        cfg = BranchLossConfig(norm=NormKind(expo), weight_photo=1.0)
        fd = finite_diff_grad(reg, gt, cfg, h=1e-3)
        assert np.median(np.abs(fd[strong])) < 1e-3, expo


def opt_scene(seed=3):
    scene = synth.gen_scene(synth.SceneSpec(height=32, width=40, n_views=6, seed=seed))
    samples = synth.build_branch_samples(scene, 0, 4, curriculum(8).occlusion_rate, 11)
    return scene, samples


def test_optimize_joint_runs_and_decreases_branch_losses():
    scene, samples = opt_scene()
    state = optimize_joint(samples, SweepConfig(),
                           OptimizerConfig(iterations=8, image_consist_weight=ICC_EPOCH_8))
    assert len(state.history) == 8
    first, last = state.history[0], state.history[-1]
    assert last["loss_reg"] <= first["loss_reg"]
    assert last["loss_ic"] <= first["loss_ic"]
    assert last["loss_sc"] <= first["loss_sc"]


def test_accepted_steps_never_increase_branch_loss(monkeypatch):
    monkeypatch.setattr(depthopt, "REFRESH_EVERY", 13)  # no refresh in 12 iterations
    scene, samples = opt_scene()
    state = optimize_joint(samples, SweepConfig(),
                           OptimizerConfig(iterations=12, image_consist_weight=ICC_EPOCH_8))
    for short in ("reg", "ic", "sc"):
        losses = [rec[f"loss_{short}"] for rec in state.history]
        accepted = [rec[f"accepted_{short}"] for rec in state.history]
        for i in range(1, len(losses)):
            if accepted[i]:
                assert losses[i] <= losses[i - 1] + 1e-9


def test_total_loss_monotone_without_cross_terms(monkeypatch):
    monkeypatch.setattr(depthopt, "REFRESH_EVERY", 11)  # no refresh in 10 iterations
    scene, samples = opt_scene()
    opt = OptimizerConfig(iterations=10, image_consist_weight=0.0,
                          weights=LossWeights(scene_consist=0.0))
    state = optimize_joint(samples, SweepConfig(), opt)
    totals = [rec["total"] for rec in state.history]
    assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))


def test_gt_initialization_is_a_fixed_point():
    # noise-free inputs: started at the truth, the bulk of the regular field
    # stays within one final interval of it (a small weak-texture tail drifts
    # to nearby spurious photometric optima)
    scene = synth.gen_scene(synth.SceneSpec(height=32, width=40, n_views=6, seed=5))
    gt = scene.views[0].gt_depth
    steps = optimize_regular(synth.regular_sample(scene, 0, 4), gt.copy(),
                             OptimizerConfig(iterations=50))
    drift = np.abs(steps[-1][0] - gt)
    interval = final_interval(scene.views[0].camera)
    assert (drift <= interval).mean() > 0.94
    assert np.median(drift) < 0.4 * interval


def test_branches_independent_when_consistency_off():
    scene, samples = opt_scene(seed=7)
    opt = OptimizerConfig(iterations=6, image_consist_weight=0.0,
                          weights=LossWeights(scene_consist=0.0))
    joint = optimize_joint(samples, SweepConfig(), opt)
    # single-branch runs: each branch's sample optimized alone as the regular one
    for name in depthopt.BRANCHES:
        solo = optimize_joint({"regular": samples[name]}, SweepConfig(), opt)
        assert np.array_equal(solo.depths["regular"], joint.depths[name]), name


def test_detach_contract_regular_branch_invariant():
    scene, samples = opt_scene(seed=9)
    with_terms = optimize_joint(samples, SweepConfig(),
                                OptimizerConfig(iterations=8,
                                                image_consist_weight=5.0))
    without = optimize_joint(samples, SweepConfig(),
                             OptimizerConfig(iterations=8,
                                             image_consist_weight=0.0,
                                             weights=LossWeights(scene_consist=0.0)))
    assert np.array_equal(with_terms.depths["regular"],
                          without.depths["regular"])


def test_divergence_aborts_naming_branch_iteration_and_loss():
    scene, samples = opt_scene(seed=3)
    bad = OptimizerConfig(iterations=3, weights=LossWeights(photo=np.nan),
                          image_consist_weight=ICC_EPOCH_8)
    with pytest.raises(OptimizationDiverged,
                       match=r"^non-finite loss nan on branch regular at iteration 0$"):
        optimize_joint(samples, SweepConfig(), bad)


def test_missing_branch_rejected():
    scene, samples = opt_scene(seed=3)
    del samples["regular"]
    with pytest.raises(SamplingError, match="regular"):
        optimize_joint(samples, SweepConfig(),
                       OptimizerConfig(iterations=1, image_consist_weight=ICC_EPOCH_8))


def test_unknown_branch_rejected():
    scene, samples = opt_scene(seed=3)
    samples["depth_contrastive"] = samples["regular"]
    with pytest.raises(SamplingError, match="depth_contrastive"):
        optimize_joint(samples, SweepConfig(),
                       OptimizerConfig(iterations=1, image_consist_weight=ICC_EPOCH_8))


def test_branch_subset_matches_full_run(monkeypatch):
    # a contrastive branch reads only the regular depth and the confidence
    # mask, so dropping the other contrastive branch changes neither depth
    monkeypatch.setattr(depthopt, "REFRESH_EVERY", 2)
    scene, samples = opt_scene()
    opt = OptimizerConfig(iterations=3, image_consist_weight=ICC_EPOCH_8)
    full = optimize_joint(samples, SweepConfig(), opt)
    subset = {name: samples[name] for name in ("regular", "scene_contrastive")}
    part = optimize_joint(subset, SweepConfig(), opt)
    assert set(part.depths) == set(subset)
    for name in subset:
        assert np.array_equal(part.depths[name], full.depths[name]), name
    assert not any(key.endswith("_ic") for key in part.history[0])
    assert [r["total"] for r in part.history] == [
        r["loss_reg"] + r["loss_sc"] for r in full.history]


def test_contrastive_arms_replay_one_regular_run(monkeypatch):
    # the regular branch reads no contrastive branch, so contrastive arms
    # stepped from one start depth against one regular run give, bit for bit,
    # what full runs give, also across a confidence refresh; an arm takes one
    # step per target whatever its iterations say
    monkeypatch.setattr(depthopt, "REFRESH_EVERY", 2)
    scene, samples = opt_scene()
    regular = optimize_joint({"regular": samples["regular"]}, SweepConfig(),
                             OptimizerConfig(iterations=3))
    starts = {name: cascade_infer(samples[name]).depth
              for name in ("image_contrastive", "scene_contrastive")}
    for weight in (0.0, 5.0):
        weights = {"image_consist_weight": weight,
                   "weights": LossWeights(scene_consist=weight)}
        full = optimize_joint(samples, SweepConfig(),
                              OptimizerConfig(iterations=3, **weights))
        for name, start in starts.items():
            depth, records = optimize_contrastive(samples[name], name, regular, start,
                                                  OptimizerConfig(**weights))
            assert len(records) == 3
            assert np.array_equal(depth, full.depths[name]), (weight, name)
            assert all(full.history[it][key] == value for it, keys in enumerate(records)
                       for key, value in keys.items()), (weight, name)
    with pytest.raises(SamplingError, match="'regular' is not a contrastive branch"):
        optimize_contrastive(samples["regular"], "regular", regular,
                             starts["image_contrastive"])


def test_optimize_regular_sweeps_nothing_and_is_the_joint_regular_pass(monkeypatch):
    monkeypatch.setattr(depthopt, "REFRESH_EVERY", 2)
    scene, samples = opt_scene()
    opt = OptimizerConfig(iterations=4)
    joint = optimize_joint({"regular": samples["regular"]}, SweepConfig(), opt)
    start = cascade_infer(samples["regular"]).depth

    def no_sweep(*args, **kwargs):
        raise AssertionError("optimize_regular swept")

    monkeypatch.setattr(depthopt, "cascade_infer", no_sweep)
    monkeypatch.setattr(depthopt, "refresh_confidence", no_sweep)
    steps = optimize_regular(samples["regular"], start, opt)
    assert len(steps) == len(joint.history) == 4
    assert np.array_equal(steps[-1][0], joint.depths["regular"])
    for (depth, keys), record, (target, _) in zip(steps, joint.history, joint.targets):
        assert np.array_equal(depth, target)
        assert all(record[key] == value for key, value in keys.items())


def test_start_depth_of_another_shape_is_a_sampling_error():
    scene, samples = opt_scene()
    small = np.full((16, 20), 600.0)
    with pytest.raises(SamplingError, match=r"\(16, 20\).*\(32, 40\)"):
        optimize_regular(samples["regular"], small)
    with pytest.raises(SamplingError, match=r"\(16, 20\).*\(32, 40\)"):
        optimize_contrastive(samples["image_contrastive"], "image_contrastive",
                             OptState({}, [], []), small)


def test_start_below_the_range_has_no_photometric_signal():
    # the descent clips to the range, but the start is evaluated unclipped
    scene, samples = opt_scene()
    assert samples["regular"].reference.camera.depth_min > 100.0
    with pytest.raises(LossError, match="no photometric signal"):
        optimize_regular(samples["regular"], np.full((32, 40), 100.0),
                         OptimizerConfig(iterations=1))


@pytest.mark.parametrize("end", ["depth_min", "depth_max"])
def test_constant_depth_at_either_end_of_the_range_is_finite(end):
    scene, samples = opt_scene()
    sample = samples["regular"]
    depth = np.full((32, 40), getattr(sample.reference.camera, end))
    cfg = depthopt._branch_cfg(OptimizerConfig(), "regular", None, None)
    total, grad, _, _ = loss_grad_wrt_depth(sample, depth, cfg)
    assert np.isfinite(total)
    assert np.isfinite(grad).all()


def test_all_black_sources_optimize_to_finite_losses():
    scene, samples = opt_scene()
    black = {name: Sample(s.reference, [CameraView(Image(np.zeros_like(v.image.data)),
                                                   v.camera, v.gt_depth, v.view_id)
                                        for v in s.sources])
             for name, s in samples.items()}
    state = optimize_joint(black, SweepConfig(),
                           OptimizerConfig(iterations=3, image_consist_weight=ICC_EPOCH_8))
    assert len(state.history) == 3
    assert all(np.isfinite(value) for record in state.history
               for key, value in record.items() if key.startswith(("loss_", "total")))


def test_textureless_scene_optimizes_to_finite_losses(uniform_scene):
    samples = synth.build_branch_samples(uniform_scene, 0, 5, curriculum(8).occlusion_rate, 11)
    state = optimize_joint(samples, SweepConfig(),
                           OptimizerConfig(iterations=3, image_consist_weight=ICC_EPOCH_8))
    assert len(state.history) == 3
    assert all(np.isfinite(value) for record in state.history
               for key, value in record.items() if key.startswith(("loss_", "total")))
    assert all(np.isfinite(depth).all() for depth in state.depths.values())


def test_branches_with_different_references_rejected():
    scene, samples = opt_scene(seed=3)
    other = synth.regular_sample(scene, 1, 4)
    samples["scene_contrastive"] = Sample(other.reference, other.sources)
    with pytest.raises(SamplingError, match="reference"):
        optimize_joint(samples, SweepConfig(),
                       OptimizerConfig(iterations=1, image_consist_weight=ICC_EPOCH_8))


def test_retained_warp_gives_the_fresh_evaluation(monkeypatch):
    # every gradient evaluation handed a kept warp must return, bit for bit,
    # what a fresh evaluation at that depth returns; only trials and each
    # branch's first gradient point warp the sources, also across a refresh
    scene = synth.gen_scene(synth.SceneSpec(height=24, width=30, n_views=6, seed=3))
    samples = synth.build_branch_samples(scene, 0, 4, curriculum(8).occlusion_rate, 11)
    evaluate, warp = depthopt._evaluate, depthopt._warp_sources
    calls = {"warps": 0, "trials": 0, "fresh": 0, "reused": 0}

    def counting_warp(*args, **kwargs):
        calls["warps"] += 1
        return warp(*args, **kwargs)

    def checked_evaluate(sample, depth, cfg, with_grad, details=None):
        if not with_grad:
            calls["trials"] += 1
        elif details is None:
            calls["fresh"] += 1
        else:
            calls["reused"] += 1
            monkeypatch.setattr(depthopt, "_warp_sources", warp)
            total, grad, _, _ = evaluate(sample, depth, cfg, True)
            monkeypatch.setattr(depthopt, "_warp_sources", counting_warp)
            got = evaluate(sample, depth, cfg, True, details)
            assert got[0] == total
            assert got[1].tobytes() == grad.tobytes()
            return got
        return evaluate(sample, depth, cfg, with_grad, details)

    monkeypatch.setattr(depthopt, "_evaluate", checked_evaluate)
    monkeypatch.setattr(depthopt, "_warp_sources", counting_warp)
    monkeypatch.setattr(depthopt, "REFRESH_EVERY", 2)
    optimize_joint(samples, SweepConfig(),
                   OptimizerConfig(iterations=3, image_consist_weight=ICC_EPOCH_8))
    assert calls["fresh"] == 3  # 3 branches, at iteration 0
    assert calls["reused"] == 6
    assert calls["trials"] > 0
    assert calls["warps"] == calls["trials"] + calls["fresh"]


def one_record_state(components: dict[str, float]) -> OptState:
    """An OptState whose one history record holds the given report components,
    keyed as optimize_joint keys them."""
    keys = {"pc": "photo_reg", "icc": "consist_ic", "scc": "consist_sc",
            "ssim": "ssim_reg", "smooth": "smooth_reg"}
    record = {keys[k]: v for k, v in components.items()}
    return OptState({}, [record], [])


def test_final_report_weighted_sum_at_epoch_zero():
    state = one_record_state({k: 1.0 for k in ("pc", "icc", "scc", "ssim", "smooth")})
    report = final_report(state, OptimizerConfig(image_consist_weight=0.01))
    assert report["total"] == pytest.approx(1.0267)


def test_final_report_zero_components():
    state = one_record_state({k: 0.0 for k in ("pc", "icc", "scc", "ssim", "smooth")})
    report = final_report(state, OptimizerConfig(image_consist_weight=0.01))
    assert report["total"] == 0.0


def test_final_report_scheduled_weight_epoch_two():
    parts = {k: 0.0 for k in ("pc", "icc", "scc", "ssim", "smooth")}
    parts["icc"] = 1.0
    report = final_report(one_record_state(parts), OptimizerConfig(image_consist_weight=0.02))
    assert report["total"] == pytest.approx(0.02)


def test_final_report_total_reconstruction():
    rng = np.random.default_rng(9)
    parts = {k: float(rng.random()) for k in ("pc", "icc", "scc", "ssim", "smooth")}
    w = LossWeights()
    report = final_report(one_record_state(parts), OptimizerConfig(image_consist_weight=0.04))
    weights = {"pc": w.photo, "icc": 0.04, "scc": w.scene_consist, "ssim": w.ssim,
               "smooth": w.smooth}
    assert list(report) == ["total"] + [f"component_{k}" for k in weights]
    recon = sum(weights[k] * report[f"component_{k}"] for k in weights)
    assert abs(report["total"] - recon) < 1e-9


def test_final_report_missing_component_errors():
    opt = OptimizerConfig(image_consist_weight=0.01)
    with pytest.raises(LossError, match="consist_ic"):
        final_report(one_record_state({"pc": 1.0}), opt)
    empty = one_record_state({})
    empty.history.clear()
    with pytest.raises(LossError, match="empty"):
        final_report(empty, opt)


def test_final_report_equals_a_fresh_evaluation_of_the_final_state(monkeypatch):
    # the report reads the last history record; it must hold what evaluating
    # the final depths afresh gives, also when the run ends on the iteration
    # right after a confidence refresh
    monkeypatch.setattr(depthopt, "REFRESH_EVERY", 10)
    scene, samples = opt_scene()
    opt = OptimizerConfig(iterations=11, image_consist_weight=ICC_EPOCH_8)
    state = optimize_joint(samples, SweepConfig(), opt)
    report = final_report(state, opt)
    _, _, parts, _ = depthopt._evaluate(samples["regular"], state.depths["regular"],
                                        depthopt._branch_cfg(opt, "regular", None, None),
                                        False)
    icc, scc = (branch_consistency(state.depths["regular"], state.depths[name],
                                   state.targets[-1][1])[0]
                for name in ("image_contrastive", "scene_contrastive"))
    assert report["component_pc"] == parts["photo"]
    assert report["component_ssim"] == parts["ssim"]
    assert report["component_smooth"] == parts["smooth"]
    assert report["component_icc"] == icc
    assert report["component_scc"] == scc
    w = opt.weights
    assert report["total"] == (w.photo * parts["photo"] + opt.image_consist_weight * icc
                               + w.scene_consist * scc + w.ssim * parts["ssim"]
                               + w.smooth * parts["smooth"])


def test_final_report_shows_consistency_at_zero_weight():
    # a branch with no pull toward the regular depth still records, and the
    # report still shows, how far it sits from it
    scene, samples = opt_scene()
    opt = OptimizerConfig(iterations=2, image_consist_weight=0.0,
                          weights=LossWeights(scene_consist=0.0))
    state = optimize_joint(samples, SweepConfig(), opt)
    report = final_report(state, opt)
    for component, name in (("icc", "image_contrastive"), ("scc", "scene_contrastive")):
        expected = branch_consistency(state.depths["regular"], state.depths[name],
                                      state.targets[-1][1])[0]
        assert report[f"component_{component}"] == expected > 0, component
