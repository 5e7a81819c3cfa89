import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvslab.grids import BinaryMask, Image, ScalarField
from mvslab.losses import (LossError, LossWeights, NormKind, branch_consistency,
                           norm_value_grad, overall_loss,
                           photometric_consistency_arrays, smoothness_loss,
                           ssim_loss_arrays)

L05 = NormKind(0.5)
L1 = NormKind(1.0)
L2 = NormKind(2.0)


def test_norm_kind_contract():
    with pytest.raises(LossError):
        NormKind(0.7)
    with pytest.raises(LossError):
        NormKind(1.0, eps_grad=0.0)


def test_norms_on_unit_vector():
    e = np.ones(4)
    v1, g1 = norm_value_grad(e, L1)
    assert v1 == pytest.approx(4.0) and np.allclose(g1, 1.0)
    v2, g2 = norm_value_grad(e, L2)
    assert v2 == pytest.approx(2.0) and np.allclose(g2, 0.5)
    v05, g05 = norm_value_grad(e, L05)
    assert v05 == pytest.approx(16.0) and np.allclose(g05, 4.0)


def test_norms_single_element_degeneracy():
    for kind in (L05, L1, L2):
        v, _ = norm_value_grad(np.array([0.37]), kind)
        assert v == pytest.approx(0.37)


def test_norms_reject_negative():
    with pytest.raises(LossError):
        norm_value_grad(np.array([0.1, -0.1]), L1)


@settings(deadline=None, max_examples=60)
@given(arrays(np.float64, st.integers(2, 12),
              elements=st.floats(1e-3, 1.0)), st.sampled_from([0.5, 1.0, 2.0]))
def test_norm_gradients_match_finite_differences(e, expo):
    kind = NormKind(expo, eps_grad=1e-8)
    _, grad = norm_value_grad(e, kind)
    h = 1e-7
    for i in range(len(e)):
        up = e.copy(); up[i] += h
        dn = e.copy(); dn[i] -= h
        fd = (norm_value_grad(up, kind)[0] - norm_value_grad(dn, kind)[0]) / (2 * h)
        assert abs(grad[i] - fd) / max(abs(fd), 1e-12) < 1e-3


def test_norm_gradient_ordering():
    # holding the other components fixed, the square-root norm's gradient
    # falls with the residual, the absolute norm's is flat, the Euclidean
    # norm's grows
    rng = np.random.default_rng(0)
    for _ in range(200):
        e = rng.uniform(1e-3, 1.0, rng.integers(2, 10))
        idx = rng.integers(len(e))
        lo, hi = e.copy(), e.copy()
        lo[idx] = 0.2
        hi[idx] = 0.8
        g_lo_05 = norm_value_grad(lo, L05)[1][idx]
        g_hi_05 = norm_value_grad(hi, L05)[1][idx]
        assert g_lo_05 > g_hi_05
        assert norm_value_grad(lo, L1)[1][idx] == norm_value_grad(hi, L1)[1][idx]
        g_lo_2 = norm_value_grad(lo, L2)[1][idx]
        g_hi_2 = norm_value_grad(hi, L2)[1][idx]
        assert g_lo_2 < g_hi_2


def full_mask(h, w):
    return BinaryMask(np.ones((h, w), dtype=bool))


def test_photometric_zero_for_identical_images():
    rng = np.random.default_rng(1)
    img = Image(rng.random((6, 7, 3)))
    res = photometric_consistency_arrays([img.data], [full_mask(6, 7).data], img.data, L1)
    assert res.value == pytest.approx(0.0)
    assert np.allclose(res.image_grads[0], 0.0)


def test_photometric_uniform_offset_l1():
    h, w = 5, 6
    ref = Image(np.full((h, w, 3), 0.4))
    delta = 0.07
    warped = Image(np.full((h, w, 3), 0.4 + delta))
    res = photometric_consistency_arrays([warped.data], [full_mask(h, w).data], ref.data, L1)
    # image term: per-pixel residual delta summed then / ||M|| = delta; the
    # gradient term vanishes for constant images
    assert res.value == pytest.approx(delta)


def test_photometric_matches_norm_composition_oracle():
    rng = np.random.default_rng(2)
    h, w = 7, 8
    ref = rng.random((h, w, 3))
    rec = rng.random((h, w, 3))
    mask = rng.random((h, w)) < 0.8
    res = photometric_consistency_arrays([rec], [mask], ref, L05)
    # independent recomputation: flatten masked per-pixel residuals by loops
    r_img, r_grad = [], []
    gx = np.zeros_like(ref); gy = np.zeros_like(ref)
    gxr = np.zeros_like(ref); gyr = np.zeros_like(ref)
    for v in range(h):
        for u in range(w):
            for c in range(3):
                if u < w - 1:
                    gx[v, u, c] = rec[v, u + 1, c] - rec[v, u, c]
                    gxr[v, u, c] = ref[v, u + 1, c] - ref[v, u, c]
                if v < h - 1:
                    gy[v, u, c] = rec[v + 1, u, c] - rec[v, u, c]
                    gyr[v, u, c] = ref[v + 1, u, c] - ref[v, u, c]
    for v in range(h):
        for u in range(w):
            if not mask[v, u]:
                continue
            r_img.append(np.abs(rec[v, u] - ref[v, u]).mean())
            r_grad.append((np.abs(gx[v, u] - gxr[v, u]).sum()
                           + np.abs(gy[v, u] - gyr[v, u]).sum()) / 6.0)
    want = (norm_value_grad(np.array(r_img), L05)[0]
            + norm_value_grad(np.array(r_grad), L05)[0]) / mask.sum()
    assert res.value == pytest.approx(want, rel=1e-12)


def test_photometric_all_masks_empty_errors():
    img = Image(np.random.default_rng(3).random((4, 4, 3)))
    empty = BinaryMask(np.zeros((4, 4), dtype=bool))
    with pytest.raises(LossError):
        photometric_consistency_arrays([img.data], [empty.data], img.data, L1)


def test_photometric_skips_empty_source_but_keeps_valid_one():
    rng = np.random.default_rng(4)
    ref = Image(rng.random((4, 4, 3)))
    rec = Image(rng.random((4, 4, 3)))
    empty = BinaryMask(np.zeros((4, 4), dtype=bool))
    res = photometric_consistency_arrays([rec.data, rec.data], [empty.data, full_mask(4, 4).data],
                                         ref.data, L1)
    assert res.skipped_sources == [0]
    assert res.value > 0


def test_ssim_identical_images_zero():
    img = Image(np.random.default_rng(5).random((8, 9, 3)))
    value, grad = ssim_loss_arrays(img.data, img.data, full_mask(8, 9).data)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_ssim_negated_structure_exceeds_midpoint():
    # anti-correlated structure drives the index toward its -1 bound, so the
    # loss crosses the 0.5 midpoint toward its upper bound of 1
    rng = np.random.default_rng(6)
    x = 0.5 + 0.45 * np.sign(rng.standard_normal((12, 12, 1)))
    y = np.clip(2 * 0.5 - x, 0, 1)
    value, _ = ssim_loss_arrays(Image(x).data, Image(y).data, full_mask(12, 12).data)
    assert 0.5 < value <= 1.0
    assert value > 0.8


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_ssim_within_unit_interval(seed):
    rng = np.random.default_rng(seed)
    x = Image(rng.random((6, 6, 3)))
    y = Image(rng.random((6, 6, 3)))
    value, _ = ssim_loss_arrays(x.data, y.data, full_mask(6, 6).data)
    assert 0.0 <= value <= 1.0


def test_ssim_empty_mask_errors():
    img = Image(np.zeros((4, 4, 3)))
    with pytest.raises(LossError):
        ssim_loss_arrays(img.data, img.data, np.zeros((4, 4), dtype=bool))


def test_smoothness_constant_depth_zero():
    img = Image(np.random.default_rng(7).random((5, 6, 3)))
    value, grad = smoothness_loss(ScalarField(np.full((5, 6), 500.0)), img)
    assert value == pytest.approx(0.0)
    assert np.allclose(grad, 0.0)


def test_smoothness_edge_aware_weighting():
    h, w = 6, 8
    # a depth step in the middle column
    depth = np.full((h, w), 500.0)
    depth[:, w // 2:] = 520.0
    flat_img = Image(np.full((h, w, 3), 0.5))
    edge_img_data = np.full((h, w, 3), 0.1)
    edge_img_data[:, w // 2:] = 0.9  # strong image edge at the step
    v_flat, _ = smoothness_loss(ScalarField(depth), flat_img)
    v_edge, _ = smoothness_loss(ScalarField(depth), Image(edge_img_data))
    assert v_flat > v_edge


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 31 - 1))
def test_smoothness_finite_nonnegative(seed):
    rng = np.random.default_rng(seed)
    depth = ScalarField(400.0 + 100.0 * rng.random((5, 5)))
    img = Image(rng.random((5, 5, 3)))
    value, grad = smoothness_loss(depth, img)
    assert np.isfinite(value) and value >= 0.0
    assert np.all(np.isfinite(grad))


def test_smoothness_nonpositive_mean_errors():
    img = Image(np.zeros((3, 3, 3)))
    with pytest.raises(LossError):
        smoothness_loss(ScalarField(np.full((3, 3), -1.0)), img)


def test_branch_consistency_identical_zero():
    d = ScalarField(np.full((4, 4), 600.0))
    res = branch_consistency(d, d, BinaryMask(np.ones((4, 4), dtype=bool)))
    assert res.value == pytest.approx(0.0)
    assert not res.empty_mask


def test_branch_consistency_uniform_offset():
    d = ScalarField(np.full((4, 4), 600.0))
    shifted = ScalarField(d.data + 7.5)
    res = branch_consistency(d, shifted, BinaryMask(np.ones((4, 4), dtype=bool)))
    assert res.value == pytest.approx(7.5)
    assert np.allclose(res.grad_branch, 1.0 / 16.0)


def test_branch_consistency_half_mask():
    h, w = 4, 6
    target = ScalarField(np.full((h, w), 600.0))
    branch = target.data.copy()
    mask = np.zeros((h, w), dtype=bool)
    mask[:, :w // 2] = True
    branch[:, :w // 2] += 3.0  # offset only on the masked half
    res = branch_consistency(target, ScalarField(branch), BinaryMask(mask))
    assert res.value == pytest.approx(3.0)


def test_branch_consistency_empty_mask_flagged():
    d = ScalarField(np.full((3, 3), 500.0))
    res = branch_consistency(d, d, BinaryMask(np.zeros((3, 3), dtype=bool)))
    assert res.empty_mask
    assert res.value == 0.0


def test_branch_consistency_symmetric_gradients():
    rng = np.random.default_rng(8)
    target = ScalarField(500.0 + rng.random((4, 4)))
    branch = ScalarField(500.0 + rng.random((4, 4)))
    mask = BinaryMask(np.ones((4, 4), dtype=bool))
    res = branch_consistency(target, branch, mask, symmetric=True)
    assert res.grad_target is not None
    assert np.allclose(res.grad_target, -res.grad_branch)


def test_overall_loss_weighted_sum_at_epoch_zero():
    parts = {k: 1.0 for k in ("pc", "icc", "scc", "ssim", "smooth")}
    report = overall_loss(parts, LossWeights(), image_consist_weight=0.01)
    assert report.total == pytest.approx(1.0267)


def test_overall_loss_zero_components():
    parts = {k: 0.0 for k in ("pc", "icc", "scc", "ssim", "smooth")}
    report = overall_loss(parts, LossWeights(), image_consist_weight=0.01)
    assert report.total == 0.0


def test_overall_loss_scheduled_weight_epoch_two():
    parts = {k: 1.0 for k in ("pc", "icc", "scc", "ssim", "smooth")}
    report = overall_loss(parts, LossWeights(), image_consist_weight=0.02)
    assert report.weights["icc"] * parts["icc"] == pytest.approx(0.02)


def test_overall_loss_total_reconstruction():
    rng = np.random.default_rng(9)
    parts = {k: float(rng.random()) for k in ("pc", "icc", "scc", "ssim", "smooth")}
    report = overall_loss(parts, LossWeights(), image_consist_weight=0.04)
    recon = sum(report.weights[k] * report.components[k] for k in report.components)
    assert abs(report.total - recon) < 1e-9


def test_overall_loss_missing_component_errors():
    with pytest.raises(LossError):
        overall_loss({"pc": 1.0}, LossWeights(), image_consist_weight=0.01)
