import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvslab.depthopt import _warp_sources
from mvslab.geometry import (Camera, CameraView, GeometryError, backproject,
                             bilinear_cells, nearest_pixel, pixel_grid, project_rays,
                             project_with_depth, ray_jacobian, warp_image, warp_rays)
from mvslab.grids import Image
from mvslab.sampling import Sample
from conftest import assert_same_bytes, signed_values


def simple_camera(k=None, pose=None):
    if k is None:
        k = np.eye(3)
    if pose is None:
        pose = np.eye(4)
    return Camera(k, pose, 100.0, 1000.0)


def warp_one(src: CameraView, depth: np.ndarray, ref_cam: Camera):
    """(warped image, mask) of one source warped into the reference camera by
    the optimizer's warp; the reference image itself is not read."""
    ref = CameraView(Image(np.zeros(depth.shape + (3,))), ref_cam)
    details = _warp_sources(Sample(ref, [src]), depth)
    return details.warped[0], details.masks[0]


def warp_jacobian(p, d, ref: Camera, src: Camera):
    """(d(uv')/dd, valid) of pixel p at depth d, composed the way the
    optimizer's chain is: warp_rays -> project_rays -> ray_jacobian."""
    a, c = warp_rays(p, ref, src)
    _, z, valid = project_rays(a, c, np.asarray(d, dtype=np.float64))
    return ray_jacobian(a, c, z), valid


def rotation(rx, ry, rz):
    cx, cy, cz = np.cos((rx, ry, rz))
    sx, sy, sz = np.sin((rx, ry, rz))
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mz @ my @ mx


def test_camera_validation():
    with pytest.raises(GeometryError):
        simple_camera(k=np.array([[1.0, 0, 0], [0.5, 1, 0], [0, 0, 1]]))
    with pytest.raises(GeometryError):
        simple_camera(k=-np.eye(3))
    bad_pose = np.eye(4)
    bad_pose[:3, :3] *= 1.01
    with pytest.raises(GeometryError):
        simple_camera(pose=bad_pose)
    with pytest.raises(GeometryError):
        Camera(np.eye(3), np.eye(4), 500.0, 400.0)


def test_project_identity_pose_is_identity():
    cam = simple_camera(k=np.array([[50.0, 0, 16], [0, 50.0, 12], [0, 0, 1]]))
    p = np.array([3.0, 7.0])
    uv, z, valid = project_with_depth(p, 250.0, cam, cam)
    assert np.allclose(uv, p)
    assert z == pytest.approx(250.0)
    assert valid


def test_project_pure_translation_shift():
    ref = simple_camera()
    pose = np.eye(4)
    delta = 4.0
    pose[0, 3] = delta  # world-to-camera: shifts the camera by -delta in x
    src = Camera(np.eye(3), pose, 100.0, 1000.0)
    d = 200.0
    uv, z, valid = project_with_depth(np.array([2.0, 5.0]), d, ref, src)
    assert uv[0] == pytest.approx(2.0 + delta / d)
    assert uv[1] == pytest.approx(5.0)


def test_project_matches_homogeneous_chain_oracle():
    rng = np.random.default_rng(4)
    k = np.array([[80.0, 0.0, 20.0], [0.0, 75.0, 15.0], [0.0, 0.0, 1.0]])
    for _ in range(25):
        ref_pose = np.eye(4)
        ref_pose[:3, :3] = rotation(*rng.uniform(-0.3, 0.3, 3))
        ref_pose[:3, 3] = rng.uniform(-50, 50, 3)
        src_pose = np.eye(4)
        src_pose[:3, :3] = rotation(*rng.uniform(-0.3, 0.3, 3))
        src_pose[:3, 3] = rng.uniform(-50, 50, 3)
        ref = Camera(k, ref_pose, 100.0, 1000.0)
        src = Camera(k, src_pose, 100.0, 1000.0)
        p = rng.uniform(0, 40, 2)
        d = rng.uniform(300, 800)
        uv, z, valid = project_with_depth(p, d, ref, src)
        # independent oracle: explicit 4x4 homogeneous matrix chain
        x_cam = d * np.linalg.inv(k) @ np.array([p[0], p[1], 1.0])
        x_world = np.linalg.inv(ref_pose) @ np.array([*x_cam, 1.0])
        x_src = src_pose @ x_world
        q = k @ x_src[:3]
        assert valid == (x_src[2] > 1e-3)
        if valid:
            assert np.allclose(uv, q[:2] / q[2], atol=1e-9)
            assert z == pytest.approx(x_src[2])


def test_bilinear_sample_at_lattice_points():
    rng = np.random.default_rng(5)
    img = Image(rng.random((4, 5, 3)))
    cells = bilinear_cells(img.data, np.array([3.0, 2.0]))
    assert cells.inb[0]
    assert np.allclose(cells.value()[0], img.data[2, 3])


def test_bilinear_sample_center_of_2x2():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None]
    cells = bilinear_cells(img, np.array([0.5, 0.5]))
    assert cells.inb[0] and cells.value()[0, 0] == pytest.approx(1.5)


def test_bilinear_sample_out_of_bounds():
    # a cell flags its out-of-bounds point; warp_image masks that sample to 0
    img = np.ones((3, 3, 1))
    cells = bilinear_cells(img, np.array([-1.0, -1.0]))
    assert not cells.inb[0]
    cam = simple_camera(np.array([[3.0, 0.0, 1.0], [0.0, 3.0, 1.0], [0.0, 0.0, 1.0]]))
    a, c = warp_rays(np.array([[[-1.0, -1.0], [1.0, 1.0], [2.0, 3.5]]]), cam, cam)
    warped, mask, _, cells = warp_image(a, c, img, np.full((1, 3), 500.0))
    assert mask.tolist() == [[False, True, False]]
    assert np.array_equal(cells.inb, mask.ravel())
    assert warped[0, 0, 0] == 0.0 and warped[0, 2, 0] == 0.0
    assert warped[0, 1, 0] == pytest.approx(1.0)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_bilinear_sample_is_convex_combination(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((5, 6))
    uv = rng.uniform([0, 0], [5.0, 4.0], size=2)
    cells = bilinear_cells(img[:, :, None], uv)
    assert cells.inb[0]
    val = cells.value()[0, 0]
    u0, v0 = int(uv[0]), int(uv[1])
    patch = img[v0:v0 + 2, u0:u0 + 2]
    assert patch.min() - 1e-12 <= val <= patch.max() + 1e-12


def test_warp_identity_pose_reproduces_image():
    rng = np.random.default_rng(6)
    k = np.array([[30.0, 0, 7.0], [0, 30.0, 5.0], [0, 0, 1]])
    cam = Camera(k, np.eye(4), 100.0, 1000.0)
    img = Image(rng.random((11, 15, 3)))
    view = CameraView(img, cam)
    depth = np.full((11, 15), 400.0)
    warped, mask = warp_one(view, depth, cam)
    assert np.all(mask)
    assert np.allclose(warped, img.data, atol=1e-12)


def test_warp_translation_masks_out_of_frustum():
    k = np.array([[20.0, 0, 7.0], [0, 20.0, 5.0], [0, 0, 1]])
    ref = Camera(k, np.eye(4), 100.0, 1000.0)
    pose = np.eye(4)
    pose[0, 3] = -200.0  # shifts projections far in -u for nearby depths
    src = Camera(k, pose, 100.0, 1000.0)
    img = Image(np.random.default_rng(7).random((11, 15, 3)))
    depth = np.full((11, 15), 150.0)
    warped, mask = warp_one(CameraView(img, src), depth, ref)
    # p' = p - 200*20/150 = p - 26.7: every pixel leaves the 15-wide image
    assert not mask.any()
    assert np.all(warped == 0)


def test_warp_half_frustum_mask_matches_bounds():
    k = np.array([[20.0, 0, 7.0], [0, 20.0, 5.0], [0, 0, 1]])
    ref = Camera(k, np.eye(4), 100.0, 1000.0)
    pose = np.eye(4)
    pose[0, 3] = -75.0  # shifts projections by -10 px at depth 150
    src = Camera(k, pose, 100.0, 1000.0)
    img = Image(np.random.default_rng(12).random((11, 15, 3)))
    depth = np.full((11, 15), 150.0)
    warped, mask = warp_one(CameraView(img, src), depth, ref)
    # u' = u - 10: exactly the columns with u >= 10 stay in bounds
    expect = np.zeros((11, 15), dtype=bool)
    expect[:, 10:] = True
    assert np.array_equal(mask, expect)
    assert np.all(warped[~expect] == 0)


def test_warp_round_trip_on_rendered_plane(checker_scene):
    ref = checker_scene.views[0]
    src = checker_scene.views[1]
    warped, m = warp_one(src, ref.gt_depth, ref.camera)
    diff = np.abs(warped - ref.image.data).max(axis=2)
    assert m.mean() > 0.6
    assert diff[m].max() < 2.0 / 255.0


def test_jacobian_identity_pose_is_zero():
    cam = simple_camera()
    jac, valid = warp_jacobian(np.array([3.0, 4.0]), 300.0, cam, cam)
    assert valid
    assert np.allclose(jac, 0.0)


def test_jacobian_pure_translation_analytic():
    ref = simple_camera()
    pose = np.eye(4)
    delta = 6.0
    pose[0, 3] = delta
    src = Camera(np.eye(3), pose, 100.0, 1000.0)
    d = 250.0
    jac, valid = warp_jacobian(np.array([2.0, 3.0]), d, ref, src)
    assert valid
    assert jac[0] == pytest.approx(-delta / d ** 2)
    assert jac[1] == pytest.approx(0.0)


def test_jacobian_matches_finite_differences():
    # central differences of a perspective division carry a truncation error
    # of about (h/d)^2, so h = 2e-3 * d keeps it far below the 1e-4 tolerance
    rng = np.random.default_rng(8)
    k = np.array([[60.0, 0, 20.0], [0, 55.0, 16.0], [0, 0, 1]])
    for _ in range(40):
        pose = np.eye(4)
        pose[:3, :3] = rotation(*rng.uniform(-0.2, 0.2, 3))
        pose[:3, 3] = rng.uniform(-40, 40, 3)
        ref = Camera(k, np.eye(4), 100.0, 1000.0)
        src = Camera(k, pose, 100.0, 1000.0)
        p = rng.uniform(5, 35, 2)
        d = rng.uniform(300, 800)
        jac, valid = warp_jacobian(p, d, ref, src)
        assert valid
        h = 2e-3 * d
        up, _, _ = project_with_depth(p, d + h, ref, src)
        dn, _, _ = project_with_depth(p, d - h, ref, src)
        fd = (up - dn) / (2 * h)
        assert np.abs(jac - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-4


def test_jacobian_zero_behind_camera():
    ref = simple_camera()
    pose = np.eye(4)
    pose[2, 3] = -500.0
    src = Camera(np.eye(3), pose, 100.0, 1000.0)
    jac, valid = warp_jacobian(np.array([0.0, 0.0]), 100.0, ref, src)
    assert not valid
    assert np.all(jac == 0.0)


def test_warp_composition_round_trip():
    # project ref -> src, then src -> ref with the src-frame depth of the
    # same 3D point; must land back at the start
    rng = np.random.default_rng(9)
    k = np.array([[70.0, 0, 24.0], [0, 70.0, 18.0], [0, 0, 1]])
    pose = np.eye(4)
    pose[:3, :3] = rotation(0.1, -0.15, 0.05)
    pose[:3, 3] = (30.0, -20.0, 10.0)
    ref = Camera(k, np.eye(4), 100.0, 1000.0)
    src = Camera(k, pose, 100.0, 1000.0)
    for _ in range(10):
        p = rng.uniform(5, 40, 2)
        d = rng.uniform(300, 800)
        uv, z, valid = project_with_depth(p, d, ref, src)
        assert valid
        back, z2, valid2 = project_with_depth(uv, z, src, ref)
        assert valid2
        assert np.abs(back - p).max() < 1e-6


def test_bilinear_sample_grad_matches_fd():
    rng = np.random.default_rng(10)
    img = rng.random((8, 9, 3))
    for _ in range(20):
        uv = rng.uniform([0.6, 0.6], [7.4, 6.4], 2)
        gu, gv = bilinear_cells(img, uv).grad()
        g = np.stack([gu[0], gv[0]], axis=-1)
        eps = 1e-6
        for axis in range(2):
            up = uv.copy(); up[axis] += eps
            dn = uv.copy(); dn[axis] -= eps
            vu = bilinear_cells(img, up).value()[0]
            vd = bilinear_cells(img, dn).value()[0]
            fd = (vu - vd) / (2 * eps)
            assert np.allclose(g[:, axis], fd, atol=1e-6)


def _slow_bilinear(img, u, v):
    """One point, the interpolation formulas written out on Python floats:
    (value, d/du, d/dv) per channel, and whether the point is in bounds."""
    h, w, c = img.shape
    inb = 0.0 <= u <= w - 1.0 and 0.0 <= v <= h - 1.0
    uc, vc = min(max(u, 0.0), w - 1.0), min(max(v, 0.0), h - 1.0)
    u0, v0 = min(int(math.floor(uc)), max(w - 2, 0)), min(int(math.floor(vc)), max(h - 2, 0))
    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
    fu, fv = uc - u0, vc - v0
    out = np.zeros((3, c))
    for ch in range(c):
        f00, f01 = float(img[v0, u0, ch]), float(img[v0, u1, ch])
        f10, f11 = float(img[v1, u0, ch]), float(img[v1, u1, ch])
        top = f00 * (1.0 - fu) + f01 * fu
        bot = f10 * (1.0 - fu) + f11 * fu
        out[:, ch] = (top * (1.0 - fv) + bot * fv,
                      (1.0 - fv) * (f01 - f00) + fv * (f11 - f10),
                      (1.0 - fu) * (f10 - f00) + fu * (f11 - f01))
    return out, inb


def _assert_cells_equal_slow_reference(img, uv):
    # the values out of bounds are the callers' to mask (warp_image does)
    cells = bilinear_cells(img, uv)
    slow, inb = zip(*(_slow_bilinear(img, u, v) for u, v in uv.reshape(-1, 2)))
    slow, inb = np.array(slow), np.array(inb)
    assert np.array_equal(cells.inb, inb)
    gu, gv = cells.grad()
    for fast, k in ((cells.value(), 0), (gu, 1), (gv, 2)):
        assert_same_bytes(fast[inb], slow[inb, k])


@pytest.mark.parametrize("shape", [(7, 9, 3), (1, 5, 3), (6, 1, 1)])
def test_bilinear_cells_equal_slow_reference_exactly(shape):
    # random interior points, the last row and column exactly, and points
    # outside the image on every side
    rng = np.random.default_rng(12)
    h, w, _ = shape
    img = signed_values(rng, shape)
    pts = [rng.uniform([0.0, 0.0], [w - 1.0, h - 1.0], (40, 2)),
           np.stack([np.full(h, w - 1.0), np.arange(h, dtype=float)], axis=-1),
           np.stack([rng.uniform(0, w - 1.0, 5), np.full(5, h - 1.0)], axis=-1),
           np.array([[w - 1.0, h - 1.0], [-1e-9, 0.0], [0.0, -0.5], [w - 1.0 + 1e-9, 0.0],
                     [0.0, h + 3.0], [-7.0, -7.0]])]
    uv = np.concatenate(pts)[None]
    cells = bilinear_cells(img, uv)
    # the leading axes of uv do not change what is sampled
    flat = bilinear_cells(img, uv.reshape(-1, 2))
    assert_same_bytes(flat.value(), cells.value())
    assert np.array_equal(flat.inb, cells.inb)
    assert not cells.inb.all() and cells.inb.any()
    _assert_cells_equal_slow_reference(img, uv)


@st.composite
def _cell_case(draw):
    """An image of 1 to 6 rows and columns (a single row or column has no
    neighbour to blend with), and points inside it, exactly on its pixel
    grid and border, and outside it."""
    h, w, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    img = signed_values(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), (h, w, c))

    def coord(n):
        return st.one_of(st.floats(-1.5, n + 0.5),
                         st.integers(-1, n).map(float),
                         st.sampled_from([n - 1.0, -1e-9, n - 1.0 + 1e-9]))

    uv = draw(st.lists(st.tuples(coord(w), coord(h)), min_size=1, max_size=12))
    return img, np.array(uv)


@settings(deadline=None, max_examples=200)
@given(_cell_case())
def test_bilinear_cells_equal_slow_reference_on_any_shape(case):
    _assert_cells_equal_slow_reference(*case)


def test_warp_image_of_a_depth_stack_equals_each_plane():
    # the plane sweep warps its (D, h, w) hypothesis planes in one call
    rng = np.random.default_rng(21)
    h, w = 16, 20
    k = np.array([[30.0, 0.0, 9.5], [0.0, 30.0, 7.5], [0.0, 0.0, 1.0]])
    pose = np.eye(4)
    pose[:3, :3] = rotation(0.02, -0.03, 0.01)
    pose[:3, 3] = [25.0, -10.0, 5.0]
    a, c = warp_rays(pixel_grid(h, w), simple_camera(k), simple_camera(k, pose))
    image = signed_values(rng, (h, w, 3))  # masked-out negatives give -0.0
    depths = rng.uniform(50.0, 900.0, (5, h, w))
    depths[1, 3, 4] = 0.0
    depths[2, 5, 6] = -3.0
    warped, mask = warp_image(a, c, image, depths)[:2]
    assert warped.shape == (5, h, w, 3) and mask.shape == (5, h, w)
    assert mask.any() and not mask.all()
    assert not mask[1, 3, 4] and not mask[2, 5, 6]
    for i, plane in enumerate(depths):
        plane_warped, plane_mask = warp_image(a, c, image, plane)[:2]
        assert_same_bytes(warped[i], plane_warped)
        assert np.array_equal(mask[i], plane_mask)


def test_nearest_pixel_rounds_and_clips():
    uv = np.array([[0.4, 0.6], [-0.6, 1.0], [4.49, 1.51], [4.5, 0.0], [2.0, -3.0]])
    u, v, inside = nearest_pixel(uv, 3, 5)
    assert u.tolist() == [0, 0, 4, 4, 2]
    assert v.tolist() == [1, 1, 2, 0, 0]
    assert inside.tolist() == [True, False, True, True, False]


def test_ray_projection_matches_explicit_reprojection():
    # backproject with the reference camera, move into the source frame with
    # its pose, apply its intrinsics and divide: the ray form must agree
    rng = np.random.default_rng(13)
    for _ in range(10):
        k_ref = np.array([[rng.uniform(40, 90), 0, 20.0], [0, rng.uniform(40, 90), 15.0],
                          [0, 0, 1]])
        k_src = np.array([[rng.uniform(40, 90), 0.3, 22.0], [0, rng.uniform(40, 90), 14.0],
                          [0, 0, 1]])
        poses = []
        for _ in range(2):
            pose = np.eye(4)
            pose[:3, :3] = rotation(*rng.uniform(-0.2, 0.2, 3))
            pose[:3, 3] = rng.uniform(-40, 40, 3)
            poses.append(pose)
        ref = Camera(k_ref, poses[0], 100.0, 1000.0)
        src = Camera(k_src, poses[1], 100.0, 1000.0)
        grid = pixel_grid(6, 8)
        depth = rng.uniform(300, 800, (6, 8))
        a, c = warp_rays(grid, ref, src)
        uv, z, valid = project_rays(a, c, depth)
        x_src = backproject(ref, grid, depth) @ src.pose[:3, :3].T + src.pose[:3, 3]
        q = x_src @ src.k.T
        assert valid.all()
        assert np.abs(z - x_src[..., 2]).max() < 1e-12 * np.abs(z).max()
        assert np.abs(uv - q[..., :2] / q[..., 2:]).max() < 1e-12 * np.abs(uv).max()
        assert np.array_equal(project_with_depth(grid, depth, ref, src)[0], uv)


def test_backproject_pinhole_identity():
    cam = simple_camera()
    pts = backproject(cam, np.array([3.0, 4.0]), np.array(7.0))
    assert np.allclose(pts, (21.0, 28.0, 7.0))


def test_backproject_inverts_projection():
    rng = np.random.default_rng(11)
    k = np.array([[50.0, 0, 10.0], [0, 50.0, 8.0], [0, 0, 1]])
    pose = np.eye(4)
    pose[:3, :3] = rotation(0.2, 0.1, -0.3)
    pose[:3, 3] = (5.0, -8.0, 12.0)
    cam = Camera(k, pose, 100.0, 1000.0)
    grid = pixel_grid(6, 7)
    depths = rng.uniform(200, 600, (6, 7))
    world = backproject(cam, grid, depths)
    # re-project with the same camera as source: identity overall
    uv, z, valid = project_with_depth(grid, depths, cam, cam)
    assert np.allclose(uv, grid)
    x_cam = (world @ cam.pose[:3, :3].T) + cam.pose[:3, 3]
    assert np.allclose(x_cam[..., 2], depths)


def test_principal_point_outside_image_rejected():
    k = np.array([[30.0, 0, 100.0], [0, 30.0, 5.0], [0, 0, 1]])
    cam = Camera(k, np.eye(4), 100.0, 1000.0)
    with pytest.raises(GeometryError):
        CameraView(Image(np.zeros((10, 12, 3))), cam)
