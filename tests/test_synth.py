import json
import re
import shutil

import numpy as np
import pytest

from mvslab import claims, synth
from mvslab.fileio import FileFormatError
from mvslab.sampling import SamplingError
from mvslab.geometry import bilinear_cells, pixel_grid, project_with_depth, backproject
from mvslab.synth import SceneError, SceneSpec, gen_scene


def test_spec_validation():
    with pytest.raises(SceneError):
        SceneSpec(geometry="torus")
    with pytest.raises(SceneError):
        SceneSpec(texture="stripes")
    with pytest.raises(SceneError):
        SceneSpec(n_views=1)
    with pytest.raises(SceneError):
        SceneSpec(specular_strength=1.5)
    with pytest.raises(SceneError, match="seed"):
        SceneSpec(seed=-1)


def test_uniform_plane_near_constant_images():
    scene = gen_scene(SceneSpec(texture="uniform", height=24, width=30, seed=1))
    for view in scene.views:
        data = view.image.data
        # Lambertian shading of a constant-albedo plane varies only with the
        # (constant) normal, so each view is a flat image
        assert data.std() < 1e-6


def test_gt_depth_points_lie_on_surface():
    for geometry in ("textured_plane", "cube", "sphere"):
        scene = gen_scene(SceneSpec(geometry=geometry, height=24, width=30, seed=2))
        view = scene.views[0]
        grid = pixel_grid(24, 30)
        pts = backproject(view.camera, grid, view.gt_depth)
        half = synth._CUBE_HALF
        on_plane = np.abs(pts[..., 2]) < 1e-6
        if geometry == "textured_plane":
            assert np.all(on_plane)
        elif geometry == "cube":
            center = np.array([0.0, 0.0, half])
            q = np.abs(pts - center) - half
            on_cube = np.abs(np.max(q, axis=-1)) < 1e-6
            assert np.all(on_plane | on_cube)
        else:
            center = np.array([0.0, 0.0, synth._SPHERE_RADIUS])
            on_sphere = np.abs(np.linalg.norm(pts - center, axis=-1)
                               - synth._SPHERE_RADIUS) < 1e-6
            assert np.all(on_plane | on_sphere)


def test_lambertian_view_invariance(monkeypatch):
    monkeypatch.setattr(synth, "_NOISE_SCALE_MM", 160.0)
    scene = gen_scene(SceneSpec(texture="noise", height=32, width=40, seed=3))
    ref, other = scene.views[0], scene.views[2]
    grid = pixel_grid(32, 40)
    uv, _, front = project_with_depth(grid, ref.gt_depth, ref.camera, other.camera)
    cells = bilinear_cells(other.image.data, uv)
    val = cells.value().reshape(uv.shape[:-1] + (3,))
    m = cells.inb.reshape(uv.shape[:-1]) & front
    m[:3] = m[-3:] = False
    m[:, :3] = m[:, -3:] = False
    diff = np.abs(val - ref.image.data).max(axis=2)
    assert np.median(diff[m]) < 2.0 / 255.0


def test_specular_breaks_view_invariance():
    base = dict(texture="uniform", height=32, width=40, seed=3)
    flat = gen_scene(SceneSpec(**base))
    shiny = gen_scene(SceneSpec(specular_strength=0.6, **base))

    def cross_view_residual(scene):
        ref, other = scene.views[0], scene.views[2]
        grid = pixel_grid(32, 40)
        uv, _, front = project_with_depth(grid, ref.gt_depth, ref.camera,
                                          other.camera)
        cells = bilinear_cells(other.image.data, uv)
        val = cells.value().reshape(uv.shape[:-1] + (3,))
        m = cells.inb.reshape(uv.shape[:-1]) & front
        return np.abs(val - ref.image.data).max(axis=2)[m].mean()

    assert cross_view_residual(shiny) > 10 * cross_view_residual(flat)


def test_scene_determinism():
    a = gen_scene(SceneSpec(height=24, width=30, seed=11))
    b = gen_scene(SceneSpec(height=24, width=30, seed=11))
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va.image.data, vb.image.data)
        assert np.array_equal(va.gt_depth, vb.gt_depth)
        assert np.array_equal(va.camera.pose, vb.camera.pose)
    assert a.pair_scores == b.pair_scores


def test_pair_scores_rank_nearby_views_higher():
    scene = gen_scene(SceneSpec(n_views=8, height=24, width=30, seed=4))
    scores = dict(scene.pair_scores[0])
    # on a ring, the azimuthal neighbors (1 and 7) overlap more than the
    # opposite view (4)
    assert scores[1] > scores[4]
    assert scores[7] > scores[4]


def test_occluder_corrupts_one_view_only():
    spec = SceneSpec(geometry="plane_with_occluder", height=32, width=40,
                     n_views=6, seed=6)
    scene = gen_scene(spec)
    assert scene.occluder is not None
    corrupted, footprint = scene.occluder
    assert footprint.shape == (32, 40) and footprint.dtype == bool
    assert footprint.any()
    # every other view is the occluder-free render
    for view in scene.views:
        if view.view_id != corrupted:
            clean, _, _ = synth.render_view(spec, view.camera, include_occluder=False)
            assert np.array_equal(view.image.data, clean.data)
    # ground truth is the clean plane: every GT point lies on z=0
    view = scene.views[corrupted]
    pts = backproject(view.camera, pixel_grid(32, 40), view.gt_depth)
    assert np.all(np.abs(pts[..., 2]) < 1e-6)
    # the image differs from an occluder-free render exactly on the footprint
    clean, _, _ = synth.render_view(spec, view.camera, include_occluder=False)
    diff = np.abs(view.image.data - clean.data).max(axis=2)
    assert diff[footprint].mean() > 0.05
    from scipy.ndimage import binary_dilation
    fat = binary_dilation(footprint, iterations=2)  # anti-aliased border pixels
    assert np.all(diff[~fat] < 1e-12)


def test_occlusion_affected_mask_nonempty():
    scene = gen_scene(SceneSpec(geometry="plane_with_occluder", height=32, width=40,
                                n_views=6, seed=6))
    ref, (corrupted, footprint) = scene.views[0], scene.occluder
    aff = claims.affected_mask(ref, [scene.views[corrupted]], [footprint])
    assert aff.any()
    assert corrupted != 0
    none = claims.affected_mask(ref, [ref], [np.zeros((32, 40), dtype=bool)])
    assert not none.any()


def test_depth_range_violation_raises(monkeypatch):
    monkeypatch.setattr(synth, "_RING_RADIUS_MM", 470.0)
    with pytest.raises(SceneError):
        gen_scene(SceneSpec(height=24, width=30, seed=1))


def test_save_load_round_trip(tmp_path):
    scene = gen_scene(SceneSpec(geometry="plane_with_occluder", height=24,
                                width=30, n_views=4, seed=8))
    synth.save_scene(scene, tmp_path / "scene")
    loaded = synth.load_scene(tmp_path / "scene")
    assert loaded.spec == scene.spec
    for va, vb in zip(scene.views, loaded.views):
        assert np.array_equal(va.image.data, vb.image.data)
        assert np.allclose(va.gt_depth, vb.gt_depth, atol=1e-4)
        assert np.array_equal(va.camera.pose, vb.camera.pose)


def _edit_meta(change):
    def edit(root):
        path = root / "scene.json"
        meta = json.loads(path.read_text())
        change(meta)
        path.write_text(json.dumps(meta))
    return edit


BAD_SCENES = {
    "unknown_spec_key": _edit_meta(lambda m: m["spec"].update(bogus=1)),
    "spec_not_a_table": _edit_meta(lambda m: m.update(spec=[1])),
    "not_json": lambda root: (root / "scene.json").write_text("{not json"),
    "unknown_geometry": _edit_meta(lambda m: m["spec"].update(geometry="torus")),
    "image_3x3": lambda root: np.save(root / "images" / "00000000.npy",
                                      np.zeros((3, 3, 3))),
    "garbage_npy": lambda root: (root / "images" / "00000001.npy").write_bytes(b"garbage"),
    "empty_npy": lambda root: (root / "images" / "00000001.npy").write_bytes(b""),
    "grayscale_view": lambda root: np.save(root / "images" / "00000002.npy",
                                           np.full((24, 30), 0.5)),
    "one_channel_view": lambda root: np.save(root / "images" / "00000002.npy",
                                             np.full((24, 30, 1), 0.5)),
    "missing_cam": lambda root: (root / "cams" / "00000002_cam.txt").unlink(),
}


@pytest.fixture(scope="module")
def saved_scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved") / "scene"
    synth.save_scene(gen_scene(SceneSpec(height=24, width=30, n_views=3, seed=2)), root)
    return root


@pytest.mark.parametrize("bad", sorted(BAD_SCENES))
def test_load_scene_raises_file_format_error(saved_scene, tmp_path, bad):
    root = tmp_path / "scene"
    shutil.copytree(saved_scene, root)
    BAD_SCENES[bad](root)
    with pytest.raises(FileFormatError, match=re.escape(str(root))):
        synth.load_scene(root)


def test_build_branch_samples_structure(checker_scene):
    samples = synth.build_branch_samples(checker_scene, 0, 5, 0.05, 3)
    assert set(samples) == {"regular", "image_contrastive", "scene_contrastive"}
    reg = samples["regular"]
    assert len(reg.sources) == 4
    assert samples["image_contrastive"].source_ids() == reg.source_ids()
    assert samples["scene_contrastive"].reference is reg.reference
    assert 0 not in samples["scene_contrastive"].source_ids()


@pytest.mark.parametrize("ref_id", [99, -1])
def test_unknown_reference_view_rejected(checker_scene, ref_id):
    ids = str([v.view_id for v in checker_scene.views])
    for build in (lambda: synth.regular_sample(checker_scene, ref_id, 5),
                  lambda: synth.build_branch_samples(checker_scene, ref_id, 5, 0.05, 3)):
        with pytest.raises(SamplingError, match=rf"view {ref_id} .*{re.escape(ids)}"):
            build()


def test_a_scene_with_too_few_views_names_both_counts():
    scene = gen_scene(SceneSpec(height=16, width=20, n_views=2, seed=1))
    with pytest.raises(SamplingError, match=r"a 5-view sample .*; 2 views given"):
        synth.regular_sample(scene, 0, 5)
