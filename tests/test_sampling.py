import numpy as np
import pytest

from mvslab.geometry import Camera, CameraView
from mvslab.grids import Image
from mvslab.sampling import (TOTAL_EPOCHS, SamplingError, curriculum,
                             make_image_contrastive, make_scene_contrastive,
                             select_regular_views, Sample)


def make_views(n, h=8, w=10, seed=0):
    rng = np.random.default_rng(seed)
    k = np.array([[12.0, 0, (w - 1) / 2], [0, 12.0, (h - 1) / 2], [0, 0, 1]])
    views = []
    for i in range(n):
        cam = Camera(k, np.eye(4), 400.0, 900.0)
        views.append(CameraView(Image(rng.random((h, w, 3))), cam, view_id=i))
    return views


def test_select_top_k_by_score():
    views = make_views(8)
    scores = [(3, 9.0), (7, 8.0), (1, 2.0)]
    sample = select_regular_views(views[0], views[1:], scores, 3)
    assert sample.source_ids() == [3, 7]


def test_select_tie_break_by_ascending_id():
    views = make_views(8)
    scores = [(5, 4.0), (2, 4.0), (6, 9.0)]
    sample = select_regular_views(views[0], views[1:], scores, 3)
    assert sample.source_ids() == [6, 2]


def test_select_five_views_from_ten_candidates():
    views = make_views(11)
    scores = [(i, 10.0 - i) for i in range(1, 11)]
    sample = select_regular_views(views[0], views[1:], scores, 5)
    assert len(sample.sources) == 4
    assert sample.source_ids() == [1, 2, 3, 4]


def test_select_too_few_candidates():
    views = make_views(3)
    with pytest.raises(SamplingError):
        select_regular_views(views[0], views[1:], [(1, 1.0)], 4)


@pytest.mark.parametrize("n_views", [-1, 0, 1])
def test_fewer_than_two_views_rejected(n_views):
    # n_views = 0 would slice the ranking with [:-1] and keep all but one
    views = make_views(6)
    scores = [(i, 1.0) for i in range(1, 6)]
    with pytest.raises(SamplingError):
        select_regular_views(views[0], views[1:], scores, n_views)
    with pytest.raises(SamplingError):
        make_scene_contrastive(views, views[0], n_views, rng_seed=1)


def regular_sample():
    views = make_views(5, h=16, w=20, seed=1)
    scores = [(i, 5.0 - i) for i in range(1, 5)]
    return select_regular_views(views[0], views[1:], scores, 5)


def test_image_contrastive_zero_rate_only_fluctuates():
    reg = regular_sample()
    ic = make_image_contrastive(reg, 0.0, rng_seed=3)
    assert all(not m.any() for m in ic.occlusion_masks)
    changed = any(not np.array_equal(a.image.data, b.image.data)
                  for a, b in zip(ic.sources, reg.sources))
    assert changed


def test_image_contrastive_full_rate_zeroes_sources():
    reg = regular_sample()
    ic = make_image_contrastive(reg, 1.0, rng_seed=3)
    for view in ic.sources:
        assert np.all(view.image.data == 0.0)


def test_image_contrastive_preserves_reference_and_cameras():
    reg = regular_sample()
    ic = make_image_contrastive(reg, 0.3, rng_seed=9)
    assert ic.reference is reg.reference
    for a, b in zip(ic.sources, reg.sources):
        assert a.camera is b.camera
        assert a.view_id == b.view_id


def test_image_contrastive_occlusion_rate_concentration():
    views = make_views(3, h=512, w=640, seed=2)
    reg = Sample(views[0], views[1:])
    ic = make_image_contrastive(reg, 0.1, rng_seed=5)
    n = 512 * 640
    sigma = np.sqrt(0.1 * 0.9 / n)
    for mask in ic.occlusion_masks:
        assert abs(mask.mean() - 0.1) < 4 * sigma
    # a mask value of 1 zeroes the pixel across channels
    src = ic.sources[0].image.data
    occ = ic.occlusion_masks[0]
    assert np.all(src[occ] == 0.0)


def test_image_contrastive_deterministic():
    reg = regular_sample()
    a = make_image_contrastive(reg, 0.2, rng_seed=11)
    b = make_image_contrastive(reg, 0.2, rng_seed=11)
    for va, vb in zip(a.sources, b.sources):
        assert np.array_equal(va.image.data, vb.image.data)
    c = make_image_contrastive(reg, 0.2, rng_seed=12)
    assert any(not np.array_equal(va.image.data, vc.image.data)
               for va, vc in zip(a.sources, c.sources))


def test_image_contrastive_rejects_bad_rate():
    with pytest.raises(SamplingError):
        make_image_contrastive(regular_sample(), 1.5, rng_seed=0)


def test_fluctuation_stays_in_unit_interval():
    # sources at the ends of [0, 1], which the default contrast and brightness
    # ranges can push past either end
    views = make_views(5, h=16, w=20, seed=1)
    ends = np.zeros((16, 20, 3))
    ends[:, 10:] = 1.0
    sources = [CameraView(Image(ends), v.camera, view_id=v.view_id) for v in views[1:]]
    ic = make_image_contrastive(Sample(views[0], sources), 0.0, rng_seed=4)
    for view in ic.sources:
        assert view.image.data.min() >= 0.0
        assert view.image.data.max() <= 1.0


def test_scene_contrastive_forced_selection():
    views = make_views(5)
    sc1 = make_scene_contrastive(views, views[0], 5, rng_seed=1)
    sc2 = make_scene_contrastive(views, views[0], 5, rng_seed=99)
    assert sorted(sc1.source_ids()) == [1, 2, 3, 4]
    assert sorted(sc2.source_ids()) == [1, 2, 3, 4]


def test_scene_contrastive_subset_validity_over_seeds():
    views = make_views(49)
    all_ids = {v.view_id for v in views}
    picks = set()
    for seed in range(100):
        sc = make_scene_contrastive(views, views[3], 6, rng_seed=seed)
        ids = sc.source_ids()
        assert len(ids) == 5
        assert len(set(ids)) == 5
        assert set(ids) <= all_ids - {3}
        picks.add(tuple(sorted(ids)))
    assert len(picks) > 50  # different seeds give different subsets


def test_scene_contrastive_excludes_reference():
    views = make_views(10)
    for seed in range(20):
        sc = make_scene_contrastive(views, views[4], 4, rng_seed=seed)
        assert 4 not in sc.source_ids()


def test_scene_contrastive_deterministic():
    views = make_views(12)
    a = make_scene_contrastive(views, views[0], 5, rng_seed=7)
    b = make_scene_contrastive(views, views[0], 5, rng_seed=7)
    assert a.source_ids() == b.source_ids()


def test_scene_contrastive_insufficient_views():
    views = make_views(3)
    with pytest.raises(SamplingError):
        make_scene_contrastive(views, views[0], 5, rng_seed=0)


def test_curriculum_endpoints():
    s0 = curriculum(0)
    assert s0.occlusion_rate == pytest.approx(0.0)
    assert s0.image_consist_weight == pytest.approx(0.01)
    s2 = curriculum(2)
    assert s2.image_consist_weight == pytest.approx(0.02)
    s15 = curriculum(TOTAL_EPOCHS - 1)
    assert s15.occlusion_rate == pytest.approx(0.1)


def test_curriculum_bounds():
    with pytest.raises(SamplingError):
        curriculum(TOTAL_EPOCHS)
    with pytest.raises(SamplingError):
        curriculum(-1)


def test_schedule_monotone_in_epoch():
    rates = [curriculum(e).occlusion_rate for e in range(TOTAL_EPOCHS)]
    weights = [curriculum(e).image_consist_weight for e in range(TOTAL_EPOCHS)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert all(b >= a for a, b in zip(weights, weights[1:]))
