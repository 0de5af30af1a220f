"""Geometry tests: Procrustes/GPA, normalization, unwrap, rasterization,
nearest fill, UV sampling, point-to-plane ICP and OBJ I/O. There is no
non-rigid registration: every dataset shares the template's topology."""

import re

import numpy as np
import pytest

from facegan3d.errors import DataFormatError
from facegan3d.geometry import (Mesh, centroid_size, cylindrical_unwrap,
                                generalized_procrustes, icp_point_to_plane,
                                load_landmarks, load_obj, nearest_fill,
                                normalize_dataset, procrustes_points,
                                rasterize_uv, sample_mesh_from_uv, save_landmarks,
                                save_obj, UVLayout, UVMap)
from facegan3d.geometry import uvmap
from facegan3d.synthetic import make_template, synth_dataset

from oracles import (bbox_diagonal, naive_nearest_fill_assignment,
                     point_in_triangle, point_to_plane_residual, reference_kabsch,
                     reference_rasterize_layout, reference_save_obj)


def rand_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def small_rotation(rng, max_deg=15.0):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = np.deg2rad(rng.uniform(0, max_deg))
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


@pytest.fixture(scope="module")
def template():
    return make_template(21)


@pytest.fixture(scope="module")
def heads():
    return synth_dataset(4, 5, seed=7, grid=21).subjects


# ---------------------------------------------------------------------------
# procrustes


def test_procrustes_identity(template):
    t = procrustes_points(template.vertices, template.vertices)
    np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(t.translation, 0, atol=1e-12)
    assert t.scale == pytest.approx(1.0)


def test_procrustes_recovers_known_similarity(template):
    rng = np.random.default_rng(0)
    R = rand_rotation(rng)
    s, tvec = 1.7, np.array([0.3, -2.0, 0.5])
    target = template.with_vertices(s * template.vertices @ R.T + tvec)
    t = procrustes_points(template.vertices, target.vertices)
    np.testing.assert_allclose(t.rotation, R, atol=1e-8)
    np.testing.assert_allclose(t.translation, tvec, atol=1e-8)
    assert t.scale == pytest.approx(s, abs=1e-8)
    np.testing.assert_allclose(t.apply(template.vertices), target.vertices, atol=1e-8)


def test_procrustes_beats_random_transforms(template):
    rng = np.random.default_rng(1)
    noisy = template.vertices + 0.05 * rng.standard_normal(template.vertices.shape)
    target = template.with_vertices(noisy)
    t = procrustes_points(template.vertices, target.vertices)
    best = np.sum((t.apply(template.vertices) - target.vertices) ** 2)
    for _ in range(1000):
        R = rand_rotation(rng)
        s = rng.uniform(0.5, 2.0)
        tv = rng.uniform(-1, 1, 3)
        other = np.sum((s * template.vertices @ R.T + tv - target.vertices) ** 2)
        assert best <= other + 1e-12


def test_procrustes_degenerate_source_errors():
    pts = np.zeros((5, 3))
    with pytest.raises(ValueError, match="degenerate"):
        procrustes_points(pts, np.random.default_rng(0).standard_normal((5, 3)))


# ---------------------------------------------------------------------------
# generalized procrustes


def test_gpa_identical_inputs_pass_through(heads):
    meshes = [heads[0]] * 3
    aligned, mean = generalized_procrustes(meshes)
    for m in aligned:
        np.testing.assert_allclose(m.vertices, heads[0].vertices, atol=1e-12)
    np.testing.assert_allclose(mean.vertices, heads[0].vertices, atol=1e-12)


def test_gpa_removes_similarity_transforms(heads):
    rng = np.random.default_rng(2)
    base = heads[0]
    meshes = [base]
    for _ in range(3):
        R = rand_rotation(rng)
        s = rng.uniform(0.5, 2.0)
        tv = rng.uniform(-1, 1, 3)
        meshes.append(base.with_vertices(s * base.vertices @ R.T + tv))
    aligned, _ = generalized_procrustes(meshes)
    for m in aligned[1:]:
        np.testing.assert_allclose(m.vertices, aligned[0].vertices, atol=1e-6)


def test_gpa_invariant_to_transforming_non_anchor_inputs(heads):
    rng = np.random.default_rng(3)
    base_run, _ = generalized_procrustes(list(heads[:3]))
    for k in (1, 2):
        meshes = list(heads[:3])
        R = rand_rotation(rng)
        s = rng.uniform(0.5, 2.0)
        tv = rng.uniform(-1, 1, 3)
        meshes[k] = meshes[k].with_vertices(s * meshes[k].vertices @ R.T + tv)
        run, _ = generalized_procrustes(meshes)
        for a, b in zip(run, base_run):
            np.testing.assert_allclose(a.vertices, b.vertices, atol=1e-6)


def test_gpa_anchor_transform_changes_frame_only(heads):
    # transforming the anchor mesh moves the global frame; shapes agree
    # after re-aligning the two consensus means
    rng = np.random.default_rng(4)
    meshes = list(heads[:3])
    base_run, base_mean = generalized_procrustes(meshes)
    R = rand_rotation(rng)
    meshes2 = list(heads[:3])
    meshes2[0] = meshes2[0].with_vertices(1.3 * meshes2[0].vertices @ R.T + 0.2)
    run2, mean2 = generalized_procrustes(meshes2)
    t = procrustes_points(mean2.vertices, base_mean.vertices)
    for a, b in zip(run2, base_run):
        np.testing.assert_allclose(t.apply(a.vertices), b.vertices, atol=1e-6)


def test_gpa_mean_keeps_anchor_size_and_converges():
    # Without rescaling, every fit shrinks a shape that does not match the
    # mean exactly and the mean collapses over the iterations.
    meshes = synth_dataset(12, 5, seed=11, grid=15).subjects
    aligned, mean = generalized_procrustes(meshes)
    anchor = centroid_size(meshes[0].vertices)
    assert centroid_size(mean.vertices) == pytest.approx(anchor, rel=1e-9)
    short, short_mean = generalized_procrustes(meshes, max_iter=30)
    np.testing.assert_array_equal(short_mean.vertices, mean.vertices)
    for a, b in zip(short, aligned):
        np.testing.assert_array_equal(a.vertices, b.vertices)


def test_gpa_empty_input_errors():
    with pytest.raises(ValueError):
        generalized_procrustes([])


# ---------------------------------------------------------------------------
# normalize


def test_normalize_halves_max_two(template):
    m = template.with_vertices(template.vertices / np.abs(template.vertices).max() * 2.0)
    scaled, factor = normalize_dataset([m])
    assert factor == pytest.approx(2.0)
    assert np.abs(scaled[0].vertices).max() == pytest.approx(1.0)


def test_normalize_already_unit(template):
    m = template.with_vertices(template.vertices / np.abs(template.vertices).max())
    scaled, factor = normalize_dataset([m])
    assert factor == pytest.approx(1.0)
    np.testing.assert_allclose(scaled[0].vertices, m.vertices, rtol=1e-15)


def test_normalize_round_trip(heads):
    scaled, factor = normalize_dataset(list(heads))
    for orig, s in zip(heads, scaled):
        np.testing.assert_allclose(s.vertices * factor, orig.vertices, rtol=1e-12)


def test_normalize_zero_errors():
    m = Mesh(np.zeros((4, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        normalize_dataset([m])


# ---------------------------------------------------------------------------
# unwrap


def test_unwrap_center_vertex_before_rescale():
    # a vertex on the +z axis at mid-height maps to (0.5, 0.5) pre-rescale;
    # with a symmetric template the rescale preserves that
    tpl = make_template(21)
    layout = cylindrical_unwrap(tpl)
    v = tpl.vertices
    on_axis = np.nonzero((np.abs(v[:, 0]) < 1e-12))[0]
    mid = on_axis[np.argmin(np.abs(v[on_axis, 1] - np.median(v[:, 1])))]
    assert layout.uv[mid, 0] == pytest.approx(0.5, abs=1e-9)


def test_unwrap_mirror_symmetry():
    tpl = make_template(21)
    layout = cylindrical_unwrap(tpl)
    n = 21
    uv = layout.uv.reshape(n, n, 2)
    for i in range(n):
        np.testing.assert_allclose(uv[i, :, 0], 1.0 - uv[n - 1 - i, :, 0], atol=1e-6)


def test_unwrap_uv_triangles_nondegenerate(heads):
    layout = cylindrical_unwrap(make_template(21))
    uv = layout.uv
    f = layout.faces
    e1 = uv[f[:, 1]] - uv[f[:, 0]]
    e2 = uv[f[:, 2]] - uv[f[:, 0]]
    areas = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert np.all(areas > 0)


def test_unwrap_duplicate_uv_errors():
    verts = np.array([[0, 0, 1], [0, 0, 1], [0.5, 1, 0.5], [0.5, 0.1, 0.9]])
    mesh = Mesh(verts, np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(DataFormatError, match="duplicate"):
        cylindrical_unwrap(mesh)


# ---------------------------------------------------------------------------
# rasterize / fill / sample


def test_rasterize_affine_field_exact():
    # barycentric interpolation reproduces affine functions of (u, v)
    rng = np.random.default_rng(5)
    n = 9
    uv = np.stack(np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n),
                              indexing="ij"), axis=-1).reshape(-1, 2)
    idx = np.arange(n * n).reshape(n, n)
    quads = [(idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1])
             for i in range(n - 1) for j in range(n - 1)]
    faces = np.array([(a, b, c) for a, b, c, d in quads]
                     + [(a, c, d) for a, b, c, d in quads], dtype=np.int32)
    A = rng.standard_normal((3, 2)) * 0.3
    c = rng.standard_normal(3) * 0.1
    verts = uv @ A.T + c
    mesh = Mesh(verts, faces)
    layout = UVLayout(uv, faces)
    uvm = rasterize_uv(mesh, layout, 16)
    H = 16
    jj, ii = np.meshgrid(np.arange(H), np.arange(H))
    centers = np.stack([(jj + 0.5) / H, (ii + 0.5) / H], axis=-1)
    expect = centers @ A.T + c
    got = uvm.data.transpose(1, 2, 0)
    mask = uvm.valid
    np.testing.assert_allclose(got[mask], expect[mask], atol=1e-6)


def test_rasterize_coverage_includes_strict_interior(heads):
    layout = cylindrical_unwrap(make_template(21))
    uvm = rasterize_uv(heads[0], layout, 16)
    H = 16
    px = layout.uv[:, 0] * H - 0.5
    py = layout.uv[:, 1] * H - 0.5
    for i in range(H):
        for j in range(H):
            inside = any(
                point_in_triangle(j, i, [(px[a], py[a]) for a in f])
                for f in layout.faces)
            if inside:
                assert uvm.valid[i, j]


@pytest.fixture(scope="module")
def template_layout():
    return cylindrical_unwrap(make_template())


@pytest.mark.parametrize("res", [8, 16, 32, 64, 128])
def test_layout_raster_matches_reference_loop(template_layout, res):
    tri, bary = UVLayout(template_layout.uv, template_layout.faces).rasterization(res)
    ref_tri, ref_bary = reference_rasterize_layout(template_layout.uv,
                                                   template_layout.faces, res)
    assert tri.dtype == np.int32 and tri.shape == (res, res)
    assert tri.tobytes() == ref_tri.tobytes()
    assert bary.tobytes() == ref_bary.tobytes()


@pytest.mark.parametrize("chunk", [1, uvmap._RASTER_CHUNK])
def test_layout_raster_lowest_face_wins_and_skips(monkeypatch, chunk):
    monkeypatch.setattr(uvmap, "_RASTER_CHUNK", chunk)
    res = 8
    uv = np.array([
        [0.25, 0.25], [0.5, 0.5], [0.75, 0.75],     # face 0: zero area
        [0.05, 0.1], [0.9, 0.15], [0.1, 0.95],     # face 1
        [0.2, 0.3], [0.95, 0.35], [0.35, 0.9],     # face 2: overlaps face 1
        [0.0, 0.0], [0.05, 0.0], [0.0, 0.04],      # face 3: no pixel center
    ])
    # faces 4 and 5 in pixel coordinates, each with a hypotenuse x + y = s:
    # pixels (7, 6) and (6, 7) lie 1e-10 outside face 4, pixel (1, 7) lies
    # 1e-13 outside face 5, which the 1e-12 tolerance takes in
    near = np.array([[5.6, 5.6], [7.4 - 1e-10, 5.6], [5.6, 7.4 - 1e-10],
                     [0.6, 6.6], [1.4 - 1e-13, 6.6], [0.6, 7.4 - 1e-13]])
    uv = np.concatenate([uv, (near + 0.5) / res])
    faces = np.arange(18).reshape(6, 3)
    tri, bary = UVLayout(uv, faces).rasterization(res)
    ref_tri, ref_bary = reference_rasterize_layout(uv, faces, res)
    assert tri.tobytes() == ref_tri.tobytes() and bary.tobytes() == ref_bary.tobytes()
    assert set(np.unique(tri)) == {-1, 1, 2, 4, 5}
    assert tri[6, 6] == 4 and tri[6, 7] == -1 and tri[7, 6] == -1
    assert tri[7, 1] == 5
    px, py = uv[:, 0] * res - 0.5, uv[:, 1] * res - 0.5
    both = 0
    for i in range(res):
        for j in range(res):
            inside = [point_in_triangle(j, i, [(px[a], py[a]) for a in f]) for f in faces]
            assert not inside[0] and not inside[3]
            if inside[1] and inside[2]:
                both += 1
                assert tri[i, j] == 1
            elif inside[2]:
                assert tri[i, j] == 2
    assert both > 0
    np.testing.assert_allclose(bary[tri >= 0].sum(axis=1), 1.0, atol=1e-12)


def test_layout_rejects_nan_uv():
    uv = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(DataFormatError, match="outside"):
        UVLayout(uv, [[0, 1, 2]])


def test_round_trip_error_bounds_and_halving():
    ds = synth_dataset(3, 6, seed=9)
    layout = cylindrical_unwrap(ds.template)
    errs = {}
    for H in (32, 64):
        worst = 0.0
        for m in ds.subjects:
            rec = sample_mesh_from_uv(rasterize_uv(m, layout, H), layout)
            err = np.linalg.norm(rec.vertices - m.vertices, axis=1).max()
            worst = max(worst, err / (2 * bbox_diagonal(m) / H))
        errs[H] = worst
        assert worst <= 1.0
    # error is first order in the pixel size
    assert 0.4 <= errs[64] / errs[32] * 2 / 2 <= 1.2


def test_nearest_fill_trivial_cases():
    m = UVMap(np.ones((3, 4, 4), dtype=np.float32), np.ones((4, 4), dtype=bool))
    out = nearest_fill(m)
    np.testing.assert_array_equal(out.data, m.data)

    data = np.full((3, 4, 4), np.nan, dtype=np.float32)
    valid = np.zeros((4, 4), dtype=bool)
    valid[1, 2] = True
    data[:, 1, 2] = 7.0
    out = nearest_fill(UVMap(data, valid))
    np.testing.assert_array_equal(out.data, np.full((3, 4, 4), 7.0, np.float32))


@pytest.mark.parametrize("seed, chunk", [(s, uvmap._FILL_CHUNK) for s in range(4)] + [(0, 1)],
                         ids=["0", "1", "2", "3", "chunk_1"])
def test_nearest_fill_matches_brute_force(monkeypatch, seed, chunk):
    monkeypatch.setattr(uvmap, "_FILL_CHUNK", chunk)   # 1: one uncovered pixel per chunk
    rng = np.random.default_rng(seed)
    H = 16
    valid = rng.uniform(size=(H, H)) < 0.3
    valid[rng.integers(H), rng.integers(H)] = True
    data = np.where(valid, rng.standard_normal((H, H)), np.nan)[None].astype(np.float32)
    out = nearest_fill(UVMap(data, valid))
    assign = naive_nearest_fill_assignment(valid)
    expect = data.reshape(1, -1)[:, assign].reshape(1, H, H)
    np.testing.assert_array_equal(out.data, expect)


def _hole_mask(kind):
    if kind == "square_hole":
        valid = np.ones((9, 9), dtype=bool)
        valid[3:6, 3:6] = False
    elif kind == "corner_pixel":
        valid = np.zeros((12, 10), dtype=bool)
        valid[-1, -1] = True
    else:                                   # a valid border around an invalid interior
        valid = np.zeros((20, 17), dtype=bool)
        valid[[0, -1], :] = True
        valid[:, [0, -1]] = True
    return valid


@pytest.mark.parametrize("kind", ["square_hole", "corner_pixel", "border_ring"])
def test_nearest_fill_contiguous_holes_match_brute_force(monkeypatch, kind):
    valid = _hole_mask(kind)
    H, W = valid.shape
    data = np.where(valid, np.arange(H * W).reshape(H, W), np.nan)[None].astype(np.float32)
    expect = data.reshape(1, -1)[:, naive_nearest_fill_assignment(valid)].reshape(1, H, W)
    for chunk in (1, uvmap._FILL_CHUNK):
        monkeypatch.setattr(uvmap, "_FILL_CHUNK", chunk)
        np.testing.assert_array_equal(nearest_fill(UVMap(data, valid)).data, expect)


def test_nearest_fill_square_hole_centre_takes_the_row_major_lowest_tie():
    valid = _hole_mask("square_hole")
    data = np.where(valid, np.arange(81).reshape(9, 9), np.nan)[None].astype(np.float32)
    out = nearest_fill(UVMap(data, valid))
    # (4, 4) is at squared distance 4 from (2, 4), (4, 2), (4, 6) and (6, 4)
    assert out.data[0, 4, 4] == 2 * 9 + 4


def test_nearest_fill_idempotent():
    for kind in ("square_hole", "corner_pixel", "border_ring"):
        valid = _hole_mask(kind)
        data = np.where(valid, np.arange(valid.size).reshape(valid.shape), np.nan)
        once = nearest_fill(UVMap(data[None], valid))
        # an unflagged copy, so the second fill searches again
        twice = nearest_fill(UVMap(once.data, once.valid))
        np.testing.assert_array_equal(once.data, twice.data)
        np.testing.assert_array_equal(twice.valid, valid)


def test_nearest_fill_all_invalid_errors():
    m = UVMap(np.full((3, 2, 2), np.nan, np.float32), np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        nearest_fill(m)


def test_sample_constant_map(template):
    layout = cylindrical_unwrap(template)
    data = np.full((3, 8, 8), 0.3, dtype=np.float32)
    m = UVMap(data, np.ones((8, 8), dtype=bool), filled=True)
    mesh = sample_mesh_from_uv(m, layout)
    np.testing.assert_allclose(mesh.vertices, 0.3, rtol=1e-6)


def test_sample_bilinear_exact_for_linear_map():
    H = 8
    jj, ii = np.meshgrid(np.arange(H), np.arange(H))
    u = (jj + 0.5) / H
    v = (ii + 0.5) / H
    data = np.stack([2 * u + v, u - v, 0.5 * v], axis=0).astype(np.float32)
    m = UVMap(data, np.ones((H, H), dtype=bool), filled=True)
    rng = np.random.default_rng(11)
    uv = rng.uniform(0.5 / H, 1 - 0.5 / H, size=(30, 2))
    layout = UVLayout(uv, np.array([[0, 1, 2]], dtype=np.int32))
    mesh = sample_mesh_from_uv(m, layout)
    expect = np.stack([2 * uv[:, 0] + uv[:, 1], uv[:, 0] - uv[:, 1], 0.5 * uv[:, 1]], axis=1)
    np.testing.assert_allclose(mesh.vertices, expect, atol=1e-6)


def test_uvmap_values_in_range_after_normalize(heads):
    scaled, _ = normalize_dataset(list(heads))
    layout = cylindrical_unwrap(make_template(21))
    for m in scaled:
        uvm = rasterize_uv(m, layout, 16)
        assert np.all(uvm.data >= -1.0) and np.all(uvm.data <= 1.0)


# ---------------------------------------------------------------------------
# icp


def test_icp_identity():
    tpl = make_template(13)
    t = icp_point_to_plane(tpl, tpl)
    np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(t.translation, 0.0, atol=1e-10)


def test_icp_recovers_small_rigid_motion():
    tpl = make_template(13)
    rng = np.random.default_rng(12)
    R = small_rotation(rng, 10.0)
    tv = np.array([0.02, -0.03, 0.04])
    moved = tpl.with_vertices(tpl.vertices @ R.T + tv)
    t = icp_point_to_plane(moved, tpl)
    recovered = t.apply(moved.vertices)
    np.testing.assert_allclose(recovered, tpl.vertices, atol=1e-6)


def test_icp_residual_not_worse_than_truth():
    tpl = make_template(13)
    rng = np.random.default_rng(13)
    R = small_rotation(rng, 8.0)
    tv = np.array([0.01, 0.02, -0.03])
    moved = tpl.with_vertices(tpl.vertices @ R.T + tv)
    t = icp_point_to_plane(moved, tpl)
    res_icp = point_to_plane_residual(t.apply(moved.vertices), tpl)
    res_truth = point_to_plane_residual((moved.vertices - tv) @ R, tpl)
    assert res_icp <= res_truth + 1e-8


@pytest.mark.slow
def test_icp_hundred_seeded_trials():
    tpl = make_template(13)
    bbox = bbox_diagonal(tpl)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        R = small_rotation(rng, 15.0)
        tv = rng.uniform(-0.1, 0.1, 3) * bbox
        moved = tpl.with_vertices(tpl.vertices @ R.T + tv)
        t = icp_point_to_plane(moved, tpl)
        err = np.abs(t.apply(moved.vertices) - tpl.vertices).max()
        assert err < 1e-6, f"seed {seed}: {err}"


def test_icp_pairs_by_vertex_index_not_nearest_neighbour():
    """On a non-rigidly perturbed template the fit minimises the residual
    over corresponding vertices, so it is at most that of a Kabsch fit on
    the same pairs; a nearest-neighbour pairing lets vertices slide and
    does worse on this residual."""
    tpl = make_template(13)
    normals = tpl.vertex_normals()

    def paired_rms(p):
        return float(np.sqrt(np.mean(np.einsum("ij,ij->i", p - tpl.vertices, normals) ** 2)))

    for seed in (14, 15, 16):
        rng = np.random.default_rng(seed)
        noisy = tpl.vertices + 0.1 * bbox_diagonal(tpl) * rng.standard_normal(tpl.vertices.shape)
        moved = tpl.with_vertices(noisy @ small_rotation(rng, 5.0).T + [0.01, -0.02, 0.01])
        t = icp_point_to_plane(moved, tpl)
        R, tv = reference_kabsch(moved.vertices, tpl.vertices)
        kabsch = paired_rms(moved.vertices @ R.T + tv)
        assert paired_rms(t.apply(moved.vertices)) <= kabsch + 1e-9, f"seed {seed}"


def test_icp_vertex_counts_must_match():
    tpl = make_template(13)
    with pytest.raises(ValueError, match="vertex index"):
        icp_point_to_plane(tpl, make_template(12))


def test_icp_too_few_vertices():
    m = Mesh(np.random.default_rng(0).standard_normal((5, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="6"):
        icp_point_to_plane(m, m)


# ---------------------------------------------------------------------------
# obj / landmarks io


def test_obj_round_trip(tmp_path, template):
    stress = Mesh([[-1.5, -0.0, 0.0], [1e-300, -1e-300, 1e20], [3.0, -42.0, 1e10],
                   [np.nan, 0.1, 2.0 / 3.0]], [[0, 1, 2], [1, 2, 3], [3, 2, 0]])
    for mesh in (template, stress):
        path = tmp_path / "m.obj"
        save_obj(path, mesh)
        reference_save_obj(tmp_path / "ref.obj", mesh)
        assert path.read_bytes() == (tmp_path / "ref.obj").read_bytes()
        loaded = load_obj(path, mesh.landmarks)
        np.testing.assert_allclose(loaded.vertices, mesh.vertices, rtol=1e-9)
        np.testing.assert_array_equal(loaded.faces, mesh.faces)
        assert loaded.landmarks == mesh.landmarks


# OBJ files outside the subset save_obj writes; each must read as the file says
IRREGULAR_OBJ = {
    "as_written": lambda v, f: v + f,
    "comments_and_blank_lines": lambda v, f: "# scan\n\n" + v + "  \n# faces\n" + f + "\n",
    "texture_and_normal_lines": lambda v, f: v + "vt 0.5 0.5\nvn 0 0 1\n" + f,
    "slash_indices": lambda v, f: re.sub(r"(\d+)", r"\1/\1/\1", f) + v,
    "vertices_after_faces": lambda v, f: f + v,
    "no_trailing_newline": lambda v, f: (v + f).rstrip("\n"),
}


@pytest.mark.parametrize("variant", sorted(IRREGULAR_OBJ))
def test_load_obj_reads_irregular_files(tmp_path, variant):
    mesh = make_template(9)
    save_obj(tmp_path / "m.obj", mesh)
    text = (tmp_path / "m.obj").read_text()
    cut = text.index("\nf ") + 1
    path = tmp_path / "irregular.obj"
    path.write_text(IRREGULAR_OBJ[variant](text[:cut], text[cut:]))
    loaded = load_obj(path)
    expect = np.array([float(f"{x:.10g}") for x in mesh.vertices.ravel()]).reshape(-1, 3)
    assert loaded.vertices.tobytes() == expect.tobytes()
    assert loaded.faces.dtype == np.int32
    np.testing.assert_array_equal(loaded.faces, mesh.faces)


def test_load_obj_without_faces(tmp_path):
    path = tmp_path / "points.obj"
    path.write_text("v 1 2 3\nv -4 5.5 6e-3\n")
    loaded = load_obj(path)
    np.testing.assert_array_equal(loaded.vertices, [[1, 2, 3], [-4, 5.5, 6e-3]])
    assert loaded.faces.shape == (0, 3)


@pytest.mark.parametrize("text, where", [
    ("v 0 0 0\nv 1 0 0\nv 0 1\nf 1 2 3\n", ":3: malformed vertex line"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 1 2 4 3\n",
     ":6: only triangle faces supported"),
    ("# nothing here\nf 1 2 3\n", ": no vertices"),
    ("", ": no vertices"),
], ids=["short_vertex", "quad_face", "faces_only", "empty"])
def test_load_obj_bad_file_names_path_and_line(tmp_path, text, where):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}{where}")):
        load_obj(path)


def _with_one_face_index_changed(mesh):
    faces = mesh.faces.copy()
    faces[0, 0] = (faces[0, 0] + 1) % mesh.num_vertices
    return Mesh(mesh.vertices, faces, dict(mesh.landmarks))


def test_save_obj_alternating_face_sets_match_reference(tmp_path):
    a = make_template(9)
    b = _with_one_face_index_changed(a)
    for i, mesh in enumerate((a, b, a)):
        save_obj(tmp_path / f"{i}.obj", mesh)
        reference_save_obj(tmp_path / f"ref{i}.obj", mesh)
        assert (tmp_path / f"{i}.obj").read_bytes() == (tmp_path / f"ref{i}.obj").read_bytes()


def test_load_obj_files_differing_in_one_face_index_load_their_own(tmp_path):
    a = make_template(9)
    b = _with_one_face_index_changed(a)
    save_obj(tmp_path / "a.obj", a)
    save_obj(tmp_path / "b.obj", b)
    for name, mesh in (("a", a), ("b", b), ("a", a)):
        np.testing.assert_array_equal(load_obj(tmp_path / f"{name}.obj").faces, mesh.faces)


def test_load_obj_faces_are_shared_and_read_only(tmp_path):
    """Every load of one face block returns one read-only array, so a
    change to one loaded mesh can never reach another load."""
    mesh = make_template(9)
    save_obj(tmp_path / "m.obj", mesh)
    first, second = load_obj(tmp_path / "m.obj"), load_obj(tmp_path / "m.obj")
    assert first.faces is second.faces and not first.faces.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.faces[:] = 0
    np.testing.assert_array_equal(load_obj(tmp_path / "m.obj").faces, mesh.faces)


def test_mesh_keeps_int32_faces_as_a_read_only_view(tmp_path):
    faces = np.array([[0, 1, 2]], dtype=np.int32)
    mesh = Mesh(np.eye(3), faces)
    assert np.shares_memory(mesh.faces, faces) and not mesh.faces.flags.writeable
    assert mesh.with_vertices(2 * np.eye(3)).faces is mesh.faces
    # a file only the line loop reads gives the same contract
    (tmp_path / "c.obj").write_text("# comment\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n")
    loaded = load_obj(tmp_path / "c.obj").faces
    assert loaded.dtype == np.int32 and not loaded.flags.writeable


@pytest.mark.parametrize("case", ["index_past_the_vertices", "same_faces_fewer_vertices",
                                  "index_past_int32"])
def test_load_obj_out_of_range_face_after_a_good_file_errors(tmp_path, case):
    mesh = make_template(9)
    save_obj(tmp_path / "good.obj", mesh)
    load_obj(tmp_path / "good.obj")
    text = (tmp_path / "good.obj").read_text()
    cut = text.index("\nf ") + 1
    vblock, fblock = text[:cut], text[cut:]
    if case == "index_past_the_vertices":
        fblock = re.sub(r"^f \d+", f"f {mesh.num_vertices + 1}", fblock, count=1)
    elif case == "index_past_int32":
        fblock = re.sub(r"^f \d+", f"f {2 ** 40}", fblock, count=1)
    else:
        vblock = vblock.split("\n", 1)[1]   # one vertex fewer, the same face block
    (tmp_path / "bad.obj").write_text(vblock + fblock)
    with pytest.raises(DataFormatError, match="face indices out of range"):
        load_obj(tmp_path / "bad.obj")


def test_landmarks_round_trip(tmp_path, template):
    path = tmp_path / "landmarks.txt"
    save_landmarks(path, template.landmarks)
    assert load_landmarks(path) == template.landmarks


def test_load_obj_missing_file():
    with pytest.raises(FileNotFoundError, match="nope.obj"):
        load_obj("/definitely/not/here/nope.obj")
