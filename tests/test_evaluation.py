"""Metric tests: generalization pooling, CED/AUC/FR analytics, 3DRMSE
with ICP alignment, specificity against the double-loop oracle, and the
PCA baseline."""

import numpy as np
import pytest

from facegan3d.evaluation import (ErrorDistribution, ced_auc_fr,
                                  generalization_errors, rmse3d_translation,
                                  specificity)
from facegan3d.geometry import icp_point_to_plane
from facegan3d.pca import pca_fit, pca_project, pca_reconstruct
from facegan3d.synthetic import make_template, synth_dataset

from oracles import naive_specificity


@pytest.fixture(scope="module")
def heads():
    return synth_dataset(6, 4, seed=20, grid=17).subjects


# ---------------------------------------------------------------------------
# generalization


def test_identity_model_zero_errors(heads):
    errs = generalization_errors(heads, heads)
    assert errs.mean == 0.0
    assert errs.values.size == sum(m.num_vertices for m in heads)


def test_single_vertex_offset_single_entry(heads):
    d = 0.37

    v = heads[0].vertices.copy()
    v[5] += [d, 0, 0]
    errs = generalization_errors([heads[0].with_vertices(v)], heads[:1])
    nonzero = errs.values[errs.values > 0]
    assert len(nonzero) == 1
    assert nonzero[0] == pytest.approx(d)


def test_generalization_errors_need_one_reconstruction_per_test_mesh(heads):
    with pytest.raises(ValueError):
        generalization_errors(heads[:2], heads[:3])


# ---------------------------------------------------------------------------
# ced / auc / fr


def test_ced_all_zero_errors():
    errs = ErrorDistribution(np.zeros(100))
    curve, auc, fr = ced_auc_fr(errs, x_max=0.01, fail_threshold=0.01)
    assert auc == pytest.approx(1.0, abs=1e-12)
    assert fr == 0.0
    assert curve[0, 1] == 1.0


def test_ced_all_beyond_x_max():
    errs = ErrorDistribution(np.full(50, 5.0))
    _, auc, fr = ced_auc_fr(errs, x_max=1.0, fail_threshold=1.0)
    assert auc == 0.0
    assert fr == 1.0


def test_ced_uniform_converges_to_half():
    rng = np.random.default_rng(21)
    errs = ErrorDistribution(rng.uniform(0, 0.01, 100_000))
    _, auc, fr = ced_auc_fr(errs, x_max=0.01, fail_threshold=0.01)
    assert abs(auc - 0.5) < 0.01
    assert fr == 0.0


def test_ced_curve_monotone_nondecreasing():
    rng = np.random.default_rng(22)
    errs = ErrorDistribution(rng.exponential(0.005, 1000))
    curve, auc, fr = ced_auc_fr(errs, x_max=0.01, fail_threshold=0.02)
    assert np.all(np.diff(curve[:, 1]) >= 0)
    assert 0.0 <= auc <= 1.0 and 0.0 <= fr <= 1.0


def test_ced_empty_errors():
    with pytest.raises(ValueError):
        ced_auc_fr(ErrorDistribution(np.empty(0)), 0.01, 0.01)


# ---------------------------------------------------------------------------
# 3drmse


def test_rmse3d_identical_is_zero():
    tpl = make_template(13)
    assert rmse3d_translation(tpl, tpl) == pytest.approx(0.0, abs=1e-12)


def test_rmse3d_of_fixed_meshes_is_frozen():
    # the values before the fit took the ground truth's normals from
    # rmse3d_translation instead of computing them a second time
    tpl = make_template(13)
    ang = np.deg2rad(5)
    R = np.array([[np.cos(ang), -np.sin(ang), 0], [np.sin(ang), np.cos(ang), 0], [0, 0, 1]])
    noise = np.random.default_rng(31).normal(0, 0.01, tpl.vertices.shape)
    pred = tpl.with_vertices((tpl.vertices + noise) @ R.T + [0.03, -0.01, 0.02])
    assert rmse3d_translation(pred, tpl) == 0.020265307205020767
    assert rmse3d_translation(pred, tpl, crop_radius=0.5) == 0.022706009645803715
    h = synth_dataset(4, 4, seed=20, grid=17).subjects
    assert rmse3d_translation(h[0], h[1]) == 0.18737212008833007
    assert rmse3d_translation(h[2], h[3], crop_radius=0.3) == 0.11531276756189242


def test_rmse3d_rigid_motion_removed():
    tpl = make_template(13)
    rng = np.random.default_rng(23)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    ang = np.deg2rad(8)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R = np.eye(3) + np.sin(ang) * K + (1 - np.cos(ang)) * (K @ K)
    moved = tpl.with_vertices(tpl.vertices @ R.T + [0.05, -0.02, 0.01])
    assert rmse3d_translation(moved, tpl) < 1e-6


def test_rmse3d_crop_restricts_to_nose_region():
    tpl = make_template(13)
    far = tpl.vertices.copy()
    # perturb only the vertex farthest from the nose
    tip = tpl.vertices[tpl.landmarks["nose-tip"]]
    d = np.linalg.norm(tpl.vertices - tip, axis=1)
    far[np.argmax(d)] += 0.5
    pred = tpl.with_vertices(far)
    radius = float(np.median(d))
    small_crop = rmse3d_translation(pred, tpl, crop_radius=radius)
    # the fit sees every pair; the crop only picks the residuals scored
    normals = tpl.vertex_normals()
    p = icp_point_to_plane(pred, tpl, normals).apply(far)
    r = np.einsum("ij,ij->i", p - tpl.vertices, normals)[d <= radius]
    iod = np.linalg.norm(tpl.landmark_point("left-eye-outer")
                         - tpl.landmark_point("right-eye-outer"))
    assert small_crop == pytest.approx(np.sqrt(np.mean(r * r)) / iod, abs=1e-9)
    assert small_crop < rmse3d_translation(pred, tpl)


def test_rmse3d_default_keeps_whole_face():
    tpl = make_template(13)
    pred = tpl.with_vertices(tpl.vertices + np.random.default_rng(24).normal(
        0, 0.01, tpl.vertices.shape))
    d = np.linalg.norm(tpl.vertices - tpl.vertices[tpl.landmarks["nose-tip"]], axis=1)
    whole = rmse3d_translation(pred, tpl)
    assert rmse3d_translation(pred, tpl, crop_radius=1e9) == whole
    cropped = rmse3d_translation(pred, tpl, crop_radius=float(np.median(d)))
    assert cropped != whole


def test_rmse3d_normalized_by_interocular():
    tpl = make_template(13)
    pred = tpl.with_vertices(tpl.vertices + tpl.vertex_normals() * 0.01)
    base = rmse3d_translation(pred, tpl)
    # synthetic landmark pair twice as far apart halves the metric
    v = tpl.vertices.copy()
    le, re = tpl.landmarks["left-eye-outer"], tpl.landmarks["right-eye-outer"]
    mid = 0.5 * (v[le] + v[re])
    v[le] = mid + (v[le] - mid) * 2
    v[re] = mid + (v[re] - mid) * 2
    wide = tpl.with_vertices(v)
    pred2 = wide.with_vertices(wide.vertices + wide.vertex_normals() * 0.01)
    assert rmse3d_translation(pred2, wide) == pytest.approx(base * 0.5, rel=0.2)


def test_rmse3d_degenerate_interocular_errors():
    tpl = make_template(13)
    tpl.landmarks["left-eye-outer"] = tpl.landmarks["right-eye-outer"]
    with pytest.raises(ValueError, match="inter-ocular"):
        rmse3d_translation(tpl, tpl)


# ---------------------------------------------------------------------------
# specificity


def test_specificity_replaying_test_meshes_is_zero(heads):
    mean, std, _ = specificity([heads[i % len(heads)] for i in range(4)], heads)
    assert mean == 0.0 and std == 0.0


def test_specificity_single_test_mesh_exact_distance(heads):
    target = heads[0]
    gen = heads[1]
    mean, _, _ = specificity([gen], [target])
    expect = float(np.linalg.norm(gen.vertices - target.vertices, axis=1).mean())
    assert mean == expect


def test_specificity_equals_double_loop_oracle(heads):
    gen = heads[:5]
    test = heads[1:6]
    mean, std, dists = specificity(gen, test)
    omean, ostd, odists = naive_specificity([g.vertices for g in gen],
                                            [t.vertices for t in test])
    assert mean == omean
    assert std == ostd
    np.testing.assert_array_equal(dists, odists)


def test_specificity_reads_a_generator_like_the_double_loop_oracle(heads):
    mean, std, dists = specificity((m.with_vertices(m.vertices * 1.1) for m in heads[:4]),
                                   heads[2:])
    omean, ostd, odists = naive_specificity([m.vertices * 1.1 for m in heads[:4]],
                                            [t.vertices for t in heads[2:]])
    assert (mean, std) == (omean, ostd)
    np.testing.assert_array_equal(dists, odists)


def test_specificity_empty_test_set(heads):
    with pytest.raises(ValueError):
        specificity([heads[0]], [])


# ---------------------------------------------------------------------------
# pca


def test_pca_planar_data_rank_two():
    rng = np.random.default_rng(24)
    tpl = make_template(9)
    base = tpl.vertices.reshape(-1)
    d1 = rng.standard_normal(base.size)
    d2 = rng.standard_normal(base.size)
    meshes = [tpl.with_vertices((base + rng.standard_normal() * d1
                                 + rng.standard_normal() * d2).reshape(-1, 3))
              for _ in range(12)]
    model = pca_fit(meshes, variance_target=0.98)
    assert model.num_components == 2
    rec = pca_reconstruct(model, meshes[3])
    assert np.abs(rec.vertices - meshes[3].vertices).max() < 1e-8


def test_pca_k_matches_prefix_sum_scan(heads):
    model_full = pca_fit(list(heads), variance_target=1.0)
    var = model_full.variances
    target = 0.9
    cum = 0.0
    k = 0
    for v in var:
        k += 1
        cum += v
        if cum >= target * var.sum():
            break
    assert pca_fit(list(heads), variance_target=target).num_components == k


def test_pca_orthonormal_and_sorted(heads):
    model = pca_fit(list(heads), variance_target=1.0)
    gram = model.components.T @ model.components
    np.testing.assert_allclose(gram, np.eye(model.num_components), atol=1e-8)
    assert np.all(np.diff(model.variances) <= 1e-12)


def test_pca_full_rank_reconstructs_training_data(heads):
    model = pca_fit(list(heads), variance_target=1.0)
    for m in heads:
        rec = pca_reconstruct(model, m)
        assert np.abs(rec.vertices - m.vertices).max() < 1e-8


def test_pca_mean_shape_projects_to_zero(heads):
    model = pca_fit(list(heads), variance_target=1.0)
    mean_mesh = heads[0].with_vertices(model.mean.reshape(-1, 3))
    np.testing.assert_allclose(pca_project(model, mean_mesh), 0.0, atol=1e-9)
    rec = pca_reconstruct(model, mean_mesh)
    np.testing.assert_allclose(rec.vertices, mean_mesh.vertices, atol=1e-12)


def test_pca_reconstruction_error_non_increasing_in_k(heads):
    errs = []
    for k in (1, 2, 3, 4):
        model = pca_fit(list(heads), n_components=k)
        errs.append(sum(np.abs(pca_reconstruct(model, m).vertices - m.vertices).max()
                        for m in heads))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_pca_keeps_no_direction_the_data_do_not_span(heads):
    # 5 centred meshes span 4 directions, whatever the vertex count; a 5th
    # component would have a variance of rounding error and an arbitrary
    # direction
    five = list(heads[:5])
    for model in (pca_fit(five, n_components=50), pca_fit(five, variance_target=1.0)):
        assert model.num_components == 4
        assert model.variances.min() > 1e-6 * model.variances.max()
        for m in five:
            assert np.abs(pca_reconstruct(model, m).vertices - m.vertices).max() < 1e-8


def test_pca_needs_two(heads):
    with pytest.raises(ValueError):
        pca_fit(heads[:1])
