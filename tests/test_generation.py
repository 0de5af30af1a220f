"""Latent Gaussian fitting and sampling, decoder-only generation, and
Gaussians of maps encoded under one label."""

import numpy as np
import pytest

from facegan3d.generation import (LatentGaussian, collect_bottlenecks,
                                  decode_batch, fit_latent_gaussian,
                                  sample_latent)
from facegan3d.geometry import cylindrical_unwrap
from facegan3d.model import NetConfig, Network
from facegan3d.pipeline import map_to_mesh
from facegan3d.synthetic import make_template

from oracles import latent_covariance, naive_covariance

NCFG = NetConfig(resolution=32, base_filters=2, latent_dim=4)


@pytest.fixture(scope="module")
def net():
    return Network.build(NCFG, np.random.default_rng(0))


def maps(n, seed=1):
    return np.random.default_rng(seed).uniform(-1, 1, (n, 3, 32, 32)).astype(np.float32)


# ---------------------------------------------------------------------------
# collect


def test_collect_shapes_and_order(net):
    x = maps(5)
    Z = collect_bottlenecks(net, x)
    assert Z.shape == (4, 5)
    z0, _ = net.encode(x[:1])
    np.testing.assert_allclose(Z[:, 0], z0.data[0], rtol=1e-6)


def test_collect_duplicate_samples_give_duplicate_columns(net):
    x = maps(2)
    x[1] = x[0]
    Z = collect_bottlenecks(net, x)
    np.testing.assert_array_equal(Z[:, 0], Z[:, 1])


def test_collect_empty_errors(net):
    with pytest.raises(ValueError):
        collect_bottlenecks(net, np.zeros((0, 3, 32, 32), dtype=np.float32))


# ---------------------------------------------------------------------------
# fit


def test_fit_constant_columns():
    Z = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    g = fit_latent_gaussian(Z)
    np.testing.assert_allclose(g.mean, [1.0, 2.0])
    np.testing.assert_allclose(g.factor, 0.0)


def test_fit_two_point_variance():
    g = fit_latent_gaussian(np.array([[1.0, -1.0]]))
    assert g.mean[0] == 0.0
    assert latent_covariance(g)[0, 0] == pytest.approx(2.0)


def test_fit_matches_double_loop_covariance():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((4, 12))
    g = fit_latent_gaussian(Z)
    np.testing.assert_allclose(latent_covariance(g), naive_covariance(Z), atol=1e-10)


def test_fit_needs_two_samples():
    with pytest.raises(ValueError):
        fit_latent_gaussian(np.ones((3, 1)))


# ---------------------------------------------------------------------------
# sample


def test_sample_zero_factor_returns_mean():
    g = LatentGaussian(np.array([1.0, -2.0]), np.zeros((2, 3)))
    z = sample_latent(g, np.random.default_rng(0), n=7)
    np.testing.assert_array_equal(z, np.tile([[1.0], [-2.0]], (1, 7)))


def test_sample_monte_carlo_mean_and_covariance():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 9)) * 0.5
    mu = rng.standard_normal(4)
    g = LatentGaussian(mu, A)
    draws = sample_latent(g, np.random.default_rng(4), n=100_000)
    cov = latent_covariance(g)
    sig = np.sqrt(np.diag(cov))
    bound = 4.0 * sig / np.sqrt(draws.shape[1])
    assert np.all(np.abs(draws.mean(axis=1) - mu) < bound)
    emp = np.cov(draws)
    rel = np.linalg.norm(emp - cov, 2) / np.linalg.norm(cov, 2)
    assert rel < 0.05


def test_sample_deterministic_per_seed():
    g = LatentGaussian(np.zeros(3), np.eye(3))
    a = sample_latent(g, np.random.default_rng(9), n=5)
    b = sample_latent(g, np.random.default_rng(9), n=5)
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# generate


def test_generate_face_outputs_in_tanh_range(net):
    layout = cylindrical_unwrap(make_template(21))
    maps = decode_batch(net, np.zeros((4, 1)))
    assert maps.shape == (1, 3, 32, 32)
    assert np.all(maps > -1) and np.all(maps < 1)
    mesh = map_to_mesh(maps[0], layout, {})
    assert mesh.num_vertices == layout.num_vertices
    assert np.all(np.abs(mesh.vertices) < 1)


def test_generate_wrong_latent_length(net):
    with pytest.raises(ValueError):
        decode_batch(net, np.zeros((7, 1)))


def test_generate_deterministic(net):
    layout = cylindrical_unwrap(make_template(13))
    g = LatentGaussian(np.zeros(4), 0.3 * np.eye(4))
    z1 = sample_latent(g, np.random.default_rng(5))
    z2 = sample_latent(g, np.random.default_rng(5))
    m1 = map_to_mesh(decode_batch(net, z1)[0], layout, {})
    m2 = map_to_mesh(decode_batch(net, z2)[0], layout, {})
    assert m1.vertices.tobytes() == m2.vertices.tobytes()


def test_map_to_mesh_input_units(net):
    layout = cylindrical_unwrap(make_template(13))
    data = decode_batch(net, np.ones((4, 1)))[0]
    meta = {"scale": 2.5, "center": [1.0, -2.0, 0.5]}
    normalised = map_to_mesh(data, layout, {"nose-tip": 3})
    raw = map_to_mesh(data, layout, {"nose-tip": 3}, meta)
    np.testing.assert_allclose(raw.vertices, normalised.vertices * 2.5 + [1.0, -2.0, 0.5])
    assert raw.landmarks == {"nose-tip": 3}


def test_decoder_only_path_consistency(net):
    # decoding a collected bottleneck equals the full forward when the skip
    # features are substituted; with no skip features it is the decoder-only path
    x = maps(1, seed=6)
    fp = net.forward(x)
    dec = decode_batch(net, fp.bottleneck.data.T)
    assert dec.shape == (1, 3, 32, 32)
    assert not np.array_equal(dec, fp.output.data)  # skips do contribute
    import facegan3d.autodiff as ad
    _, feats = net.encode(x)
    skips = {lv: ad.Tensor(feats[lv].data) for lv in net.config.skip_levels}
    again = net.decode(fp.bottleneck.data, skips=skips)
    np.testing.assert_array_equal(again.data, fp.output.data)


# ---------------------------------------------------------------------------
# per-label


def test_label_gaussians_cluster_means():
    # two synthetic clusters in latent space: per-label means stay inside
    # their own cluster's hull
    rng = np.random.default_rng(8)
    Z0 = rng.standard_normal((3, 20)) * 0.1 + np.array([[5.0], [0.0], [0.0]])
    Z1 = rng.standard_normal((3, 20)) * 0.1 + np.array([[-5.0], [0.0], [0.0]])
    g0 = fit_latent_gaussian(Z0)
    g1 = fit_latent_gaussian(Z1)
    assert Z0[0].min() <= g0.mean[0] <= Z0[0].max()
    assert Z1[0].min() <= g1.mean[0] <= Z1[0].max()
    assert g0.mean[0] > 0 > g1.mean[0]


def test_label_gaussians_order_invariant():
    # the Gaussian of the maps encoded under one label does not depend on
    # the order of the maps
    lnet = Network.build(NetConfig(32, 2, 4, label_channels=2),
                         np.random.default_rng(31))
    x = maps(8, seed=9)
    perm = np.random.default_rng(10).permutation(8)
    for label in (0, 1):
        onehots = np.zeros((8, 2), dtype=np.float32)
        onehots[:, label] = 1.0
        g1 = fit_latent_gaussian(collect_bottlenecks(lnet, x, onehots))
        g2 = fit_latent_gaussian(collect_bottlenecks(lnet, x[perm], onehots[perm]))
        np.testing.assert_allclose(g1.mean, g2.mean, atol=1e-12)
        np.testing.assert_allclose(latent_covariance(g1), latent_covariance(g2), atol=1e-12)
