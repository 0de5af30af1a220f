"""Training protocol: conditioning, the lr schedule, pretraining
convergence, the adversarial step against a straight-line loss
recomputation and against the whole batch on one tape, gradient
isolation, the freeze contract, and that a step leaves no tape alive,
peaks at one tape slice and runs no forward on more maps than its cap."""

import gc
import tracemalloc

import numpy as np
import pytest

from facegan3d import autodiff as ad
from facegan3d import model, training
from facegan3d.errors import ShapeError
from facegan3d.model import NetConfig, Network
from facegan3d.training import (ADVERSARIAL_GROUPS, PairedDataset, TrainConfig,
                                adversarial_step, lr_at, pretrain_discriminator,
                                reconstruction_l1, train)

from oracles import traced_peak

NCFG = NetConfig(resolution=32, base_filters=2, latent_dim=4)


def toy_dataset(n=8, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.8, 0.8, (1, 3, 32, 32)).astype(np.float32)
    wob = 0.1 * rng.standard_normal((n, 3, 32, 32)).astype(np.float32)
    y = np.clip(base + wob, -0.95, 0.95).astype(np.float32)
    return PairedDataset(y.copy(), y, labels)


# ---------------------------------------------------------------------------
# conditioning


def encoder_input(labels_per_map, x, labels=None):
    """The tensor that a net with ``labels_per_map`` labels feeds its first
    conv when given a tape leaf of the maps ``x`` and ``labels``."""
    net = Network.build(NetConfig(resolution=32, base_filters=1, latent_dim=2,
                                  label_channels=labels_per_map), np.random.default_rng(0))
    tape = ad.Tape()
    net.forward(tape.leaf(x), labels=labels)
    return next(rec for rec in tape.records if rec.op == "conv_elu").inputs[0]


def test_condition_no_labels_is_passthrough():
    x = np.zeros((1, 3, 32, 32), dtype=np.float32)
    assert encoder_input(0, x).data is x


def test_condition_appends_constant_planes():
    x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
    out = encoder_input(3, x, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])).data
    assert out.shape == (2, 6, 32, 32)
    np.testing.assert_array_equal(out[:, :3], x)
    for plane, value in zip(out[:, 3:].reshape(6, 32, 32), (0, 1, 0, 0, 0, 1)):
        np.testing.assert_array_equal(plane, value)


def test_condition_swapping_label_keeps_positions_bitwise():
    x = np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32)
    a = encoder_input(2, x, np.array([[1.0, 0.0]])).data
    b = encoder_input(2, x, np.array([[0.0, 1.0]])).data
    assert a[:, :3].tobytes() == b[:, :3].tobytes()
    assert a[:, 3:].tobytes() != b[:, 3:].tobytes()


def test_condition_rejects_non_one_hot():
    x = np.zeros((1, 3, 32, 32), dtype=np.float32)
    for bad in ([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="one-hot"):
            encoder_input(2, x, np.array([bad]))


@pytest.mark.parametrize("labels_per_map, labels", [(0, [[1.0]]), (2, None),
                                                    (2, [[0.0, 0.0, 1.0]]),
                                                    (2, [[1.0, 0.0], [0.0, 1.0]])])
def test_condition_label_count_mismatch_is_a_shape_error(labels_per_map, labels):
    x = np.zeros((1, 3, 32, 32), dtype=np.float32)
    with pytest.raises(ShapeError, match="labels"):
        encoder_input(labels_per_map, x, None if labels is None else np.array(labels))


# ---------------------------------------------------------------------------
# lr schedule


def test_lr_schedule_multiplicative():
    cfg = TrainConfig(lr=5e-5)
    assert lr_at(1, cfg) == 5e-5
    assert lr_at(30, cfg) == 5e-5
    assert lr_at(31, cfg) == pytest.approx(4.75e-5)
    assert lr_at(300, cfg) == pytest.approx(5e-5 * 0.95 ** 9)


# ---------------------------------------------------------------------------
# pretraining


def block_median_l1(y, cell):
    """Least mean L1 error of any map that is constant on cell x cell
    blocks of y (C, H, W): each block's best constant is its median."""
    c, h, w = y.shape
    blocks = y.reshape(c, h // cell, cell, w // cell, cell)
    return float(np.mean(np.abs(blocks - np.median(blocks, axis=(2, 4), keepdims=True))))


def test_pretrain_constant_dataset_converges():
    y = np.tile(np.random.default_rng(2).uniform(-0.8, 0.8, (1, 3, 32, 32)), (8, 1, 1, 1))
    ds = PairedDataset(y.copy().astype(np.float32), y.astype(np.float32))
    cfg = TrainConfig(lr=3e-3, pretrain_epochs=200, pretrain_batch=4, seed=0)
    net_cfg = NetConfig(32, 4, 4)
    net, history = pretrain_discriminator(ds, net_cfg, cfg)
    # The target is per-pixel noise, but the finest encoder feature the
    # decoder gets is the skip at H/8, a 4x4 grid that nearest upsampling
    # spreads over 8x8-pixel cells, so the noise cannot be reproduced. The
    # bar is to beat every map constant on those cells (the block medians
    # score 0.399 here): a fitted bias alone scores 0.405 and an untrained
    # net 0.62.
    assert history[-1] < block_median_l1(y[0], min(net_cfg.skip_levels))


def test_pretrain_loss_improves_over_300_epochs():
    ds = toy_dataset()
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=300, pretrain_batch=4, seed=1)
    _, history = pretrain_discriminator(ds, NCFG, cfg)
    assert history[-1] < history[0]


def test_pretrain_deterministic_across_runs():
    ds = toy_dataset()
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=5, pretrain_batch=4, seed=3)
    n1, _ = pretrain_discriminator(ds, NCFG, cfg)
    n2, _ = pretrain_discriminator(ds, NCFG, cfg)
    assert n1.params.checksum() == n2.params.checksum()


def test_pretrain_empty_dataset_errors():
    ds = PairedDataset(np.zeros((0, 3, 32, 32)), np.zeros((0, 3, 32, 32)))
    with pytest.raises(ValueError):
        pretrain_discriminator(ds, NCFG, TrainConfig())


# ---------------------------------------------------------------------------
# adversarial step


def cycled_labels(n, label_channels):
    """``n`` one-hot labels cycling through ``label_channels`` classes, or
    None for none."""
    if not label_channels:
        return None
    return np.eye(label_channels, dtype=np.float32)[np.arange(n) % label_channels]


def _pair(seed=4, label_channels=0, n=8):
    ds = toy_dataset(n=n, seed=seed, labels=cycled_labels(n, label_channels))
    ncfg = NetConfig(resolution=32, base_filters=2, latent_dim=4, label_channels=label_channels)
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=5, pretrain_batch=4, seed=seed)
    d_net, _ = pretrain_discriminator(ds, ncfg, cfg)
    g_net = Network(d_net.config, d_net.params.clone())
    return ds, d_net, g_net, cfg


def _live_tapes() -> int:
    return sum(isinstance(o, ad.Tape) for o in gc.get_objects())


def test_steps_free_their_tapes_without_the_cyclic_collector():
    """backward consumes each tape, so with the cyclic collector off no
    tape outlives pretraining or a step, and memory stays flat across
    steps (a kept tape holds every activation of its passes)."""
    ds = toy_dataset(n=4, seed=13)
    ncfg = NetConfig(resolution=32, base_filters=4, latent_dim=4)
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=1, pretrain_batch=4, batch=4, seed=13)
    adam_d, adam_g = ad.AdamState(), ad.AdamState()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        d_net, _ = pretrain_discriminator(ds, ncfg, cfg)
        assert _live_tapes() == 0
        g_net = Network(d_net.config, d_net.params.clone())
        sizes = []
        for _ in range(3):
            adversarial_step((ds.x, ds.y, None), d_net, g_net, adam_d, adam_g, 1e-3, cfg)
            assert _live_tapes() == 0
            sizes.append(tracemalloc.get_traced_memory()[0])
        assert abs(sizes[2] - sizes[0]) <= 0.25 * 2**20, sizes
    finally:
        tracemalloc.stop()
        gc.enable()


def test_step_with_zero_lambda_adv_is_pure_autoencoder_update():
    ds, d_net, g_net, _ = _pair()
    batch = (ds.x[:2], ds.y[:2], None)
    cfg0 = TrainConfig(lambda_adv=0.0, lr=1e-3)

    ref = Network(d_net.config, d_net.params.clone())
    leaf = ad.Tape().leaf(ds.y[:2])
    loss = ad.l1_mean(leaf, ref.forward(leaf))
    params = ref.params.tensors(*ADVERSARIAL_GROUPS)
    ad.zero_grad(params)
    ad.backward(loss, params=params)
    ad.adam_step(params, ad.AdamState(), 1e-3)

    adversarial_step(batch, d_net, g_net, ad.AdamState(), ad.AdamState(), 1e-3, cfg0)
    assert d_net.params.checksum() == ref.params.checksum()


def step_with_recomputed_outputs(seed):
    """One adversarial step, and the outputs its losses come from, each
    recomputed off the tape: G(x) from G before the step, D(y) and D(G(x))
    from a clone of D taken before the step, and D(G(x)) again from D
    after its update, which the G update differentiates through."""
    ds, d_net, g_net, cfg = _pair(seed)
    x, y = ds.x[:2], ds.y[:2]
    d_pre = Network(d_net.config, d_net.params.clone())
    gx = g_net.forward(x).data
    vals = adversarial_step((x, y, None), d_net, g_net, ad.AdamState(), ad.AdamState(),
                            1e-3, cfg)
    outputs = {"y": y, "gx": gx, "d_y": d_pre.forward(y).data,
               "d_gx_pre": d_pre.forward(gx).data,
               "d_gx_post": d_net.forward(gx).data}
    return vals, outputs, cfg


def test_step_losses_match_straight_line_recomputation():
    (l_d, l_g, l_rec), it, cfg = step_with_recomputed_outputs(5)
    expect_ld = np.abs(it["y"] - it["d_y"]).mean() \
        - cfg.lambda_adv * np.abs(it["gx"] - it["d_gx_pre"]).mean()
    expect_rec = np.abs(it["gx"] - it["y"]).mean()
    expect_lg = np.abs(it["gx"] - it["d_gx_post"]).mean() + cfg.lambda_rec * expect_rec
    assert l_d == pytest.approx(expect_ld, rel=1e-6, abs=1e-7)
    assert l_rec == pytest.approx(expect_rec, rel=1e-6)
    assert l_g == pytest.approx(expect_lg, rel=1e-6)


def test_loss_identity_recovers_real_term():
    # L_D + lambda_adv * E[L(G(x))] == E[L(y)] on the same batch
    (l_d, _, _), it, cfg = step_with_recomputed_outputs(6)
    loss_fake = np.abs(it["gx"] - it["d_gx_pre"]).mean()
    assert l_d + cfg.lambda_adv * loss_fake == pytest.approx(
        np.abs(it["y"] - it["d_y"]).mean(), rel=1e-6)


def one_tape_step(batch, d_net, g_net, adam_d, adam_g, lr, cfg):
    """The adversarial step with G's forward and D's pass for the G update
    on one tape, both of D's forwards for the D update on another, and L_D
    as one ``add``: the reference for the step's split tapes."""
    x, y, labels = batch
    d_params = d_net.params.tensors(*ADVERSARIAL_GROUPS)
    g_params = g_net.params.tensors(*ADVERSARIAL_GROUPS)
    tape = ad.Tape()
    gx = g_net.forward(tape.leaf(x), labels=labels)
    tape_d = ad.Tape()
    y_d, gx_const = tape_d.leaf(y), tape_d.leaf(gx.data.copy())
    dy = d_net.forward(y_d, labels=labels)
    dgx = d_net.forward(gx_const, labels=labels)
    loss_real = ad.l1_mean(y_d, dy)
    loss_fake = ad.l1_mean(gx_const, dgx)
    l_d = ad.add(loss_real, ad.scale(loss_fake, -cfg.lambda_adv))
    ad.zero_grad(d_params)
    ad.backward(l_d, params=d_params)
    ad.adam_step(d_params, adam_d, lr)
    ad.zero_grad(d_net.params.tensors())
    loss_adv = ad.l1_mean(gx, d_net.forward(gx, labels=labels))
    loss_rec = ad.l1_mean(gx, tape.leaf(y))
    l_g = ad.add(loss_adv, ad.scale(loss_rec, cfg.lambda_rec))
    ad.zero_grad(g_params)
    ad.backward(l_g, params=g_params)
    ad.adam_step(g_params, adam_g, lr)
    return float(l_d.data), float(l_g.data), float(loss_rec.data)


@pytest.mark.parametrize("label_channels", [0, 2], ids=["unlabelled", "labelled"])
def test_two_tape_d_update_is_the_one_tape_update_bitwise(label_channels):
    ds, d_net, g_net, cfg = _pair(11, label_channels)
    nets = (d_net, g_net)
    ref_nets = tuple(Network(n.config, n.params.clone()) for n in nets)
    adams, ref_adams = (ad.AdamState(), ad.AdamState()), (ad.AdamState(), ad.AdamState())
    for i in (0, 4):    # two steps, so the second starts from updated moments
        batch = ds.batch(slice(i, i + 4))
        got = adversarial_step(batch, *nets, *adams, 1e-3, cfg)
        expect = one_tape_step(batch, *ref_nets, *ref_adams, 1e-3, cfg)
        assert np.array(got).tobytes() == np.array(expect).tobytes()
    for net, ref, adam, ref_adam in zip(nets, ref_nets, adams, ref_adams):
        assert adam.t == ref_adam.t == 2
        for name in net.params.names():
            p, q = net.params[name], ref.params[name]
            assert p.data.tobytes() == q.data.tobytes(), name
            for moments, ref_moments in ((adam.m, ref_adam.m), (adam.v, ref_adam.v)):
                assert (p.node_id in moments) == (q.node_id in ref_moments), name
                if p.node_id in moments:
                    assert moments[p.node_id].tobytes() == ref_moments[q.node_id].tobytes()


def first_moments(net, adam):
    """The Adam first moments of ``net``'s parameters, by name."""
    return {name: adam.m[net.params[name].node_id] for name in net.params.names()
            if net.params[name].node_id in adam.m}


def assert_moments_close(got, ref):
    """One step from fresh moments makes m = (1 - beta1) g, so this holds two
    gradients to float association: to rel 1e-5, and per tensor to 1e-6 of
    its largest entry, where a sum cancels to near 0."""
    assert got.keys() == ref.keys()
    for name, m in ref.items():
        np.testing.assert_allclose(got[name], m, rtol=1e-5, atol=1e-6 * np.abs(m).max(),
                                   err_msg=name)


@pytest.mark.parametrize("label_channels", [0, 2], ids=["unlabelled", "labelled"])
def test_sliced_adversarial_step_matches_the_one_tape_step(label_channels):
    """A 16-map step runs each pass on two tapes of 8 maps; the scaled
    slice gradients add up to the whole batch's on one tape, up to float
    association."""
    ds, d_net, g_net, cfg = _pair(15, label_channels, n=16)
    nets = (d_net, g_net)
    ref_nets = tuple(Network(n.config, n.params.clone()) for n in nets)
    adams, ref_adams = (ad.AdamState(), ad.AdamState()), (ad.AdamState(), ad.AdamState())
    got = adversarial_step(ds.batch(slice(0, 16)), *nets, *adams, 1e-3, cfg)
    expect = one_tape_step(ds.batch(slice(0, 16)), *ref_nets, *ref_adams, 1e-3, cfg)
    np.testing.assert_allclose(got, expect, rtol=1e-5)
    for net, ref, adam, ref_adam in zip(nets, ref_nets, adams, ref_adams):
        assert_moments_close(first_moments(net, adam), first_moments(ref, ref_adam))


@pytest.mark.parametrize("label_channels", [0, 2], ids=["unlabelled", "labelled"])
def test_sliced_pretrain_step_matches_the_one_tape_step(label_channels):
    ds = toy_dataset(n=16, seed=16, labels=cycled_labels(16, label_channels))
    ncfg = NetConfig(resolution=32, base_filters=4, latent_dim=4, label_channels=label_channels)
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=1, pretrain_batch=16, seed=16)
    net = Network.build(ncfg, np.random.default_rng(16))
    ref = Network(ncfg, net.params.clone())
    states = []
    _, history = pretrain_discriminator(ds, ncfg, cfg, network=net,
                                        checkpoint_fn=lambda state, _: states.append(state))
    params = ref.params.tensors()
    leaf = ad.Tape().leaf(ds.y)
    loss = ad.l1_mean(leaf, ref.forward(leaf, labels=ds.labels))
    ad.backward(loss, params=params)
    ref_adam = ad.AdamState()
    ad.adam_step(params, ref_adam, 1e-3)
    assert history == [pytest.approx(float(loss.data), rel=1e-5)]
    assert_moments_close(first_moments(net, states[0].adams[0]), first_moments(ref, ref_adam))


def test_adversarial_step_peak_stays_near_a_pretrain_step():
    """One net's forward tape is live at a time: G's first forward runs off
    any tape, so D's forwards do not sit on top of G's activations. So the
    traced peak of an adversarial step stays near that of a pretrain step
    (the autoencoder update of one net) on the same batch: 1.11x, where
    keeping G's tape through D's three forwards read 1.67x."""
    ds = toy_dataset(n=8, seed=14)
    ncfg = NetConfig(resolution=32, base_filters=8, latent_dim=4)
    cfg = TrainConfig(lr=1e-3)
    d_net = Network.build(ncfg, np.random.default_rng(14))
    g_net, ae_net = (Network(ncfg, d_net.params.clone()) for _ in range(2))
    adam_d, adam_g, adam_ae = ad.AdamState(), ad.AdamState(), ad.AdamState()

    def pretrain_step():
        params = ae_net.params.tensors()
        leaf = ad.Tape().leaf(ds.y)
        loss = ad.l1_mean(leaf, ae_net.forward(leaf))
        ad.zero_grad(params)
        ad.backward(loss, params=params)
        ad.adam_step(params, adam_ae, 1e-3)

    def adv_step():
        adversarial_step((ds.x, ds.y, None), d_net, g_net, adam_d, adam_g, 1e-3, cfg)

    peaks = []
    for step in (pretrain_step, adv_step):
        step()   # warm-up: the Adam moments exist from here on
        peaks.append(traced_peak(step))
    assert peaks[1] < 1.4 * peaks[0], peaks


@pytest.mark.parametrize("ncfg", [NetConfig(32, 8, 4), NetConfig(32, 16, 16)],
                         ids=["filters8", "filters16"])
def test_adversarial_step_peak_does_not_grow_with_the_batch(ncfg):
    """Each pass runs on tapes of at most 8 maps, so a 16-map step peaks
    near an 8-map step: 1.03-1.05x, where one tape for the whole batch
    read 1.60-1.67x."""
    ds = toy_dataset(n=16, seed=17)
    cfg = TrainConfig(lr=1e-3)
    d_net = Network.build(ncfg, np.random.default_rng(17))
    g_net = Network(ncfg, d_net.params.clone())
    adam_d, adam_g = ad.AdamState(), ad.AdamState()
    peaks = []
    for n in (8, 16):
        def step():
            adversarial_step(ds.batch(slice(0, n)), d_net, g_net, adam_d, adam_g, 1e-3, cfg)

        step()   # warm-up: the Adam moments exist from here on
        peaks.append(traced_peak(step))
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_no_training_forward_runs_more_maps_than_its_cap(monkeypatch):
    """In a 16-map pretrain step and a 16-map adversarial step, every
    forward off a tape runs at most ``model._CHUNK`` maps and every forward
    on a tape at most ``training._TAPE_MAPS``."""
    ds = toy_dataset(n=16, seed=18)
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=1, pretrain_batch=16, seed=18)
    calls = []
    forward = Network.forward

    def counted(self, x, labels=None):
        taped = isinstance(x, ad.Tensor) and x._tape is not None
        calls.append((len(x.data if isinstance(x, ad.Tensor) else x), taped))
        return forward(self, x, labels=labels)

    monkeypatch.setattr(Network, "forward", counted)
    d_net, _ = pretrain_discriminator(ds, NCFG, cfg)
    g_net = Network(d_net.config, d_net.params.clone())
    adversarial_step(ds.batch(slice(0, 16)), d_net, g_net, ad.AdamState(), ad.AdamState(),
                     1e-3, cfg)
    on_tape = [n for n, taped in calls if taped]
    off_tape = [n for n, taped in calls if not taped]
    assert on_tape and off_tape and sum(off_tape) == 16
    assert max(on_tape) <= training._TAPE_MAPS, calls
    assert max(off_tape) <= model._CHUNK, calls


def test_gradient_isolation():
    ds, d_net, g_net, cfg = _pair(7)
    adversarial_step((ds.x[:2], ds.y[:2], None), d_net, g_net,
                     ad.AdamState(), ad.AdamState(), 1e-3, cfg)
    # after the step: the G update accumulated nothing into D
    for p in d_net.params.tensors():
        assert p.grad is None or not p.grad.any()
    # and the D update ran on a tape G is not part of: G's grads all come
    # from the G update (adversarial groups populated, the decoder skipped)
    trainable = {p.node_id for p in g_net.params.tensors(*ADVERSARIAL_GROUPS)}
    for p in g_net.params.tensors():
        assert (p.grad is not None) == (p.node_id in trainable)


def test_step_computes_weight_grads_only_for_trainable_params(monkeypatch):
    # D update: 13 encoder convs for each of D's two forwards; G update: 13
    # for G's encoder. None for the decoders, none for D in the G
    # update; with no freezing and no isolation the count would be 104.
    ds, d_net, g_net, cfg = _pair()
    calls = []
    weight_grad = ad._conv_weight_grad

    def counted(x, g):
        calls.append(x.shape)
        return weight_grad(x, g)

    monkeypatch.setattr(ad, "_conv_weight_grad", counted)
    adversarial_step((ds.x[:2], ds.y[:2], None), d_net, g_net,
                     ad.AdamState(), ad.AdamState(), 1e-3, cfg)
    assert len(calls) == 3 * 13


def test_decoders_bit_identical_through_training():
    ds = toy_dataset(seed=8)
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=3, pretrain_batch=4,
                      batch=4, epochs=4, seed=8)
    pretrained, _ = pretrain_discriminator(ds, NCFG, cfg)
    pre_dec = pretrained.params.checksum("decoder")
    pre_enc = pretrained.params.checksum("encoder")
    g_net, _ = train(ds, cfg, pretrained)
    # train updates the pretrained D in place
    assert pretrained.params.checksum("decoder") == pre_dec
    assert g_net.params.checksum("decoder") == pre_dec
    # encoders did move
    assert g_net.params.checksum("encoder") != pre_enc


def test_adversarial_phase_does_not_destroy_reconstruction():
    ds = toy_dataset(n=12, seed=9)
    test = toy_dataset(n=4, seed=10)
    cfg = TrainConfig(lr=2e-3, pretrain_epochs=60, pretrain_batch=4,
                      batch=4, epochs=20, seed=9)
    pretrained, _ = pretrain_discriminator(ds, NCFG, cfg)
    pre = reconstruction_l1(pretrained, test)
    g_net, _ = train(ds, cfg, pretrained)
    fin = reconstruction_l1(g_net, test)
    assert fin <= 1.05 * pre


def test_training_histories_finite():
    ds = toy_dataset(seed=11)
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=3, pretrain_batch=4,
                      batch=4, epochs=3, seed=11)
    pretrained, pretrain_history = pretrain_discriminator(ds, NCFG, cfg)
    _, history = train(ds, cfg, pretrained)
    assert np.all(np.isfinite(pretrain_history))
    assert np.all(np.isfinite(np.asarray(history)))


def test_labeled_step_runs_and_swaps_only_label_channels():
    labels = np.zeros((8, 2), dtype=np.float32)
    labels[::2, 0] = 1.0
    labels[1::2, 1] = 1.0
    ds = toy_dataset(seed=12, labels=labels)
    ncfg = NetConfig(resolution=32, base_filters=2, latent_dim=4, label_channels=2)
    cfg = TrainConfig(lr=1e-3, pretrain_epochs=2, pretrain_batch=4, seed=12)
    d_net, _ = pretrain_discriminator(ds, ncfg, cfg)
    g_net = Network(d_net.config, d_net.params.clone())
    vals = adversarial_step((ds.x[:2], ds.y[:2], ds.labels[:2]), d_net, g_net,
                            ad.AdamState(), ad.AdamState(), 1e-3, cfg)
    assert np.all(np.isfinite(vals))
