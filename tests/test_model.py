"""Network construction: shapes, parameter count, cloning, the parameter
groups each training phase updates, the bottleneck factorization, init
determinism, and the batched forward-only path over map stacks."""

import numpy as np
import pytest

from facegan3d import autodiff as ad
from facegan3d import model
from facegan3d.errors import ShapeError
from facegan3d.generation import collect_bottlenecks, decode_batch
from facegan3d.model import NetConfig, Network, batches, translate_map
from facegan3d.training import ADVERSARIAL_GROUPS, PairedDataset, reconstruction_l1

from oracles import expected_parameter_count, num_parameters, traced_peak

CFG = NetConfig(resolution=32, base_filters=2, latent_dim=4)


def small_net(seed=0, cfg=CFG):
    return Network.build(cfg, np.random.default_rng(seed))


def test_forward_shape_contract():
    net = small_net()
    x = np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32)
    assert net.forward(x).data.shape == (1, 3, 32, 32)
    assert net.encode(x)[0].data.shape == (1, 4)


@pytest.mark.parametrize("labels", [0, 2])
def test_forward_shapes_with_labels(labels):
    cfg = NetConfig(resolution=32, base_filters=2, latent_dim=4, label_channels=labels)
    net = Network.build(cfg, np.random.default_rng(0))
    x = np.zeros((2, 3, 32, 32), dtype=np.float32)
    onehot = np.eye(labels, dtype=np.float32)[[0, labels - 1]] if labels else None
    assert net.forward(x, labels=onehot).data.shape == (2, 3, 32, 32)


@pytest.mark.parametrize("labels", [0, 2])
def test_a_pass_records_only_on_the_tape_of_its_input(labels, monkeypatch):
    cfg = NetConfig(resolution=32, base_filters=2, latent_dim=4, label_channels=labels)
    net = Network.build(cfg, np.random.default_rng(0))
    x = np.zeros((2, 3, 32, 32), dtype=np.float32)
    onehot = np.eye(labels, dtype=np.float32)[[0, labels - 1]] if labels else None
    taken = []
    add = ad.Tape._add
    monkeypatch.setattr(ad.Tape, "_add", lambda tape, *rec: taken.append(tape) or add(tape, *rec))
    off = net.forward(x, labels=onehot)
    assert off._tape is None and taken == []
    tape = ad.Tape()
    out = net.forward(tape.leaf(x), labels=onehot)
    assert out._tape is tape and taken and all(t is tape for t in taken)
    assert out.data.tobytes() == off.data.tobytes()
    assert ("concat_channels" in [rec.op for rec in tape.records]) == bool(labels)


def test_parameter_count_matches_layer_arithmetic():
    # hand count for (H=32, n=2, N_b=4, L=0), from the layer table:
    # encoder 56 + 224 + 552 + 1024 + 1640 + 2400 + 2616, bottlenecks 52 + 10,
    # decoder blocks 456 + head 57, skip projections 22 + 18
    assert expected_parameter_count(CFG) == 9127
    assert num_parameters(small_net().params) == 9127


def test_parameter_count_other_config():
    cfg = NetConfig(resolution=64, base_filters=3, latent_dim=5, label_channels=2,
                    skip_levels=(16,))
    net = Network.build(cfg, np.random.default_rng(2))
    assert num_parameters(net.params) == expected_parameter_count(cfg)


def test_output_strictly_inside_tanh_range():
    net = small_net()
    rng = np.random.default_rng(3)
    out = net.forward(rng.uniform(-1, 1, (4, 3, 32, 32)).astype(np.float32)).data
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_output_strictly_inside_tanh_range_across_seeds():
    saturated = []
    for seed in range(20):
        net = small_net(seed)
        x = np.random.default_rng(seed).uniform(-1, 1, (4, 3, 32, 32)).astype(np.float32)
        if np.any(np.abs(net.forward(x).data) >= 1.0):
            saturated.append(seed)
    assert saturated == []


def test_resolution_must_divide_32():
    with pytest.raises(ShapeError):
        NetConfig(resolution=48, base_filters=2, latent_dim=4)


def test_input_shape_validated():
    net = small_net()
    with pytest.raises(ShapeError):
        net.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))


# ---------------------------------------------------------------------------
# clone


def test_clone_outputs_bit_identical():
    d = small_net(5)
    g = Network(d.config, d.params.clone())
    x = np.random.default_rng(6).uniform(-1, 1, (2, 3, 32, 32)).astype(np.float32)
    assert g.forward(x).data.tobytes() == d.forward(x).data.tobytes()
    assert g.params.checksum() == d.params.checksum()


def test_clone_never_aliases_storage():
    d = small_net(7)
    g = Network(d.config, d.params.clone())
    name = g.params.names()[0]
    before = d.params[name].data.copy()
    g.params[name].data += 1.0
    np.testing.assert_array_equal(d.params[name].data, before)


# ---------------------------------------------------------------------------
# parameter groups


def _one_step(net, x, groups=(), lr=1e-3, state=None):
    """One autoencoder step training the tensors of ``groups`` (all when
    empty)."""
    leaf = ad.Tape().leaf(x)
    loss = ad.l1_mean(leaf, net.forward(leaf))
    params = net.params.tensors(*groups)
    ad.zero_grad(params)
    ad.backward(loss, params=params)
    ad.adam_step(params, state or ad.AdamState(), lr)


def test_freeze_decoder_checksum_constant_over_steps():
    net = small_net(8)
    x = np.random.default_rng(9).uniform(-1, 1, (2, 3, 32, 32)).astype(np.float32)
    dec_before = net.params.checksum("decoder")
    enc_before = net.params.checksum("encoder")
    state = ad.AdamState()
    for _ in range(10):
        _one_step(net, x, ADVERSARIAL_GROUPS, state=state)
    assert net.params.checksum("decoder") == dec_before
    assert net.params.checksum("encoder") != enc_before


def test_all_groups_step_moves_decoder():
    # the pretraining step trains every group, decoder included
    net = small_net(10)
    x = np.random.default_rng(11).uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
    before = net.params.checksum("decoder")
    _one_step(net, x)
    assert net.params.checksum("decoder") != before


def test_skip_projections_freeze_with_decoder():
    net = small_net(12)
    trainable = {t.name for t in net.params.tensors(*ADVERSARIAL_GROUPS)}
    for lv in net.config.skip_levels:
        assert f"skip{lv}.w" not in trainable and f"skip{lv}.b" not in trainable
        assert net.params.group_of(f"skip{lv}.w") == "decoder"


# ---------------------------------------------------------------------------
# structure


def _reachable_excluding(tape, start_id, cut_edges):
    """Forward reachability over tape records, skipping (input, record) pairs
    listed in cut_edges."""
    reach = {start_id}
    for rec in tape.records:
        for t in rec.inputs:
            if t.node_id in reach and (t.node_id, id(rec)) not in cut_edges:
                reach.add(rec.output.node_id)
                break
    return reach


def test_bottleneck_factorization_structural():
    # with the bottleneck1->bottleneck2 edge and the skip projections (the
    # outputs of the tape's conv1x1 records) cut, no path leads from the
    # input to the output
    net = small_net(13)
    tape = ad.Tape()
    x = tape.leaf(np.random.default_rng(14).uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32))
    z, feats = net.encode(x)
    out = net.decode(z, skips=feats)

    projections = {rec.output.node_id for rec in tape.records if rec.op == "conv1x1"}
    assert len(projections) == len(net.config.skip_levels)
    cut = set()
    for rec in tape.records:
        for t in rec.inputs:
            if t.node_id == z.node_id or t.node_id in projections:
                cut.add((t.node_id, id(rec)))
    assert len(cut) >= 1 + len(net.config.skip_levels)

    reach_full = _reachable_excluding(tape, x.node_id, set())
    assert out.node_id in reach_full
    assert z.node_id in reach_full
    reach_cut = _reachable_excluding(tape, x.node_id, cut)
    assert out.node_id not in reach_cut


def test_forward_records_one_conv_elu_per_conv_block_half():
    tape = ad.Tape()
    x = tape.leaf(np.zeros((1, 3, 32, 32), dtype=np.float32))
    small_net(18).forward(x)
    ops = [rec.op for rec in tape.records]
    assert ops.count("conv_elu") == 25
    assert ops.count("conv2d") == 1
    assert "elu" not in ops
    assert len(ops) == 45


def test_decode_never_touches_encoder_params():
    net = small_net(15)
    tape = ad.Tape()
    z = tape.leaf(np.zeros((1, 4), dtype=np.float32))
    net.decode(z)
    touched = {t.name for rec in tape.records for t in rec.inputs if t.name}
    enc_names = {n for n in net.params.names()
                 if net.params.group_of(n) in ("encoder", "bottleneck1")}
    assert touched.isdisjoint(enc_names)


def test_decode_matches_forward_when_skips_substituted():
    net = small_net(16)
    x = np.random.default_rng(17).uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
    out = net.forward(x)
    z, feats = net.encode(x)
    skips = {lv: ad.Tensor(feats[lv].data) for lv in net.config.skip_levels}
    again = net.decode(z.data, skips=skips)
    np.testing.assert_array_equal(again.data, out.data)
    # the decoder-only path (no skip features) is deterministic
    d1 = net.decode(z.data)
    d2 = net.decode(z.data)
    assert d1.data.tobytes() == d2.data.tobytes()


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_init_and_forward():
    a = small_net(21)
    b = small_net(21)
    assert a.params.checksum() == b.params.checksum()
    x = np.random.default_rng(22).uniform(-1, 1, (1, 3, 32, 32)).astype(np.float32)
    assert a.forward(x).data.tobytes() == b.forward(x).data.tobytes()


def test_different_seed_different_init():
    assert small_net(23).params.checksum() != small_net(24).params.checksum()


# ---------------------------------------------------------------------------
# forward-only stacks


def test_batches_tile_the_range_in_even_slices():
    for cap in (model._CHUNK, 3, 8):
        for n in range(5 * cap + 2):
            cuts = batches(n) if cap == model._CHUNK else batches(n, cap)
            sizes = [c.stop - c.start for c in cuts]
            assert [i for c in cuts for i in range(n)[c]] == list(range(n))
            assert max(sizes, default=0) <= cap
            assert max(sizes, default=0) - min(sizes, default=0) <= 1
            assert len(cuts) == -(-n // cap)


@pytest.mark.parametrize("labels", [0, 2])
@pytest.mark.parametrize("res", [32, 64])
def test_every_row_of_a_chunked_path_is_that_row_run_alone(res, labels):
    """translate_map, collect_bottlenecks, decode_batch and
    reconstruction_l1 run 19 maps in slices of 1-2; each row's result is
    bitwise the same row run alone. At filters 16 the level-16 skip
    projection has 80 channels on 2x2 (res 32) or 4x4 (res 64) maps."""
    n = 19
    net = small_net(cfg=NetConfig(resolution=res, base_filters=16, latent_dim=16,
                                  label_channels=labels))
    rng = np.random.default_rng(n)
    x = rng.uniform(-1, 1, (n, 3, res, res)).astype(np.float32)
    onehots = np.eye(labels, dtype=np.float32)[rng.integers(0, labels, n)] if labels else None
    zs = rng.standard_normal((16, n))
    rows = [slice(i, i + 1) for i in range(n)]
    alone = np.concatenate(
        [translate_map(net, x[r], None if onehots is None else onehots[r]) for r in rows])
    np.testing.assert_array_equal(translate_map(net, x, onehots), alone)
    np.testing.assert_array_equal(
        collect_bottlenecks(net, x, onehots),
        np.concatenate([collect_bottlenecks(net, x[r], None if onehots is None else onehots[r])
                        for r in rows], axis=1))
    np.testing.assert_array_equal(decode_batch(net, zs),
                                  np.concatenate([decode_batch(net, zs[:, r]) for r in rows]))
    # targets a little off the outputs keep a one-row difference from
    # vanishing in the mean over 19 samples
    y = alone + np.float32(1e-3) * rng.standard_normal(alone.shape, dtype=np.float32)
    assert reconstruction_l1(net, PairedDataset(x, y, onehots)) == \
        float(np.mean(np.mean(np.abs(alone - y), axis=(1, 2, 3))))


def test_translate_map_peak_is_two_maps_widest_activation_and_one_row_tap_buffer():
    """16 res-64 maps at filters 16: the widest conv, enc.block1's 32-channel
    64x64 one, holds its input and output for a 2-map slice beside one
    sample's row taps (3 column-shifted planes of its input, each with a
    zero row above and below) and one kernel row's product; the 16 outputs
    and their concatenation come on top, with 0.5 MiB for the ELU chunk,
    the input leaf and small arrays. 4-map slices read 7.65 MiB and 8-map
    ones 12.5 MiB against this 6.05 MiB. The conv workspace starts empty,
    so the row taps and the product are counted whatever ran before."""
    res, n = 64, 16
    net = small_net(cfg=NetConfig(resolution=res, base_filters=n, latent_dim=16))
    x = np.random.default_rng(5).uniform(-1, 1, (16, 3, res, res)).astype(np.float32)
    ad._scratch.buf = None
    widest = 2 * (2 * n) * res * res * 4
    row_taps = (2 * n) * 3 * (res + 2) * res * 4
    row_product = (2 * n) * res * res * 4
    bound = 2 * widest + row_taps + row_product + 2 * x.nbytes + (1 << 19)
    peak = traced_peak(lambda: translate_map(net, x))
    assert peak <= bound, (peak, bound)


def test_translate_map_of_an_empty_stack_is_empty():
    net = small_net()
    assert translate_map(net, np.zeros((0, 3, 32, 32), dtype=np.float32)).shape == \
        (0, 3, 32, 32)
