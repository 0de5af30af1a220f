"""Two-phase training protocol.

Phase 1 (``pretrain_discriminator``) pre-trains the discriminator as a
plain autoencoder on the real target maps. Phase 2 (``train``) clones the
generator from it, freezes both decoders, and alternates one discriminator
update and one generator update per batch. Both phases resume from a
``TrainState`` and hand one to their ``checkpoint_fn`` on each due epoch.
With L(v) = ||v - D(v)||_1 (elementwise mean):

    L_D = E[L(y)] - lambda_adv * E[L(G(x))]
    L_G = E[L(G(x))] + lambda_rec * E||G(x) - y||_1

During the D update the generator output is detached; during the G update
the gradient flows through all of D but D's parameters are not in the G
update's list (each update trains its net's ``params.trainable()``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape
from .errors import NonFiniteError, NumericalError, ShapeError
from .model import (NetConfig, Network, clone_generator_from_discriminator,
                    freeze_decoder)


@dataclass
class TrainConfig:
    lambda_adv: float = 1e-3
    lambda_rec: float = 1.0
    lr: float = 5e-5
    lr_decay: float = 0.95          # 5% every `lr_decay_every` epochs
    lr_decay_every: int = 30
    pretrain_batch: int = 32
    pretrain_epochs: int = 300
    batch: int = 16
    epochs: int = 300
    seed: int = 0
    checkpoint_every: int = 0       # 0 = only each phase's last epoch

    def __post_init__(self):
        for name, low in (("lambda_adv", 0), ("lambda_rec", 0), ("lr", 0), ("lr_decay", 0),
                          ("batch", 1), ("pretrain_batch", 1), ("lr_decay_every", 1),
                          ("checkpoint_every", 0)):
            if not getattr(self, name) >= low:   # NaN fails too
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Learning rate for a 1-based epoch within a phase."""
    if epoch < 1:
        raise ValueError("epochs are 1-based")
    return config.lr * config.lr_decay ** ((epoch - 1) // config.lr_decay_every)


@dataclass
class PairedDataset:
    """Input/target UV map pairs (y == x for the autoencoding task), with
    optional one-hot labels, all channels-first float32."""

    x: np.ndarray                      # (N, 3, H, W)
    y: np.ndarray                      # (N, 3, H, W)
    labels: np.ndarray | None = None   # (N, L) one-hot

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float32)
        self.y = np.asarray(self.y, dtype=np.float32)
        if self.x.shape != self.y.shape:
            raise ShapeError(f"x/y shape mismatch: {self.x.shape} vs {self.y.shape}")
        if self.x.ndim != 4 or self.x.shape[1] != 3:
            raise ShapeError(f"maps must be (N, 3, H, W), got {self.x.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.float32)
            if len(self.labels) != len(self.x):
                raise ShapeError("labels length mismatch")

    def __len__(self):
        return len(self.x)

    @property
    def num_label_channels(self) -> int:
        return 0 if self.labels is None else self.labels.shape[1]

    @property
    def resolution(self) -> int:
        return self.x.shape[2]


@dataclass
class TrainState:
    """Everything needed to resume a phase mid-run."""
    epoch: int                      # last completed epoch
    adam_d: AdamState
    adam_g: AdamState | None        # None while pretraining
    rng_state: dict
    history: list                   # the per-epoch losses of epochs 1..epoch


def _checkpoint_due(epoch: int, last: int, config: TrainConfig) -> bool:
    """Every ``checkpoint_every`` epochs, and always at a phase's last one."""
    every = config.checkpoint_every
    return epoch == last or (every > 0 and epoch % every == 0)


def _batches(n: int, batch: int, perm: np.ndarray):
    for i in range(0, n, batch):
        yield perm[i:i + batch]


def pretrain_discriminator(dataset: PairedDataset, net_config: NetConfig,
                           config: TrainConfig,
                           network: Network | None = None,
                           state: TrainState | None = None,
                           checkpoint_fn=None) -> tuple[Network, list[float]]:
    """Train the discriminator as an autoencoder of the real targets, from
    ``state`` when resuming. Returns the network and the per-epoch mean
    reconstruction loss of every epoch so far. On a due epoch it calls
    ``checkpoint_fn(state, network)``."""
    if len(dataset) == 0:
        raise ValueError("pretraining needs a non-empty dataset")
    rng = np.random.default_rng(config.seed)
    if network is None:
        network = Network.build(net_config, rng)
    state = state or TrainState(0, AdamState(), None, rng.bit_generator.state, [])
    rng.bit_generator.state = state.rng_state
    adam, history = state.adam_d, list(state.history)
    params = network.params.trainable()
    n = len(dataset)
    for epoch in range(state.epoch + 1, config.pretrain_epochs + 1):
        lr = lr_at(epoch, config)
        perm = rng.permutation(n)
        losses = []
        for idx in _batches(n, config.pretrain_batch, perm):
            y = dataset.y[idx]
            labels = None if dataset.labels is None else dataset.labels[idx]
            tape = Tape()
            fp = network.forward(y, tape, labels=labels)
            try:
                loss = ad.l1_mean(tape.leaf(y), fp.output)
            except NonFiniteError as e:
                raise NumericalError(f"pretrain epoch {epoch}: {e}") from e
            ad.zero_grad(params)
            ad.backward(tape, loss, params=params)
            ad.adam_step(params, adam, lr)
            losses.append(float(loss.data))
        history.append(float(np.mean(losses)))
        if not np.isfinite(history[-1]):
            raise NumericalError(f"pretrain diverged at epoch {epoch}: loss={history[-1]}")
        if checkpoint_fn is not None and _checkpoint_due(epoch, config.pretrain_epochs, config):
            checkpoint_fn(TrainState(epoch, adam, None, rng.bit_generator.state, history),
                          network)
    return network, history


def adversarial_step(batch: tuple[np.ndarray, np.ndarray, np.ndarray | None],
                     d_net: Network, g_net: Network,
                     adam_d: AdamState, adam_g: AdamState,
                     lr: float, config: TrainConfig,
                     return_internals: bool = False):
    """One D update followed by one G update on a batch.

    Returns (L_D, L_G, L_rec) as floats; with ``return_internals`` also a
    dict of the raw forward outputs the losses were computed from, for
    recomputing the loss formulas outside the engine.
    """
    x, y, labels = batch
    d_params = d_net.params.trainable()
    g_params = g_net.params.trainable()

    # generator forward (kept on its tape for the G update)
    tape = Tape()
    g_fp = g_net.forward(x, tape, labels=labels)
    gx = g_fp.output

    try:
        # ---- D update: generator output is a constant here
        tape_d = Tape()
        gx_const = gx.data.copy()
        dy_fp = d_net.forward(y, tape_d, labels=labels)
        dgx_fp = d_net.forward(gx_const, tape_d, labels=labels)
        loss_real = ad.l1_mean(tape_d.leaf(y), dy_fp.output)
        loss_fake_pre = ad.l1_mean(tape_d.leaf(gx_const), dgx_fp.output)
        l_d = ad.add(loss_real, ad.scale(loss_fake_pre, -config.lambda_adv))
        ad.zero_grad(d_params)
        ad.backward(tape_d, l_d, params=d_params)
        ad.adam_step(d_params, adam_d, lr)
        # all of D, frozen decoder too, so the G update's isolation shows
        ad.zero_grad(d_net.params.tensors())

        # ---- G update: gradient flows through the updated D, whose
        # parameters are not in the list and so stay constant for this step
        dgx_fp2 = d_net.forward(gx, tape, labels=labels)
        loss_adv = ad.l1_mean(gx, dgx_fp2.output)
        loss_rec = ad.l1_mean(gx, tape.leaf(y))
        l_g = ad.add(loss_adv, ad.scale(loss_rec, config.lambda_rec))
        ad.zero_grad(g_params)
        ad.backward(tape, l_g, params=g_params)
        ad.adam_step(g_params, adam_g, lr)
    except NonFiniteError as e:
        raise NumericalError(str(e)) from e

    vals = (float(l_d.data), float(l_g.data), float(loss_rec.data))
    if not return_internals:
        return vals
    internals = {
        "x": x.copy(), "y": y.copy(), "gx": gx_const,
        "d_y": dy_fp.output.data.copy(),
        "d_gx_pre": dgx_fp.output.data.copy(),
        "d_gx_post": dgx_fp2.output.data.copy(),
        "loss_real": float(loss_real.data),
        "loss_fake_pre": float(loss_fake_pre.data),
        "loss_adv": float(loss_adv.data),
    }
    return vals, internals


@dataclass
class TrainResult:
    discriminator: Network
    generator: Network
    history: list[tuple[float, float, float]]   # (L_D, L_G, L_rec) per epoch


def train(dataset: PairedDataset, config: TrainConfig, d_net: Network,
          g_net: Network | None = None, state: TrainState | None = None,
          checkpoint_fn=None) -> TrainResult:
    """The adversarial phase. Without ``g_net``, G is cloned from the
    pretrained ``d_net`` and both decoders are frozen; with ``g_net`` and
    ``state`` a checkpointed run resumes. ``history`` covers every epoch so
    far. On a due epoch it calls ``checkpoint_fn(state, d_net, g_net)``."""
    if g_net is None:
        g_net = clone_generator_from_discriminator(d_net)
        freeze_decoder(d_net.params)
        freeze_decoder(g_net.params)
    rng = np.random.default_rng(config.seed + 1)
    state = state or TrainState(0, AdamState(), AdamState(), rng.bit_generator.state, [])
    rng.bit_generator.state = state.rng_state
    adam_d, adam_g, history = state.adam_d, state.adam_g, list(state.history)
    n = len(dataset)
    for epoch in range(state.epoch + 1, config.epochs + 1):
        lr = lr_at(epoch, config)
        perm = rng.permutation(n)
        epoch_vals = []
        for idx in _batches(n, config.batch, perm):
            labels = None if dataset.labels is None else dataset.labels[idx]
            try:
                vals = adversarial_step((dataset.x[idx], dataset.y[idx], labels),
                                        d_net, g_net, adam_d, adam_g, lr, config)
            except NumericalError as e:
                raise NumericalError(f"adversarial epoch {epoch}: {e}") from e
            epoch_vals.append(vals)
        history.append(tuple(float(v) for v in np.mean(epoch_vals, axis=0)))
        if checkpoint_fn is not None and _checkpoint_due(epoch, config.epochs, config):
            checkpoint_fn(TrainState(epoch, adam_d, adam_g, rng.bit_generator.state, history),
                          d_net, g_net)
    return TrainResult(d_net, g_net, history)


def reconstruction_l1(net: Network, dataset: PairedDataset, batch: int = 32) -> float:
    """Mean over samples of the elementwise-mean L1 between G(x) and y."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    vals = []
    for i in range(0, len(dataset), batch):
        x = dataset.x[i:i + batch]
        labels = None if dataset.labels is None else dataset.labels[i:i + batch]
        out = net.forward(x, labels=labels).output.data
        vals.append(np.mean(np.abs(out - dataset.y[i:i + batch]), axis=(1, 2, 3)))
    return float(np.mean(np.concatenate(vals)))
