"""Two-phase training protocol.

Phase 1 (``pretrain_discriminator``) pre-trains all of the discriminator
as a plain autoencoder on the real target maps. Phase 2 (``train``) clones
the generator from it and alternates one discriminator update and one
generator update per batch; each update trains only its net's
``ADVERSARIAL_GROUPS``, so both decoders stay as pretrained. Both phases
run through one epoch loop, ``_run_phase``, which owns the lr schedule,
the shuffle, the batching, the per-epoch loss means and the checkpoint
cadence: it resumes from a ``TrainState`` and hands one to the phase's
``checkpoint_fn`` on each due epoch; a phase supplies only its per-batch
step.

With L(v) = ||v - D(v)||_1 (elementwise mean):

    L_D = E[L(y)] - lambda_adv * E[L(G(x))]
    L_G = E[L(G(x))] + lambda_rec * E||G(x) - y||_1

During the D update the generator output is a constant; during the G
update the gradient flows through all of D but D's parameters are not in
the G update's list (each update trains its own net's
``ADVERSARIAL_GROUPS``). So that at most one net's forward is live on a
tape at a time, G runs twice per step: once off any tape, for the output
that the D update reads, and once more on its own tape for the G update.
The two terms of L_D are backpropagated on separate tapes, one after the
other. The G update's pass through the updated D has its own tape too,
from a leaf that holds G(x): its backward yields dL_G/dG(x), and G's
second forward backpropagates from that gradient. Each D parameter's
gradient is the same two contributions as on one tape, and a two-term
float sum does not depend on its order; dL_G/dG(x) is summed in the
one-tape order. So the step is bitwise the one-tape step, which
``test_two_tape_d_update_is_the_one_tape_update_bitwise`` pins with and
without labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape
from .errors import NonFiniteError, NumericalError, ShapeError
from .model import NetConfig, Network, translate_map

# The parameter groups of D and G that the adversarial phase trains; both
# decoders (with the skip projections) stay as pretrained.
ADVERSARIAL_GROUPS = ("encoder", "bottleneck1", "bottleneck2")


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
                          ("checkpoint_every", 0), ("seed", 0)):
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

    def batch(self, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The samples at ``idx`` (an index array or a slice) as (x, y, labels)."""
        return self.x[idx], self.y[idx], None if self.labels is None else self.labels[idx]

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
    adams: tuple[AdamState, ...]    # one per network, D first
    rng_state: dict
    history: list                   # the per-epoch losses of epochs 1..epoch


def _checkpoint_due(epoch: int, last: int, config: TrainConfig) -> bool:
    """Every ``checkpoint_every`` epochs, and always at a phase's last one."""
    every = config.checkpoint_every
    return epoch == last or (every > 0 and epoch % every == 0)


def _run_phase(phase: str, dataset: PairedDataset, config: TrainConfig, batch: int,
               last: int, rng: np.random.Generator, nets: tuple[Network, ...],
               state: TrainState | None, step, checkpoint_fn) -> list:
    """The epoch loop of both phases. From ``state``, or else from epoch 0
    with fresh Adam moments per net and ``rng`` as it stands, each epoch
    up to ``last`` shuffles the dataset and calls ``step(batch, adams, lr)``
    on each ``batch``-sized slice of it; ``step`` returns the batch's
    losses as floats. Returns the per-epoch mean losses of every epoch so
    far; on a due epoch calls ``checkpoint_fn(state, *nets)``. A
    non-finite value anywhere in a step is a NumericalError naming the
    phase and epoch."""
    state = state or TrainState(0, tuple(AdamState() for _ in nets), rng.bit_generator.state, [])
    rng.bit_generator.state = state.rng_state
    history = list(state.history)
    n = len(dataset)
    for epoch in range(state.epoch + 1, last + 1):
        lr = lr_at(epoch, config)
        perm = rng.permutation(n)
        try:
            losses = [step(dataset.batch(perm[i:i + batch]), state.adams, lr)
                      for i in range(0, n, batch)]
        except NonFiniteError as e:
            raise NumericalError(f"{phase} epoch {epoch}: {e}") from e
        history.append(np.mean(losses, axis=0).tolist())
        if checkpoint_fn is not None and _checkpoint_due(epoch, last, config):
            checkpoint_fn(TrainState(epoch, state.adams, rng.bit_generator.state, history),
                          *nets)
    return history


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
    params = network.params.tensors()

    def step(batch, adams, lr):
        _, y, labels = batch
        tape = Tape()
        fp = network.forward(y, tape, labels=labels)
        loss = ad.l1_mean(tape.leaf(y), fp.output)
        ad.zero_grad(params)
        ad.backward(tape, loss, params=params)
        ad.adam_step(params, adams[0], lr)
        return float(loss.data)

    history = _run_phase("pretrain", dataset, config, config.pretrain_batch,
                         config.pretrain_epochs, rng, (network,), state, step, checkpoint_fn)
    return network, history


def adversarial_step(batch: tuple[np.ndarray, np.ndarray, np.ndarray | None],
                     d_net: Network, g_net: Network,
                     adam_d: AdamState, adam_g: AdamState,
                     lr: float, config: TrainConfig) -> tuple[float, float, float]:
    """One D update followed by one G update on a batch. Returns (L_D, L_G,
    L_rec) as floats."""
    x, y, labels = batch
    d_params = d_net.params.tensors(*ADVERSARIAL_GROUPS)
    g_params = g_net.params.tensors(*ADVERSARIAL_GROUPS)

    # generator forward off any tape: only the D update reads its output
    gx = g_net.forward(x, labels=labels).output.data

    # ---- D update: generator output is a constant here. The two terms
    # share only D's parameters, so each is backpropagated on its own tape,
    # and one D forward is live at a time. backward adds into p.grad, so
    # each parameter gets the same two contributions as on one tape, and
    # their float sum is the same either way round.
    ad.zero_grad(d_params)
    tape_d = Tape()
    loss_fake = ad.scale(ad.l1_mean(tape_d.leaf(gx),
                                    d_net.forward(gx, tape_d, labels=labels).output),
                         -config.lambda_adv)
    ad.backward(tape_d, loss_fake, params=d_params)
    tape_d = Tape()
    loss_real = ad.l1_mean(tape_d.leaf(y), d_net.forward(y, tape_d, labels=labels).output)
    ad.backward(tape_d, loss_real, params=d_params)
    ad.adam_step(d_params, adam_d, lr)
    l_d = loss_real.data + loss_fake.data   # the float32 add of ad.add
    # all of D, decoder too, so the G update's isolation shows
    ad.zero_grad(d_net.params.tensors())

    # ---- G update: gradient flows through the updated D, whose
    # parameters are not in the list and so stay constant for this step.
    # D's pass runs on its own tape from a leaf holding G(x), which
    # collects dL_G/dG(x) in the one-tape order; then G's forward runs
    # again, on G's tape, and backpropagates from that gradient.
    tape_d = Tape()
    gx_leaf = tape_d.leaf(gx)
    loss_adv = ad.l1_mean(gx_leaf, d_net.forward(gx_leaf, tape_d, labels=labels).output)
    loss_rec = ad.l1_mean(gx_leaf, tape_d.leaf(y))
    l_g = ad.add(loss_adv, ad.scale(loss_rec, config.lambda_rec))
    ad.backward(tape_d, l_g, params=[gx_leaf])
    tape = Tape()
    ad.zero_grad(g_params)
    ad.backward(tape, g_net.forward(x, tape, labels=labels).output, params=g_params,
                grad=gx_leaf.grad)
    ad.adam_step(g_params, adam_g, lr)
    return float(l_d), float(l_g.data), float(loss_rec.data)


@dataclass
class TrainResult:
    discriminator: Network
    generator: Network
    history: list[list[float]]   # [L_D, L_G, L_rec] per epoch


def train(dataset: PairedDataset, config: TrainConfig, d_net: Network,
          g_net: Network | None = None, state: TrainState | None = None,
          checkpoint_fn=None) -> TrainResult:
    """The adversarial phase, which trains ``ADVERSARIAL_GROUPS`` of D and
    G. Without ``g_net``, G is a copy of the pretrained ``d_net``; with
    ``g_net`` and ``state`` a checkpointed run resumes. ``history`` covers
    every epoch so far. On a due epoch it calls
    ``checkpoint_fn(state, d_net, g_net)``."""
    if g_net is None:
        g_net = Network(d_net.config, d_net.params.clone())

    def step(batch, adams, lr):
        return adversarial_step(batch, d_net, g_net, *adams, lr, config)

    history = _run_phase("adversarial", dataset, config, config.batch, config.epochs,
                         np.random.default_rng(config.seed + 1), (d_net, g_net), state,
                         step, checkpoint_fn)
    return TrainResult(d_net, g_net, history)


def reconstruction_l1(net: Network, dataset: PairedDataset) -> float:
    """Mean over samples of the elementwise-mean L1 between G(x) and y,
    with G run by :func:`model.translate_map`."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    out = translate_map(net, dataset.x, dataset.labels)
    return float(np.mean(np.mean(np.abs(out - dataset.y), axis=(1, 2, 3))))
