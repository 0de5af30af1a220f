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
``ADVERSARIAL_GROUPS``).

A pass records on the tape of its input: a pass on a tape starts from a
``Tape().leaf`` of its maps, and backward follows only the paths from the
params it is given, so a leaf that is no param gets no gradient. A tape
holds its pass's activations, so its size grows with the number of maps
on it. Every pass on a tape therefore runs on the even slices of the batch
that ``model.batches(n, _TAPE_MAPS)`` gives, one tape per slice, and
each slice's loss is scaled by its share of the batch, so the
gradients that the slices add into ``p.grad`` sum to the gradient of the
batch mean before each Adam step. The reported losses are the scaled
slice losses, summed in float32 in slice order. One net's tape is live
at a time: G runs once off any tape, through ``model.translate_map`` (the
one forward-only path, in slices of ``model._CHUNK`` maps), for the output
that the D update reads, and once more per slice on its own tape for the
G update. ``_l1_pass`` runs one weighted L(v) on a tape of its own and
backpropagates it: the pretrain step calls it once per slice, and the D
update twice, L_D's fake term and then its real term, one tape after the
other. The G update's pass through the updated D has its own tape too,
from a leaf that holds the slice of G(x): its backward yields dL_G/dG(x),
and G's forward on that slice backpropagates from that gradient. A batch
of at most ``_TAPE_MAPS`` maps is one slice, whose share is exactly 1;
each D parameter's gradient is then the same two contributions as on one
tape, a two-term float sum does not depend on its order, and dL_G/dG(x)
is summed in the one-tape order. So such a step is bitwise the one-tape
step, which ``test_two_tape_d_update_is_the_one_tape_update_bitwise``
pins with and without labels. A larger batch's step matches the one-tape
step up to float association: each dW is summed slice by slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape, Tensor
from .errors import NonFiniteError, NumericalError, ShapeError
from .model import NetConfig, Network, batches, translate_map

# The parameter groups of D and G that the adversarial phase trains; both
# decoders (with the skip projections) stay as pretrained.
ADVERSARIAL_GROUPS = ("encoder", "bottleneck1", "bottleneck2")

# Most maps on one tape. One map's tape is about 0.78 MB at res 32 and
# filters 16, and scales to about 0.4 GB at the default res 256 and
# filters 128. Smaller slices cost time, as more, thinner GEMMs and more
# per-op overhead, and below 4 maps the tape no longer sets the RSS peak. On
# the benchmark's train workload (res 32, filters 16, batch 16), where the
# whole batch on one tape read 80.1 MB and 1.49 s, medians over
# alternating pairs of runs:
#
#   slice size | train peak_rss_mb | train phase_s
#   8          | 69.3 MB           | no resolvable change (+1.0%, 30 pairs)
#   4          | 66.4 MB           | +0.5% to +8% against 8 (10 pairs)
#   2          | 66.2 MB           | +30% to +51% against 8 (10 pairs)
_TAPE_MAPS = 8


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
            if not low <= getattr(self, name) < np.inf:   # NaN fails too
                raise ValueError(f"{name} must be finite and >= {low}, "
                                 f"got {getattr(self, name)}")


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
        ad.zero_grad(params)
        loss = np.float32(0)
        for s, share in _slices(len(y)):
            loss += _l1_pass(network, y[s], _rows(labels, s), share, params)
        ad.adam_step(params, adams[0], lr)
        return float(loss)

    history = _run_phase("pretrain", dataset, config, config.pretrain_batch,
                         config.pretrain_epochs, rng, (network,), state, step, checkpoint_fn)
    return network, history


def _slices(n: int) -> list[tuple[slice, float]]:
    """The tape slices of a batch of ``n`` maps, each with its share of
    the batch."""
    return [(s, (s.stop - s.start) / n) for s in batches(n, _TAPE_MAPS)]


def _rows(labels: np.ndarray | None, s: slice) -> np.ndarray | None:
    return None if labels is None else labels[s]


def _l1_pass(net: Network, v: np.ndarray, labels: np.ndarray | None, weight: float,
             params: list) -> np.ndarray:
    """``weight`` * L(v), with L(v) = ||v - net(v)||_1, on a tape of its
    own, backpropagated into ``params``. Returns the loss value."""
    leaf = Tape().leaf(v)
    loss = ad.scale(ad.l1_mean(leaf, net.forward(leaf, labels=labels)), weight)
    ad.backward(loss, params=params)
    return loss.data


def adversarial_step(batch: tuple[np.ndarray, np.ndarray, np.ndarray | None],
                     d_net: Network, g_net: Network,
                     adam_d: AdamState, adam_g: AdamState,
                     lr: float, config: TrainConfig) -> tuple[float, float, float]:
    """One D update followed by one G update on a batch, each pass on a
    tape run on slices of at most ``_TAPE_MAPS`` maps whose scaled
    gradients add up to the batch's. Returns (L_D, L_G, L_rec) as
    floats."""
    x, y, labels = batch
    d_params = d_net.params.tensors(*ADVERSARIAL_GROUPS)
    g_params = g_net.params.tensors(*ADVERSARIAL_GROUPS)
    # the previous step's G grads are not read again: drop them before D's
    # passes, so they are not live under D's tapes
    ad.zero_grad(g_params)
    slices = _slices(len(x))

    # generator forward off any tape: only the D update reads its output
    gx = translate_map(g_net, x, labels)

    # ---- D update: generator output is a constant here. The two terms
    # share only D's parameters, so each is backpropagated on its own tape,
    # and one D forward is live at a time. backward adds into p.grad, so
    # each parameter gets the same contributions as on one tape.
    ad.zero_grad(d_params)
    loss_fake = loss_real = np.float32(0)
    for s, share in slices:
        lab = _rows(labels, s)
        loss_fake += _l1_pass(d_net, gx[s], lab, -config.lambda_adv * share, d_params)
        loss_real += _l1_pass(d_net, y[s], lab, share, d_params)
    ad.adam_step(d_params, adam_d, lr)
    l_d = loss_real + loss_fake   # the float32 add of ad.add
    # all of D, decoder too, so the G update's isolation shows
    ad.zero_grad(d_net.params.tensors())

    # ---- G update: gradient flows through the updated D, whose
    # parameters are not in the list and so stay constant for this step.
    # Per slice, D's pass runs on its own tape from a leaf holding that
    # slice of G(x), which collects dL_G/dG(x) in the one-tape order; then
    # G's forward on the slice runs again, on G's tape, and backpropagates
    # from that gradient.
    l_g = l_rec = np.float32(0)
    for s, share in slices:
        lab = _rows(labels, s)
        gx_leaf = Tape().leaf(gx[s])
        adv = ad.scale(ad.l1_mean(gx_leaf, d_net.forward(gx_leaf, labels=lab)), share)
        rec = ad.scale(ad.l1_mean(gx_leaf, Tensor(y[s])), share)
        part = ad.add(adv, ad.scale(rec, config.lambda_rec))
        ad.backward(part, params=[gx_leaf])
        ad.backward(g_net.forward(Tape().leaf(x[s]), labels=lab), params=g_params,
                    grad=gx_leaf.grad)
        l_g += part.data
        l_rec += rec.data
    ad.adam_step(g_params, adam_g, lr)
    return float(l_d), float(l_g), float(l_rec)


def train(dataset: PairedDataset, config: TrainConfig, d_net: Network,
          g_net: Network | None = None, state: TrainState | None = None,
          checkpoint_fn=None) -> tuple[Network, list[list[float]]]:
    """The adversarial phase, which trains ``ADVERSARIAL_GROUPS`` of D and
    G; ``d_net`` is trained in place. Without ``g_net``, G is a copy of the
    pretrained ``d_net``; with ``g_net`` and ``state`` a checkpointed run
    resumes. Returns G and the per-epoch [L_D, L_G, L_rec] of every epoch so
    far. On a due epoch it calls ``checkpoint_fn(state, d_net, g_net)``."""
    if g_net is None:
        g_net = Network(d_net.config, d_net.params.clone())

    def step(batch, adams, lr):
        return adversarial_step(batch, d_net, g_net, *adams, lr, config)

    history = _run_phase("adversarial", dataset, config, config.batch, config.epochs,
                         np.random.default_rng(config.seed + 1), (d_net, g_net), state,
                         step, checkpoint_fn)
    return g_net, history


def reconstruction_l1(net: Network, dataset: PairedDataset) -> float:
    """Mean over samples of the elementwise-mean L1 between G(x) and y,
    with G run by :func:`model.translate_map`."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    out = translate_map(net, dataset.x, dataset.labels)
    return float(np.mean(np.mean(np.abs(out - dataset.y), axis=(1, 2, 3))))
