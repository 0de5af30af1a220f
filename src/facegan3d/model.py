"""The encoder / bottleneck / decoder network used for both the
discriminator and the generator (their architectures are identical).

The net's input is the 3 position channels of a UV map. With L labels
the net itself appends one constant plane per entry of each sample's
one-hot label vector, so its first conv sees 3+L channels.

No pass takes a tape: each op records on the tape of its inputs. A pass
of a leaf made by ``Tape.leaf`` records on that leaf's tape, and a pass
of an array or of an off-tape Tensor records nothing.

Layout for input resolution H (divisible by 32) and base filter count n:

* encoder: 3x3 conv (3+L -> n) + ELU, then five conv blocks growing the
  channels n -> 2n -> 3n -> 4n -> 5n -> 6n, each followed by 2x2 average
  pooling, then a final conv block (6n -> 6n) at H/32.
* bottleneck: FC to the latent vector (size N_b), FC back up to
  n * (H/32)^2, reshaped to (n, H/32, H/32).
* decoder: six deconv blocks (n -> n), the first five each followed by
  nearest upsampling, then a 3x3 conv (n -> 3) + tanh head.

A conv block is two 3x3 convs, each followed by ELU: two ``conv_elu``
ops, which fuse conv, bias and ELU. Encoder features at
the configured skip resolutions pass through learned 1x1 projections and
are added to the matching decoder stage inputs; the projections belong to
the decoder parameter group, so the adversarial phase, which trains only
the encoder and bottlenecks, leaves them as pretrained.

Weights are drawn uniform and biases start at 0. Every conv that ELU
follows, the bottleneck FCs and the skip projections use He's bound
sqrt(6/fan_in) (gain 2); the tanh head uses gain 1, sqrt(3/fan_in), so
that a fresh net's outputs stay strictly inside (-1, 1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

GROUPS = ("encoder", "bottleneck1", "bottleneck2", "decoder")
ENC_CHANNEL_STEPS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class NetConfig:
    resolution: int = 256
    base_filters: int = 128
    latent_dim: int = 128
    label_channels: int = 0
    skip_levels: tuple[int, ...] = (16, 8)   # add encoder features at H/level

    def __post_init__(self):
        if self.resolution % 32:
            raise ShapeError(f"resolution must be divisible by 32, got {self.resolution}")
        if self.base_filters < 1 or self.latent_dim < 1:
            raise ShapeError("base_filters and latent_dim must be >= 1")
        lvs = self.skip_levels
        if len(set(lvs)) != len(lvs) or not set(lvs) <= {2, 4, 8, 16, 32}:
            raise ShapeError(f"skip_levels must be distinct, each one of 2/4/8/16/32, "
                             f"got {lvs}")

    @property
    def in_channels(self) -> int:
        return 3 + self.label_channels


class NetParams:
    """Ordered named parameter tensors, partitioned into encoder /
    bottleneck1 / bottleneck2 / decoder groups."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}

    def add(self, name: str, tensor: Tensor, group: str):
        if group not in GROUPS or name in self._tensors:
            raise ValueError(f"parameter {name!r}: unknown group {group!r} or a duplicate name")
        tensor.name = name
        self._tensors[name] = tensor
        self._groups[name] = group

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self, *groups: str) -> list[Tensor]:
        """The tensors of the named groups, or of all groups when none is
        named, in order."""
        return [t for n, t in self._tensors.items() if not groups or self._groups[n] in groups]

    def group_of(self, name: str) -> str:
        return self._groups[name]

    def checksum(self, group: str | None = None) -> str:
        h = hashlib.sha256()
        for n, t in self._tensors.items():
            if group is None or self._groups[n] == group:
                h.update(n.encode())
                h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()

    def clone(self) -> "NetParams":
        """A deep copy: the clone never aliases this storage."""
        out = NetParams()
        for n, t in self._tensors.items():
            out.add(n, Tensor(t.data.copy()), self._groups[n])
        return out


def _uniform(rng, shape, fan_in, dtype, gain=2.0):
    # Uniform bound with fan_in * Var = gain, since Var(U[-s, s]) = s^2/3.
    # The default gain 2 is He's: ELU roughly halves the variance, so it
    # keeps activations from dying through the 26 conv->ELU layers (there
    # is no normalization anywhere). The bottleneck FCs and the 1x1 skip
    # projections share that bound. The conv->tanh head uses gain 1
    # (LeCun): no ELU follows it, and with gain 2 its pre-activations
    # reach |x| ~ 11, where float32 tanh rounds to exactly +-1 and the
    # backward g * (1 - out^2) is exactly 0.
    s = np.sqrt(3.0 * gain / fan_in)
    return rng.uniform(-s, s, size=shape).astype(dtype)


# Most samples per forward-only call, which bounds the activations live at
# once. A forward's peak is the widest conv's input and output for the
# slice plus one sample's row taps and one kernel row's product: at res 64
# and filters 16, 1 MB per map beside 1.6 MB of row taps and a 0.5 MB
# product. The taps and the product are held between calls in autodiff's
# per-thread conv workspace, not allocated per call. Two maps cost no
# time: with the 9-tap im2col that the row taps replaced, translate_map of
# 16 maps plus decode_batch of 32 latents (res 64, filters 16) took
# 244 / 248 / 236 / 280 ms at 8 / 4 / 2 / 1 maps per slice, medians of 8
# alternating rounds in one process, and
# 183 / 191 / 169 / 204 ms in a 16-round re-run.
# Only one map per slice is slower: its GEMMs and per-op overhead no
# longer amortise.
_CHUNK = 2


def batches(n: int, cap: int = _CHUNK) -> list[slice]:
    """Slices of range(n), at most ``cap`` long and as even as can be: the
    one split of every run over a stack, forward-only at the default _CHUNK
    (2), and on a tape in training. The largest slice sets the peak
    activations, so even slices keep it lowest."""
    k = -(-n // cap)
    return [slice(n * j // k, n * (j + 1) // k) for j in range(k)]


def translate_map(net: Network, maps: np.ndarray,
                  onehots: np.ndarray | None = None) -> np.ndarray:
    """The net's outputs for the (N, 3, H, W) ``maps``, under the (N, L)
    ``onehots`` when given, run in :func:`batches` slices of at most 2
    maps; an empty stack gives an empty stack. A map's output does not
    depend on its batch-mates. This is the one forward-only pass of the
    whole net: inference, ``training.reconstruction_l1`` and the G(x) that
    the adversarial step's D update reads all run through it."""
    outs = [net.forward(maps[c], labels=None if onehots is None else onehots[c]).data
            for c in batches(len(maps))]
    return np.concatenate(outs) if outs else np.zeros(maps.shape, dtype=np.float32)


class Network:
    """A built network: immutable architecture description plus parameters.
    Forward passes on shared params are pure; updates belong to exactly one
    training loop. A pass records on the tape of its input: a tape leaf's
    pass is recorded there, and an array's is recorded nowhere."""

    def __init__(self, config: NetConfig, params: NetParams):
        self.config = config
        self.params = params

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, config: NetConfig, rng: np.random.Generator,
              dtype=np.float32) -> "Network":
        n = config.base_filters
        h32 = config.resolution // 32
        p = NetParams()

        def conv(name, c1, c2, group, gain=2.0):
            p.add(f"{name}.w", Tensor(_uniform(rng, (c2, c1, 3, 3), c1 * 9, dtype, gain)), group)
            p.add(f"{name}.b", Tensor(np.zeros(c2, dtype=dtype)), group)

        def block(name, c1, c2, group):
            conv(f"{name}.conv1", c1, c2, group)
            conv(f"{name}.conv2", c2, c2, group)

        conv("enc.in", config.in_channels, n, "encoder")
        for k in range(1, 6):
            block(f"enc.block{k}", ENC_CHANNEL_STEPS[k - 1] * n,
                  ENC_CHANNEL_STEPS[k] * n, "encoder")
        block("enc.block6", 6 * n, 6 * n, "encoder")

        d_in = h32 * h32 * 6 * n
        p.add("b1.w", Tensor(_uniform(rng, (config.latent_dim, d_in), d_in, dtype)), "bottleneck1")
        p.add("b1.b", Tensor(np.zeros(config.latent_dim, dtype=dtype)), "bottleneck1")
        d_out = h32 * h32 * n
        p.add("b2.w", Tensor(_uniform(rng, (d_out, config.latent_dim), config.latent_dim, dtype)), "bottleneck2")
        p.add("b2.b", Tensor(np.zeros(d_out, dtype=dtype)), "bottleneck2")

        for k in range(1, 7):
            block(f"dec.block{k}", n, n, "decoder")
        conv("dec.out", n, 3, "decoder", gain=1.0)
        for lv in config.skip_levels:
            c_enc = (int(np.log2(lv)) + 1) * n
            p.add(f"skip{lv}.w", Tensor(_uniform(rng, (n, c_enc), c_enc, dtype)), "decoder")
            p.add(f"skip{lv}.b", Tensor(np.zeros(n, dtype=dtype)), "decoder")
        return cls(config, p)

    # -- forward ------------------------------------------------------

    def _conv(self, op, t, name):
        return op(t, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _block(self, t, name):
        t = self._conv(ad.conv_elu, t, f"{name}.conv1")
        return self._conv(ad.conv_elu, t, f"{name}.conv2")

    def _input(self, x, labels) -> Tensor:
        """The encoder input: the (N, 3, H, W) maps ``x``, an array or a
        Tensor, followed by one constant plane per entry of the (N, L)
        one-hot ``labels``."""
        cfg = self.config
        t = x if isinstance(x, Tensor) else Tensor(np.ascontiguousarray(x))
        if t.data.ndim != 4 or t.data.shape[1:] != (3, cfg.resolution, cfg.resolution):
            raise ShapeError(f"expected maps (N, 3, {cfg.resolution}, {cfg.resolution}), "
                             f"got {t.data.shape}")
        L = cfg.label_channels
        if labels is None:
            if L:
                raise ShapeError(f"the net takes {L} one-hot labels per map, got none")
            return t
        labels = np.asarray(labels, dtype=np.float32)
        if not L or labels.shape != (len(t.data), L):
            raise ShapeError(f"the net takes {L} one-hot labels per map, got labels "
                             f"{labels.shape} for {len(t.data)} maps")
        if np.any((np.abs(labels) > 1e-6) & (np.abs(labels - 1) > 1e-6)) \
                or np.any(np.abs(labels.sum(axis=1) - 1.0) > 1e-6):
            raise ValueError(f"labels are not one-hot: {labels}")
        planes = np.broadcast_to(labels[:, :, None, None], labels.shape + t.data.shape[2:])
        return ad.concat_channels(t, Tensor(planes.astype(np.float32)))

    def encode(self, x, labels=None) -> tuple[Tensor, dict[int, Tensor]]:
        """Run the encoder + bottleneck1 on the maps ``x`` conditioned on
        ``labels``. Returns (latent, encoder features keyed by downsample
        level)."""
        h = self._conv(ad.conv_elu, self._input(x, labels), "enc.in")
        feats: dict[int, Tensor] = {}
        for k in range(1, 6):
            h = self._block(h, f"enc.block{k}")
            h = ad.avg_pool2(h)
            feats[2 ** k] = h
        h = self._block(h, "enc.block6")
        N = h.data.shape[0]
        flat = ad.reshape(h, (N, h.data.shape[1] * h.data.shape[2] * h.data.shape[3]))
        z = ad.fully_connected(flat, self.params["b1.w"], self.params["b1.b"])
        return z, feats

    def decode(self, z, skips: dict[int, Tensor] | None = None) -> Tensor:
        """Run bottleneck2 + decoder only. ``skips`` maps level -> raw
        encoder feature; only the configured skip levels are projected and
        added, and without ``skips`` no skip feature is added at all (the
        convention for latent-only generation, where no encoder features
        exist)."""
        cfg = self.config
        zt = z if isinstance(z, Tensor) else Tensor(np.atleast_2d(np.ascontiguousarray(z)))
        if zt.data.ndim != 2 or zt.data.shape[1] != cfg.latent_dim:
            raise ShapeError(f"latent must be (N, {cfg.latent_dim}), got {zt.data.shape}")
        n, h32 = cfg.base_filters, cfg.resolution // 32
        h = ad.fully_connected(zt, self.params["b2.w"], self.params["b2.b"])
        h = ad.reshape(h, (h.data.shape[0], n, h32, h32))
        level = 32
        for k in range(1, 6):
            if level in (skips or {}) and level in cfg.skip_levels:
                h = ad.add(h, self._conv(ad.conv1x1, skips[level], f"skip{level}"))
            h = self._block(h, f"dec.block{k}")
            h = ad.upsample_nearest2(h)
            level //= 2
        h = self._block(h, "dec.block6")
        return ad.tanh(self._conv(ad.conv2d, h, "dec.out"))

    def forward(self, x, labels=None) -> Tensor:
        """Full autoencoding pass of the (N, 3, H, W) maps ``x`` conditioned
        on the (N, L) one-hot ``labels``: the output maps."""
        z, feats = self.encode(x, labels=labels)
        return self.decode(z, skips=feats)

