"""The encoder / bottleneck / decoder network used for both the
discriminator and the generator (their architectures are identical).

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
the decoder parameter group, so they freeze together with it.

Weights are drawn uniform and biases start at 0. Every conv that ELU
follows, the bottleneck FCs and the skip projections use He's bound
sqrt(6/fan_in) (gain 2); the tanh head uses gain 1, sqrt(3/fan_in), so
that a fresh net's outputs stay strictly inside (-1, 1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
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
        for lv in self.skip_levels:
            if lv not in (2, 4, 8, 16, 32):
                raise ShapeError(f"skip level must be one of 2/4/8/16/32, got {lv}")

    @property
    def in_channels(self) -> int:
        return 3 + self.label_channels


class NetParams:
    """Ordered named parameter tensors, partitioned into encoder /
    bottleneck1 / bottleneck2 / decoder groups with per-group freezing:
    :meth:`trainable` is the list that backward and Adam act on."""

    def __init__(self):
        self._order: list[str] = []
        self._tensors: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}
        self._frozen: set[str] = set()

    def add(self, name: str, tensor: Tensor, group: str):
        if group not in GROUPS or name in self._tensors:
            raise ValueError(f"parameter {name!r}: unknown group {group!r} or a duplicate name")
        tensor.name = name
        self._order.append(name)
        self._tensors[name] = tensor
        self._groups[name] = group

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._order)

    def tensors(self) -> list[Tensor]:
        return [self._tensors[n] for n in self._order]

    def group_of(self, name: str) -> str:
        return self._groups[name]

    @property
    def frozen_groups(self) -> frozenset[str]:
        return frozenset(self._frozen)

    def set_frozen(self, group: str, frozen: bool):
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}")
        if frozen:
            self._frozen.add(group)
        else:
            self._frozen.discard(group)

    def trainable(self) -> list[Tensor]:
        """The tensors outside the frozen groups, in order."""
        return [self._tensors[n] for n in self._order
                if self._groups[n] not in self._frozen]

    def num_parameters(self) -> int:
        return sum(t.data.size for t in self.tensors())

    def checksum(self, group: str | None = None) -> str:
        h = hashlib.sha256()
        for n in self._order:
            if group is None or self._groups[n] == group:
                h.update(n.encode())
                h.update(np.ascontiguousarray(self._tensors[n].data).tobytes())
        return h.hexdigest()

    def clone(self) -> "NetParams":
        out = NetParams()
        for n in self._order:
            out._order.append(n)
            out._tensors[n] = Tensor(self._tensors[n].data.copy(), name=n)
            out._groups[n] = self._groups[n]
        out._frozen = set(self._frozen)
        return out


@dataclass
class ForwardPass:
    output: Tensor
    bottleneck: Tensor
    skips: dict[int, Tensor] = field(default_factory=dict)


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


class Network:
    """A built network: immutable architecture description plus parameters.
    Forward passes on shared params are pure; updates belong to exactly one
    training loop."""

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

    def encode(self, x, tape: Tape | None = None) -> tuple[Tensor, dict[int, Tensor]]:
        """Run the encoder + bottleneck1. Returns (latent, encoder features
        keyed by downsample level)."""
        cfg = self.config
        if isinstance(x, Tensor):
            t = x
        else:
            arr = np.ascontiguousarray(x)
            t = tape.leaf(arr) if tape is not None else Tensor(arr)
        if t.data.ndim != 4 or t.data.shape[1] != cfg.in_channels \
                or t.data.shape[2] != cfg.resolution or t.data.shape[3] != cfg.resolution:
            raise ShapeError(
                f"expected input (N, {cfg.in_channels}, {cfg.resolution}, "
                f"{cfg.resolution}), got {t.data.shape}")
        h = self._conv(ad.conv_elu, t, "enc.in")
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

    def _decode_impl(self, zt: Tensor,
                     skips: dict[int, Tensor] | None) -> tuple[Tensor, dict[int, Tensor]]:
        cfg = self.config
        n = cfg.base_filters
        h32 = cfg.resolution // 32
        if zt.data.ndim != 2 or zt.data.shape[1] != cfg.latent_dim:
            raise ShapeError(f"latent must be (N, {cfg.latent_dim}), got {zt.data.shape}")
        h = ad.fully_connected(zt, self.params["b2.w"], self.params["b2.b"])
        h = ad.reshape(h, (h.data.shape[0], n, h32, h32))
        level = 32
        projected: dict[int, Tensor] = {}
        for k in range(1, 6):
            if skips is not None and level in skips and level in cfg.skip_levels:
                proj = ad.conv1x1(skips[level], self.params[f"skip{level}.w"],
                                  self.params[f"skip{level}.b"])
                projected[level] = proj
                h = ad.add(h, proj)
            h = self._block(h, f"dec.block{k}")
            h = ad.upsample_nearest2(h)
            level //= 2
        h = self._block(h, "dec.block6")
        return ad.tanh(self._conv(ad.conv2d, h, "dec.out")), projected

    def decode(self, z, tape: Tape | None = None,
               skips: dict[int, Tensor] | None = None) -> Tensor:
        """Run bottleneck2 + decoder only. ``skips`` maps level -> raw
        encoder feature; absent levels contribute nothing (the convention
        for latent-only generation, where no encoder features exist)."""
        if isinstance(z, Tensor):
            zt = z
        else:
            arr = np.ascontiguousarray(z)
            if arr.ndim == 1:
                arr = arr[None, :]
            zt = tape.leaf(arr) if tape is not None else Tensor(arr)
        out, _ = self._decode_impl(zt, skips)
        return out

    def forward(self, x, tape: Tape | None = None) -> ForwardPass:
        """Full autoencoding pass. x is (N, 3+L, H, W)."""
        z, feats = self.encode(x, tape)
        skips = {lv: feats[lv] for lv in self.config.skip_levels}
        out, projected = self._decode_impl(z, skips)
        return ForwardPass(out, z, projected)


def clone_generator_from_discriminator(d: Network) -> Network:
    """Deep copy: the clone never aliases the source's parameter storage."""
    return Network(d.config, d.params.clone())


def freeze_decoder(params: NetParams, frozen: bool = True) -> None:
    """Freeze the decoder group (which includes the tanh head and the skip
    projections): it leaves :meth:`NetParams.trainable`, so the optimizer
    leaves it bit-identical."""
    params.set_frozen("decoder", frozen)


def expected_parameter_count(config: NetConfig) -> int:
    """Closed-form parameter count from the layer table; used as an
    arithmetic cross-check of the built network."""
    n = config.base_filters
    h32 = config.resolution // 32
    total = 0

    def conv(c1, c2):
        return c2 * c1 * 9 + c2

    total += conv(config.in_channels, n)
    for k in range(1, 6):
        c1 = ENC_CHANNEL_STEPS[k - 1] * n
        c2 = ENC_CHANNEL_STEPS[k] * n
        total += conv(c1, c2) + conv(c2, c2)
    total += 2 * conv(6 * n, 6 * n)
    d_in = h32 * h32 * 6 * n
    total += config.latent_dim * d_in + config.latent_dim
    d_out = h32 * h32 * n
    total += d_out * config.latent_dim + d_out
    total += 6 * 2 * conv(n, n)
    total += conv(n, 3)
    for lv in config.skip_levels:
        c_enc = (int(np.log2(lv)) + 1) * n
        total += n * c_enc + n
    return total
