"""On-disk formats: network checkpoints, UV map files, layout caches,
latent Gaussian files, key=value configs and CSV/JSON reports.

All binary formats are little-endian with a 4-byte magic and a version;
every format round-trips bitwise.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import AdamState
from .errors import DataFormatError
from .generation import LatentGaussian
from .geometry import UVLayout, UVMap
from .model import GROUPS, NetConfig, NetParams, Network
from .training import TrainState

CHECKPOINT_MAGIC = b"3DFG"
UVMAP_MAGIC = b"UVF1"
LAYOUT_MAGIC = b"UVL1"
GAUSSIAN_MAGIC = b"GSN1"
FORMAT_VERSION = 1

_FLAG_ADAM = 1
_FLAG_RNG = 2
_FLAG_EPOCH = 4


def _w(fh, fmt, *vals):
    fh.write(struct.pack("<" + fmt, *vals))


def _r(fh, fmt):
    size = struct.calcsize("<" + fmt)
    data = fh.read(size)
    if len(data) != size:
        raise DataFormatError("unexpected end of file")
    return struct.unpack("<" + fmt, data)


def _write_str(fh, s: str):
    b = s.encode("utf-8")
    _w(fh, "H", len(b))
    fh.write(b)


def _read_str(fh) -> str:
    (n,) = _r(fh, "H")
    return fh.read(n).decode("utf-8")


def _write_arr(fh, arr: np.ndarray, dtype):
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_arr(fh, shape, dtype) -> np.ndarray:
    count = int(np.prod(shape)) if shape else 1
    raw = fh.read(count * np.dtype(dtype).itemsize)
    if len(raw) != count * np.dtype(dtype).itemsize:
        raise DataFormatError("unexpected end of file")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _check_magic(fh, magic: bytes, path):
    got = fh.read(4)
    if got != magic:
        raise DataFormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    (version,) = _r(fh, "I")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: Network, adam: AdamState | None = None,
                    rng_state: dict | None = None, epoch: int | None = None) -> None:
    """Atomic: the file is written next to ``path`` and then renamed over
    it, so an interrupted save leaves the previous checkpoint intact."""
    tmp = Path(f"{path}.tmp")
    try:
        _write_checkpoint(tmp, net, adam, rng_state, epoch)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_checkpoint(path, net, adam, rng_state, epoch) -> None:
    cfg = net.config
    params = net.params
    flags = (_FLAG_ADAM if adam is not None else 0) \
        | (_FLAG_RNG if rng_state is not None else 0) \
        | (_FLAG_EPOCH if epoch is not None else 0)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        _w(fh, "I", FORMAT_VERSION)
        _w(fh, "I", flags)
        _w(fh, "IIII", cfg.resolution, cfg.base_filters, cfg.latent_dim,
           cfg.label_channels)
        _w(fh, "I", len(cfg.skip_levels))
        for lv in cfg.skip_levels:
            _w(fh, "I", lv)
        frozen_mask = sum(1 << i for i, g in enumerate(GROUPS)
                          if g in params.frozen_groups)
        _w(fh, "I", frozen_mask)
        names = params.names()
        _w(fh, "I", len(names))
        for name in names:
            t = params[name]
            _write_str(fh, name)
            _w(fh, "B", GROUPS.index(params.group_of(name)))
            _w(fh, "B", t.data.ndim)
            for d in t.data.shape:
                _w(fh, "I", d)
            _write_arr(fh, t.data, np.float32)
        if adam is not None:
            _w(fh, "Q", adam.t)
            _w(fh, "ddd", adam.beta1, adam.beta2, adam.eps)
            for name in names:
                t = params[name]
                m = adam.m.get(t.node_id)
                v = adam.v.get(t.node_id)
                _w(fh, "B", 1 if m is not None else 0)
                if m is not None:
                    _write_arr(fh, m, np.float32)
                    _write_arr(fh, v, np.float32)
        if rng_state is not None:
            blob = json.dumps(rng_state, sort_keys=True).encode("utf-8")
            _w(fh, "I", len(blob))
            fh.write(blob)
        if epoch is not None:
            _w(fh, "I", epoch)


def load_checkpoint(path) -> tuple[Network, dict]:
    """Returns (network, meta) where meta may hold 'adam', 'rng_state',
    'epoch'."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    from .autodiff import Tensor
    with open(path, "rb") as fh:
        _check_magic(fh, CHECKPOINT_MAGIC, path)
        (flags,) = _r(fh, "I")
        res, base, latent, labels = _r(fh, "IIII")
        (nskips,) = _r(fh, "I")
        skips = tuple(_r(fh, "I")[0] for _ in range(nskips))
        cfg = NetConfig(res, base, latent, labels, skips)
        (frozen_mask,) = _r(fh, "I")
        (count,) = _r(fh, "I")
        params = NetParams()
        for _ in range(count):
            name = _read_str(fh)
            (gi,) = _r(fh, "B")
            (ndim,) = _r(fh, "B")
            shape = tuple(_r(fh, "I")[0] for _ in range(ndim))
            data = _read_arr(fh, shape, np.float32)
            params.add(name, Tensor(data), GROUPS[gi])
        meta: dict = {}
        if flags & _FLAG_ADAM:
            adam = AdamState()
            (adam.t,) = _r(fh, "Q")
            adam.beta1, adam.beta2, adam.eps = _r(fh, "ddd")
            for name in params.names():
                t = params[name]
                (has,) = _r(fh, "B")
                if has:
                    adam.m[t.node_id] = _read_arr(fh, t.data.shape, np.float32)
                    adam.v[t.node_id] = _read_arr(fh, t.data.shape, np.float32)
            meta["adam"] = adam
        if flags & _FLAG_RNG:
            (blen,) = _r(fh, "I")
            meta["rng_state"] = json.loads(fh.read(blen).decode("utf-8"))
        if flags & _FLAG_EPOCH:
            (meta["epoch"],) = _r(fh, "I")
    for i, g in enumerate(GROUPS):
        if frozen_mask & (1 << i):
            params.set_frozen(g, True)
    return Network(cfg, params), meta


def load_train_state(d_meta: dict, g_meta: dict | None = None) -> TrainState:
    if "epoch" not in d_meta:
        raise DataFormatError("checkpoint holds no training state to resume from")
    return TrainState(
        epoch=d_meta["epoch"],
        adam_d=d_meta["adam"],
        adam_g=None if g_meta is None else g_meta["adam"],
        rng_state=d_meta["rng_state"],
    )


# ---------------------------------------------------------------------------
# uv maps


def save_uvmap(path, uvmap: UVMap) -> None:
    c, h, w = uvmap.data.shape
    with open(path, "wb") as fh:
        fh.write(UVMAP_MAGIC)
        _w(fh, "I", FORMAT_VERSION)
        _w(fh, "IIII", h, w, c, 1 if uvmap.filled else 0)
        fh.write(np.packbits(uvmap.valid.reshape(-1), bitorder="little").tobytes())
        # row-major over (H, W, C)
        _write_arr(fh, uvmap.data.transpose(1, 2, 0), np.float32)


def load_uvmap(path) -> UVMap:
    if not os.path.exists(path):
        raise FileNotFoundError(f"uv map not found: {path}")
    with open(path, "rb") as fh:
        _check_magic(fh, UVMAP_MAGIC, path)
        h, w, c, filled = _r(fh, "IIII")
        nbytes = (h * w + 7) // 8
        bits = np.frombuffer(fh.read(nbytes), dtype=np.uint8)
        valid = np.unpackbits(bits, count=h * w, bitorder="little").astype(bool).reshape(h, w)
        data = _read_arr(fh, (h, w, c), np.float32).transpose(2, 0, 1)
    m = UVMap.__new__(UVMap)
    m.data = np.ascontiguousarray(data)
    m.valid = valid
    m.filled = bool(filled)
    return m


# ---------------------------------------------------------------------------
# layouts


def save_layout(path, layout: UVLayout) -> None:
    with open(path, "wb") as fh:
        fh.write(LAYOUT_MAGIC)
        _w(fh, "I", FORMAT_VERSION)
        _w(fh, "II", layout.num_vertices, len(layout.faces))
        _write_arr(fh, layout.uv, np.float64)
        _write_arr(fh, layout.faces, np.uint32)


def load_layout(path) -> UVLayout:
    if not os.path.exists(path):
        raise FileNotFoundError(f"layout file not found: {path}")
    with open(path, "rb") as fh:
        _check_magic(fh, LAYOUT_MAGIC, path)
        v, f = _r(fh, "II")
        uv = _read_arr(fh, (v, 2), np.float64)
        faces = _read_arr(fh, (f, 3), np.uint32).astype(np.int32)
    return UVLayout(uv, faces)


# ---------------------------------------------------------------------------
# latent gaussians


def save_gaussians(path, gaussians: list[LatentGaussian]) -> None:
    with open(path, "wb") as fh:
        fh.write(GAUSSIAN_MAGIC)
        _w(fh, "I", FORMAT_VERSION)
        _w(fh, "I", len(gaussians))
        for g in gaussians:
            _write_str(fh, g.label or "")
            _w(fh, "II", g.mean.shape[0], g.factor.shape[1])
            _write_arr(fh, g.mean, np.float64)
            _write_arr(fh, g.factor, np.float64)


def load_gaussians(path) -> list[LatentGaussian]:
    if not os.path.exists(path):
        raise FileNotFoundError(f"gaussian file not found: {path}")
    out = []
    with open(path, "rb") as fh:
        _check_magic(fh, GAUSSIAN_MAGIC, path)
        (count,) = _r(fh, "I")
        for _ in range(count):
            label = _read_str(fh) or None
            nb, n = _r(fh, "II")
            mean = _read_arr(fh, (nb,), np.float64)
            factor = _read_arr(fh, (nb, n), np.float64)
            out.append(LatentGaussian(mean, factor, label))
    return out


# ---------------------------------------------------------------------------
# text config


def parse_config_text(text: str) -> dict[str, str]:
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"config line {ln}: expected key=value")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def load_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(p.read_text())


# ---------------------------------------------------------------------------
# reports


def write_loss_csv(path, history: list, pretrain: bool = False) -> None:
    with open(path, "w") as fh:
        if pretrain:
            fh.write("epoch,loss\n")
            for i, v in enumerate(history, 1):
                fh.write(f"{i},{v!r}\n")
        else:
            fh.write("epoch,L_D,L_G,L_rec\n")
            for i, (ld, lg, lrec) in enumerate(history, 1):
                fh.write(f"{i},{ld!r},{lg!r},{lrec!r}\n")


def write_metric_report(out_dir, name: str, summary: dict,
                        curve: np.ndarray | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / f"{name}.csv", "w") as fh:
        fh.write(",".join(summary.keys()) + "\n")
        fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                          for v in summary.values()) + "\n")
    if curve is not None:
        with open(out / f"{name}_ced.csv", "w") as fh:
            fh.write("error,fraction\n")
            for e, frac in curve:
                fh.write(f"{e!r},{frac!r}\n")
