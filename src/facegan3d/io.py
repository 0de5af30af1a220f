"""On-disk formats: network checkpoints, UV map files, layout caches,
key=value configs and CSV/JSON reports.

The three binary kinds share one container: the kind's 4-byte magic, then
``FORMAT_VERSION`` and the header length as little-endian uint32s, then a
sorted-key UTF-8 JSON header with the kind's metadata and each array's
name, dtype and shape, then the arrays' little-endian bytes in header
order. Writes are atomic. A read takes the arrays one at a time from the
open file, each straight into its own buffer, so no copy of the whole
file is ever held; it rejects any defect with a DataFormatError naming
the file. Every kind round-trips bitwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import AdamState, Tensor
from .errors import DataFormatError
from .geometry import UVLayout, UVMap
from .model import NetConfig, NetParams, Network
from .training import TrainState

CHECKPOINT_MAGIC = b"3DFG"
UVMAP_MAGIC = b"UVF1"
LAYOUT_MAGIC = b"UVL1"
FORMAT_VERSION = 2

_PREAMBLE = struct.Struct("<4sII")   # magic, version, header byte length
_DTYPES = {name: np.dtype(name).newbyteorder("<")
           for name in ("uint8", "int32", "float32", "float64")}


def _write_arr(fh, arr: np.ndarray, dtype):
    fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[np.dtype(dtype).name]).tobytes())


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """The handle of ``path``'s temp file; ``path`` is replaced by it only
    when the block completes, so a failed write leaves no file behind."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _save(path, magic: bytes, meta: dict, arrays: list) -> None:
    """Write ``meta`` and the ``(name, array, dtype)`` triples as one
    container, atomically."""
    header = json.dumps({"meta": meta, "arrays": [
        {"name": name, "dtype": np.dtype(dtype).name, "shape": list(np.shape(arr))}
        for name, arr, dtype in arrays]}, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_PREAMBLE.pack(magic, FORMAT_VERSION, len(header)) + header)
        for _, arr, dtype in arrays:
            _write_arr(fh, arr, dtype)


def _load(path, magic: bytes, decode):
    """``decode(meta, arrays)`` of the container at ``path``. A defect that
    the reader, ``decode`` or the constructors it calls find is a
    DataFormatError naming the file."""
    with open(path, "rb") as fh:
        try:
            return decode(*_parse(fh, magic))
        except DataFormatError as e:
            raise DataFormatError(f"{path}: {e}") from e
        except (ValueError, KeyError, TypeError, ArithmeticError) as e:  # NonFiniteError too
            raise DataFormatError(f"{path}: {type(e).__name__}: {e}") from e


def _parse(fh, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and arrays of the container in the binary file ``fh``, read
    from its start. Each array's size is checked against what is left of
    the file before its buffer is allocated."""
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    preamble = fh.read(_PREAMBLE.size)
    if len(preamble) < _PREAMBLE.size:
        raise DataFormatError("truncated preamble")
    got, version, nheader = _PREAMBLE.unpack(preamble)
    if got != magic:
        raise DataFormatError(f"bad magic {got!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format version {version}")
    if nheader > size - _PREAMBLE.size:
        raise DataFormatError("truncated header")
    header = json.loads(fh.read(nheader).decode("utf-8"))
    arrays = {}
    for entry in header["arrays"]:
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        if (name in arrays or dtype not in _DTYPES
                or not all(type(d) is int and d >= 0 for d in shape)):
            raise DataFormatError(f"bad array entry {entry}")
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        if nbytes > size - fh.tell():
            raise DataFormatError(f"truncated in array {name!r}")
        arrays[name] = np.empty(shape, _DTYPES[dtype])
        if fh.readinto(arrays[name]) != nbytes:
            raise DataFormatError(f"truncated in array {name!r}")
    if fh.tell() != size:
        raise DataFormatError(f"{size - fh.tell()} trailing bytes")
    return header["meta"], arrays


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: Network, adam: AdamState | None = None,
                    rng_state: dict | None = None, epoch: int | None = None,
                    history: list | None = None) -> None:
    """Parameters as ``param/<name>``; with ``adam``, the moments of each
    tensor that has them as ``adam_m/<name>`` and ``adam_v/<name>``. The
    keyword arguments come back as the keys of ``load_checkpoint``'s meta."""
    params = net.params
    names = params.names()
    meta: dict = {"config": dataclasses.asdict(net.config),
                  "params": [[n, params.group_of(n)] for n in names]}
    arrays = [(f"param/{n}", params[n].data, np.float32) for n in names]
    if adam is not None:
        meta["adam"] = {"t": adam.t, "beta1": adam.beta1, "beta2": adam.beta2, "eps": adam.eps}
        for n in names:
            node = params[n].node_id
            if node in adam.m:
                arrays += [(f"adam_m/{n}", adam.m[node], np.float32),
                           (f"adam_v/{n}", adam.v[node], np.float32)]
    for key, value in (("rng_state", rng_state), ("epoch", epoch), ("history", history)):
        if value is not None:
            meta[key] = value
    _save(path, CHECKPOINT_MAGIC, meta, arrays)


def _decode_checkpoint(meta: dict, arrays: dict) -> tuple[Network, dict]:
    params = NetParams()
    for name, group in meta["params"]:
        params.add(name, Tensor(arrays[f"param/{name}"]), group)
    cfg = NetConfig(**{**meta["config"], "skip_levels": tuple(meta["config"]["skip_levels"])})
    out = {key: meta[key] for key in ("rng_state", "epoch", "history") if key in meta}
    if "adam" in meta:
        a = meta["adam"]
        out["adam"] = adam = AdamState(a["beta1"], a["beta2"], a["eps"])
        adam.t = a["t"]
        for name, t in zip(params.names(), params.tensors()):
            if f"adam_m/{name}" in arrays:
                m, v = arrays[f"adam_m/{name}"], arrays[f"adam_v/{name}"]
                if not m.shape == v.shape == t.shape:
                    raise DataFormatError(f"Adam moments of {name!r} do not match {t.shape}")
                adam.m[t.node_id], adam.v[t.node_id] = m, v
    return Network(cfg, params), out


def load_checkpoint(path) -> tuple[Network, dict]:
    """Returns (network, meta) where meta may hold 'adam', 'rng_state',
    'epoch' and 'history'."""
    return _load(path, CHECKPOINT_MAGIC, _decode_checkpoint)


def load_resumable(*paths) -> tuple[list[Network], TrainState]:
    """The networks of one phase's checkpoints (D alone while pretraining,
    then D and G) and the state to resume that phase from, with one Adam
    state per checkpoint. A checkpoint without the state, or D and G saved
    at different epochs, is a DataFormatError."""
    nets, metas = zip(*(load_checkpoint(p) for p in paths))
    for path, meta in zip(paths, metas):
        missing = [key for key in ("adam", "rng_state", "epoch", "history") if key not in meta]
        if missing:
            raise DataFormatError(f"{path}: no {', '.join(missing)} to resume from")
    if len({meta["epoch"] for meta in metas}) > 1:
        raise DataFormatError("checkpoints saved at different epochs: " + ", ".join(
            f"{p} at {meta['epoch']}" for p, meta in zip(paths, metas)))
    d = metas[0]
    return list(nets), TrainState(d["epoch"], tuple(meta["adam"] for meta in metas),
                                  d["rng_state"], d["history"])


# ---------------------------------------------------------------------------
# uv maps


def save_uvmap(path, uvmap: UVMap) -> None:
    """``valid`` is bit-packed, little bit order."""
    packed = np.packbits(uvmap.valid.reshape(-1), bitorder="little")
    _save(path, UVMAP_MAGIC, {"filled": bool(uvmap.filled)},
          [("data", uvmap.data, np.float32), ("valid", packed, np.uint8)])


def _decode_uvmap(meta: dict, arrays: dict) -> UVMap:
    data, packed = arrays["data"], arrays["valid"]
    hw = data.shape[1:]
    if data.ndim != 3 or packed.shape != ((math.prod(hw) + 7) // 8,):
        raise DataFormatError(f"map data {data.shape} and packed mask {packed.shape} disagree")
    valid = np.unpackbits(packed, count=math.prod(hw), bitorder="little").reshape(hw)
    return UVMap(data, valid, filled=bool(meta["filled"]))


def load_uvmap(path) -> UVMap:
    return _load(path, UVMAP_MAGIC, _decode_uvmap)


# ---------------------------------------------------------------------------
# layouts


def save_layout(path, layout: UVLayout) -> None:
    _save(path, LAYOUT_MAGIC, {},
          [("uv", layout.uv, np.float64), ("faces", layout.faces, np.int32)])


def load_layout(path) -> UVLayout:
    return _load(path, LAYOUT_MAGIC, lambda meta, arrays: UVLayout(arrays["uv"], arrays["faces"]))


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
