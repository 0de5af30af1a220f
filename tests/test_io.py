"""The one binary container behind checkpoints, UV maps and layouts:
bitwise round trips, every truncation, trailing bytes, foreign
magics and versions, malformed headers, and atomic writes."""

import json
import re
import struct

import numpy as np
import pytest

from facegan3d import io
from facegan3d.autodiff import AdamState
from facegan3d.errors import DataFormatError
from facegan3d.geometry import UVLayout, UVMap
from facegan3d.model import NetConfig, Network
from facegan3d.training import ADVERSARIAL_GROUPS

from oracles import traced_peak


def tiny_checkpoint():
    """A 32 px, 1-filter net with Adam moments for the tensors the
    adversarial phase trains only."""
    rng = np.random.default_rng(0)
    net = Network.build(NetConfig(32, 1, 2, label_channels=1, skip_levels=(8,)), rng)
    adam = AdamState(beta1=0.3, beta2=0.875, eps=1e-7)
    adam.t = 7
    for t in net.params.tensors(*ADVERSARIAL_GROUPS):
        adam.m[t.node_id] = rng.standard_normal(t.shape).astype(np.float32)
        adam.v[t.node_id] = rng.random(t.shape).astype(np.float32)
    rng_state = np.random.default_rng(3).bit_generator.state
    return net, adam, rng_state


def tiny_map():
    rng = np.random.default_rng(1)
    return UVMap(rng.uniform(-1, 1, (3, 5, 3)).astype(np.float32),
                 rng.random((5, 3)) < 0.5, filled=True)


def tiny_layout():
    return UVLayout(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1 / 3]]),
                    np.array([[0, 1, 2], [1, 3, 2]]))


HISTORY = [[0.5, 0.25, 0.125], [0.1, 1e-300, -0.0]]


def save_tiny_checkpoint(path, epoch=5):
    net, adam, rng_state = tiny_checkpoint()
    io.save_checkpoint(path, net, adam=adam, rng_state=rng_state, epoch=epoch, history=HISTORY)


# (save of a tiny object, load) for each kind
KINDS = {
    "checkpoint": (save_tiny_checkpoint, io.load_checkpoint),
    "uvmap": (lambda p: io.save_uvmap(p, tiny_map()), io.load_uvmap),
    "layout": (lambda p: io.save_layout(p, tiny_layout()), io.load_layout),
}
RESAVE = {
    "checkpoint": lambda p, obj: io.save_checkpoint(p, obj[0], **obj[1]),
    "uvmap": io.save_uvmap,
    "layout": io.save_layout,
}


def header_of(blob: bytes) -> tuple[int, dict]:
    """(payload offset, header) of a container."""
    _, _, n = struct.unpack_from("<4sII", blob)
    return 12 + n, json.loads(blob[12:12 + n])


def test_checkpoint_round_trips_bitwise(tmp_path):
    net, adam, rng_state = tiny_checkpoint()
    io.save_checkpoint(tmp_path / "a.ckpt", net, adam=adam, rng_state=rng_state, epoch=5,
                       history=HISTORY)
    back, meta = io.load_checkpoint(tmp_path / "a.ckpt")
    assert back.config == net.config
    assert back.params.names() == net.params.names()
    got = meta["adam"]
    assert (got.t, got.beta1, got.beta2, got.eps) == (7, 0.3, 0.875, 1e-7)
    assert meta["rng_state"] == rng_state and meta["epoch"] == 5
    assert meta["history"] == HISTORY and str(meta["history"]) == str(HISTORY)
    for name in net.params.names():
        a, b = net.params[name], back.params[name]
        assert back.params.group_of(name) == net.params.group_of(name)
        assert b.data.dtype == np.float32 and b.data.tobytes() == a.data.tobytes()
        assert (b.node_id in got.m) == (a.node_id in adam.m)
        if a.node_id in adam.m:
            assert got.m[b.node_id].tobytes() == adam.m[a.node_id].tobytes()
            assert got.v[b.node_id].tobytes() == adam.v[a.node_id].tobytes()


def test_checkpoint_without_training_state_has_empty_meta(tmp_path):
    net = tiny_checkpoint()[0]
    io.save_checkpoint(tmp_path / "a.ckpt", net)
    back, meta = io.load_checkpoint(tmp_path / "a.ckpt")
    assert meta == {} and back.params.checksum() == net.params.checksum()


def test_uvmap_and_layout_round_trip_bitwise(tmp_path):
    m = tiny_map()
    io.save_uvmap(tmp_path / "m.uvf", m)
    got = io.load_uvmap(tmp_path / "m.uvf")
    assert got.data.dtype == np.float32 and got.data.tobytes() == m.data.tobytes()
    assert np.array_equal(got.valid, m.valid) and got.filled is True

    lay = tiny_layout()
    io.save_layout(tmp_path / "l.uvl", lay)
    got = io.load_layout(tmp_path / "l.uvl")
    assert got.uv.tobytes() == lay.uv.tobytes() and got.faces.tobytes() == lay.faces.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_resave_reproduces_the_file_bytes(tmp_path, kind):
    save, load = KINDS[kind]
    save(tmp_path / "a")
    obj = load(tmp_path / "a")
    if kind == "checkpoint":
        obj = (obj[0], obj[1])
    RESAVE[kind](tmp_path / "b", obj)
    assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()


@pytest.mark.parametrize("kind", ["uvmap", "layout"])
def test_every_truncation_is_a_data_error(tmp_path, kind):
    save, load = KINDS[kind]
    save(tmp_path / "a")
    blob = (tmp_path / "a").read_bytes()
    cut = tmp_path / "cut"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(DataFormatError, match=re.escape(str(cut))):
            load(cut)


def test_checkpoint_header_and_payload_boundary_truncations(tmp_path):
    save_tiny_checkpoint(tmp_path / "a")
    blob = (tmp_path / "a").read_bytes()
    offset, header = header_of(blob)
    assert "rng_state" in header["meta"]
    # every cut of the preamble, a spread over the header (one inside the
    # rng state), its end, and each array's first and last byte
    cuts = set(range(12)) | set(range(12, offset, 61))
    cuts |= {blob.index(b'"rng_state"') + 30, offset - 1, offset}
    for entry in header["arrays"]:
        size = np.dtype(entry["dtype"]).itemsize * int(np.prod(entry["shape"]))
        cuts |= {offset + 1, offset + size - 1}
        offset += size
    cuts.discard(len(blob))
    cut = tmp_path / "cut"
    for n in sorted(cuts):
        cut.write_bytes(blob[:n])
        with pytest.raises(DataFormatError, match=re.escape(str(cut))):
            io.load_checkpoint(cut)


def test_an_absurd_array_shape_is_a_truncation_not_an_allocation(tmp_path):
    """Each array's size is checked against what is left of the file before
    its buffer is allocated, so a 4 TB shape fails at once."""
    io.save_uvmap(tmp_path / "m", tiny_map())
    blob = (tmp_path / "m").read_bytes()
    offset, header = header_of(blob)
    header["arrays"][0]["shape"] = [2 ** 40]
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    (tmp_path / "m").write_bytes(blob[:4] + struct.pack("<II", io.FORMAT_VERSION, len(raw))
                                 + raw + blob[offset:])
    with pytest.raises(DataFormatError, match="truncated in array 'data'"):
        io.load_uvmap(tmp_path / "m")


def test_checkpoint_load_holds_no_copy_of_the_file(tmp_path):
    """A filters-16 net with Adam moments for every tensor, a 6.5 MiB file:
    the load's traced peak is the arrays it returns, within 1 MiB, not the
    file's bytes plus a copy of each array."""
    rng = np.random.default_rng(0)
    net = Network.build(NetConfig(32, 16, 16), rng)
    adam = AdamState()
    for t in net.params.tensors():
        adam.m[t.node_id] = rng.standard_normal(t.shape).astype(np.float32)
        adam.v[t.node_id] = rng.random(t.shape).astype(np.float32)
    io.save_checkpoint(tmp_path / "a.ckpt", net, adam=adam)
    size = (tmp_path / "a.ckpt").stat().st_size
    peak = traced_peak(lambda: io.load_checkpoint(tmp_path / "a.ckpt"))
    assert peak <= size + (1 << 20), (peak, size)


@pytest.mark.parametrize("kind", KINDS)
def test_trailing_bytes_foreign_magic_and_old_version_are_data_errors(tmp_path, kind):
    save, load = KINDS[kind]
    save(tmp_path / "a")
    blob = (tmp_path / "a").read_bytes()
    bad = tmp_path / "bad"
    bad.write_bytes(blob + b"\0")
    with pytest.raises(DataFormatError, match="1 trailing bytes"):
        load(bad)
    bad.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    with pytest.raises(DataFormatError, match="unsupported format version 1"):
        load(bad)
    for other, (other_save, _) in KINDS.items():
        if other != kind:
            other_save(bad)
            with pytest.raises(DataFormatError, match="bad magic"):
                load(bad)


@pytest.mark.parametrize("old, new, message", [
    (b'"float32"', b'"float16"', "bad array entry"),    # dtype off the allow-list
    (b'"filled"', b'"filxed"', "KeyError"),             # missing metadata key
    (b'{"arrays"', b'["arrays"', "JSONDecodeError"),
])
def test_malformed_header_is_a_data_error(tmp_path, old, new, message):
    io.save_uvmap(tmp_path / "m", tiny_map())
    blob = (tmp_path / "m").read_bytes()
    assert blob.count(old) == 1
    (tmp_path / "m").write_bytes(blob.replace(old, new))
    with pytest.raises(DataFormatError, match=message):
        io.load_uvmap(tmp_path / "m")


@pytest.mark.parametrize("magic, meta, arrays, load", [
    (io.UVMAP_MAGIC, {"filled": True},
     [("data", np.zeros((3, 4, 4)), np.float32), ("valid", np.zeros(1), np.uint8)],
     io.load_uvmap),
    (io.UVMAP_MAGIC, {"filled": True},
     [("data", np.zeros((4, 4)), np.float32), ("valid", np.zeros(2), np.uint8)],
     io.load_uvmap),
    (io.LAYOUT_MAGIC, {},
     [("uv", tiny_layout().uv, np.float64), ("faces", np.zeros((2, 2)), np.int32)],
     io.load_layout),
])
def test_inconsistent_shapes_are_data_errors(tmp_path, magic, meta, arrays, load):
    io._save(tmp_path / "f", magic, meta, arrays)
    with pytest.raises(DataFormatError, match="f: "):
        load(tmp_path / "f")


def test_checkpoint_moments_must_match_their_tensor(tmp_path):
    net, adam, _ = tiny_checkpoint()
    t = net.params.tensors(*ADVERSARIAL_GROUPS)[0]
    adam.m[t.node_id] = adam.m[t.node_id].reshape(-1)
    io.save_checkpoint(tmp_path / "a.ckpt", net, adam=adam)
    with pytest.raises(DataFormatError, match="Adam moments"):
        io.load_checkpoint(tmp_path / "a.ckpt")


def test_resumable_checkpoints_at_different_epochs_are_a_data_error(tmp_path):
    save_tiny_checkpoint(tmp_path / "d", epoch=2)
    save_tiny_checkpoint(tmp_path / "g", epoch=1)
    assert io.load_resumable(tmp_path / "d")[1].epoch == 2
    with pytest.raises(DataFormatError, match="different epochs"):
        io.load_resumable(tmp_path / "d", tmp_path / "g")


def test_checkpoint_unknown_group_is_a_data_error(tmp_path):
    save_tiny_checkpoint(tmp_path / "a")
    blob = (tmp_path / "a").read_bytes()
    entry = b'["dec.out.w", "decoder"]'
    assert blob.count(entry) == 1
    (tmp_path / "a").write_bytes(blob.replace(entry, b'["dec.out.w", "decodex"]'))
    with pytest.raises(DataFormatError, match="unknown group 'decodex'"):
        io.load_checkpoint(tmp_path / "a")


@pytest.mark.parametrize("kind", KINDS)
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch, kind):
    save, load = KINDS[kind]
    save(tmp_path / "a")
    before = (tmp_path / "a").read_bytes()
    real, calls = io._write_arr, []

    def write_then_fail(fh, arr, dtype):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        real(fh, arr, dtype)

    monkeypatch.setattr(io, "_write_arr", write_then_fail)
    with pytest.raises(RuntimeError, match="injected"):
        save(tmp_path / "a")
    monkeypatch.undo()
    assert (tmp_path / "a").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a"]
    load(tmp_path / "a")
