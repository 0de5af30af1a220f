"""End-to-end tests of the command line at a tiny config: every command
on one synthetic set, resumable pretraining, the exit codes of bad inputs
and atomic checkpoint writes. They cover cli, io and pipeline."""

import json

import numpy as np
import pytest

from facegan3d import cli, io, pipeline
from facegan3d.geometry import centroid_size, load_obj, procrustes_points
from facegan3d.model import NetConfig, Network

CONFIG = ("filters = 2\nlatent = 4\nbatch = 4\npretrain_batch = 4\n"
          "pretrain_epochs = {}\nepochs = 1\n")


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """synth -> preprocess -> a 2-epoch pretrain, shared by the tests."""
    d = tmp_path_factory.mktemp("cli")
    raw = d / "raw"
    assert run("synth", "--subjects", 8, "--grid", 20, "--noise", 0.01,
               "--seed", 0, "--out", raw) == 0
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", raw / "landmarks.txt", "--res", 32,
               "--out", d / "pre") == 0
    for epochs in (1, 2):
        (d / f"pre{epochs}.cfg").write_text(CONFIG.format(epochs))
    assert run("pretrain", "--data", d / "pre", "--config", d / "pre2.cfg",
               "--seed", 0, "--out", d / "model.ckpt") == 0
    return d


def test_every_command_runs_and_meshes_come_back_in_input_units(work):
    d, pre, model = work, work / "pre", work / "model.ckpt"
    assert run("train", "--data", pre, "--pretrained", model, "--config",
               d / "pre2.cfg", "--seed", 0, "--out", d / "run") == 0
    assert run("generate", "--model", model, "--data", pre, "--n", 3,
               "--gaussian", d / "z.gsn", "--out", d / "gen") == 0
    assert run("translate", "--model", d / "run" / "generator.ckpt", "--in", pre,
               "--out", d / "tr") == 0
    for task in ("represent", "translate", "specificity"):
        assert run("evaluate", "--task", task, "--data", pre, "--model", model,
                   "--n", 3, "--gaussian", d / "z.gsn", "--out", d / "eval") == 0
    assert len(list((d / "gen").glob("*.obj"))) == 3

    meta = pipeline.load_meta(pre)
    layout = io.load_layout(pre / "layout.uvl")
    assert len(list((d / "tr").glob("*.obj"))) == len(meta["subjects"])
    for stem in meta["subjects"]:
        raw = load_obj(d / "raw" / "meshes" / f"{stem}.obj")
        # pass-through: the preprocessed map itself, back to a mesh
        uvm = io.load_uvmap(pre / "maps" / f"{stem}.uvf")
        back = pipeline.map_to_mesh(uvm.data, layout, meta["landmarks"], meta)
        t = procrustes_points(raw.vertices, back.vertices)
        assert 0.5 <= t.scale <= 2.0
        resid = np.sqrt(((t.apply(raw.vertices) - back.vertices) ** 2).sum(axis=1).mean())
        assert resid < 0.05 * centroid_size(raw.vertices)
        # the translated OBJ sits at the same order of magnitude
        out = load_obj(d / "tr" / f"{stem}.obj")
        ratio = np.abs(out.vertices).max() / np.abs(raw.vertices).max()
        assert 0.05 < ratio < 20


def test_resumed_pretrain_is_bitwise_equal_to_uninterrupted(work, capsys):
    d, ckpt = work, work / "resumed.ckpt"
    assert run("pretrain", "--data", d / "pre", "--config", d / "pre1.cfg",
               "--seed", 0, "--out", ckpt) == 0
    assert run("pretrain", "--data", d / "pre", "--config", d / "pre2.cfg",
               "--seed", 0, "--resume", ckpt, "--out", ckpt) == 0
    resumed, rmeta = io.load_checkpoint(ckpt)
    straight, smeta = io.load_checkpoint(d / "model.ckpt")
    assert resumed.params.checksum() == straight.params.checksum()
    assert rmeta["epoch"] == smeta["epoch"] == 2
    assert rmeta["rng_state"] == smeta["rng_state"]
    for name in straight.params.names():
        a, b = resumed.params[name], straight.params[name]
        assert rmeta["adam"].m[a.node_id].tobytes() == smeta["adam"].m[b.node_id].tobytes()
    capsys.readouterr()
    # nothing left to do: a clean data error naming the epoch
    assert run("pretrain", "--data", d / "pre", "--config", d / "pre2.cfg",
               "--resume", ckpt, "--out", ckpt) == cli.EXIT_DATA
    assert "epoch 2" in capsys.readouterr().err


def test_specificity_unknown_label_exits_data_error(work, capsys):
    assert run("evaluate", "--task", "specificity", "--data", work / "pre",
               "--model", work / "model.ckpt", "--label", "smile", "--n", 2,
               "--out", work / "eval_bad") == cli.EXIT_DATA
    assert "smile" in capsys.readouterr().err


@pytest.fixture(scope="module")
def labelled_model(work):
    path = work / "labelled.ckpt"
    net = Network.build(NetConfig(32, 2, 4, label_channels=2), np.random.default_rng(0))
    io.save_checkpoint(path, net)
    return path


def test_labelled_model_in_represent_exits_data_error(work, labelled_model):
    assert run("evaluate", "--task", "represent", "--data", work / "pre",
               "--model", labelled_model, "--out", work / "eval_bad") == cli.EXIT_DATA


def test_labelled_model_in_translate_without_label_exits_data_error(work, labelled_model):
    assert run("translate", "--model", labelled_model, "--in", work / "pre",
               "--out", work / "tr_bad") == cli.EXIT_DATA


def test_interrupted_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "net.ckpt"
    io.save_checkpoint(path, Network.build(NetConfig(32, 2, 4), np.random.default_rng(0)),
                       epoch=1)
    before = path.read_bytes()
    real, calls = io._write_arr, []

    def write_then_fail(fh, arr, dtype):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("injected")
        real(fh, arr, dtype)

    monkeypatch.setattr(io, "_write_arr", write_then_fail)
    with pytest.raises(RuntimeError, match="injected"):
        io.save_checkpoint(path, Network.build(NetConfig(32, 2, 4), np.random.default_rng(1)),
                           epoch=2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert io.load_checkpoint(path)[1]["epoch"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


@pytest.mark.parametrize("command", [("generate",), ("evaluate", "--task", "specificity")])
def test_n_below_one_is_a_usage_error(work, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(*command, "--model", work / "model.ckpt", "--data", work / "pre",
            "--n", 0, "--out", work / "n0")
    assert exit_info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--n" in err and "Traceback" not in err
    assert not (work / "n0").exists()


def test_translate_rmse_default_crop_keeps_whole_face(work, capsys):
    def mean_rmse(*crop):
        capsys.readouterr()
        assert run("evaluate", "--task", "translate", "--data", work / "pre",
                   "--model", work / "model.ckpt", *crop, "--out", work / "eval_crop") == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])["mean"]

    whole = mean_rmse()
    assert mean_rmse("--crop-radius", 1e9) == whole
    assert mean_rmse("--crop-radius", 0.05) != whole


@pytest.mark.parametrize("line", ["pretrain_epoch = 7", "lr_decay_mode = additive"])
def test_unknown_config_key_exits_data_error(work, line, capsys):
    cfg = work / "typo.cfg"
    cfg.write_text(CONFIG.format(1) + line + "\n")
    assert run("pretrain", "--data", work / "pre", "--config", cfg,
               "--out", work / "typo" / "model.ckpt") == cli.EXIT_DATA
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (work / "typo").exists()


@pytest.mark.parametrize("line", ["lr = abc", "lr = -1", "lr = nan", "batch = 0",
                                  "lr_decay_every = 1.5", "lr_decay_every = 0",
                                  "filters = two"])
def test_bad_config_value_exits_data_error(work, line, capsys):
    cfg = work / "bad.cfg"
    cfg.write_text(CONFIG.format(1) + line + "\n")
    assert run("train", "--data", work / "pre", "--config", cfg,
               "--out", work / "bad") == cli.EXIT_DATA
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (work / "bad").exists()


@pytest.mark.parametrize("case", ["truncated", "no_keys"])
def test_malformed_meta_json_exits_data_error(work, case, capsys):
    pre = work / f"pre_{case}"
    pre.mkdir()
    meta = (work / "pre" / "meta.json").read_bytes()
    (pre / "meta.json").write_bytes(meta[:len(meta) // 2] if case == "truncated" else b"{}\n")
    assert run("pretrain", "--data", pre, "--config", work / "pre1.cfg",
               "--out", work / f"{case}.ckpt") == cli.EXIT_DATA
    assert str(pre / "meta.json") in capsys.readouterr().err


def test_labels_csv_without_header_exits_data_error(work, capsys):
    raw = work / "raw_no_header"
    (raw / "meshes").mkdir(parents=True)
    (raw / "labels.csv").write_text("subj_0000.obj,smile\nsubj_0001.obj,smile\n")
    assert run("preprocess", "--in", raw, "--template", work / "raw" / "template.obj",
               "--landmarks", work / "raw" / "landmarks.txt", "--res", 32,
               "--out", work / "pre_no_header") == cli.EXIT_DATA
    assert "labels.csv" in capsys.readouterr().err


def test_non_integer_landmark_index_exits_data_error(work, capsys):
    bad = work / "bad_landmarks.txt"
    bad.write_text("# name index\nnose-tip 12\nleft-eye-outer 3.5\n")
    assert run("preprocess", "--in", work / "raw", "--template", work / "raw" / "template.obj",
               "--landmarks", bad, "--res", 32, "--out", work / "pre_bad_lm") == cli.EXIT_DATA
    assert f"{bad}:3" in capsys.readouterr().err
