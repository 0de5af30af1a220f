"""End-to-end tests of the command line at a tiny config: every command
on one synthetic set, the files a run writes, resumable pretraining and
adversarial training, the exit codes of bad inputs and atomic checkpoint
writes. They cover cli, io and pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from facegan3d import autodiff as ad
from facegan3d import cli, evaluation, generation, io, pipeline
from facegan3d.geometry import (UVLayout, centroid_size, cylindrical_unwrap,
                                load_landmarks, load_obj, procrustes_points,
                                save_landmarks, save_obj)
from facegan3d.model import NetConfig, Network
from facegan3d.training import ADVERSARIAL_GROUPS

from oracles import naive_nearest_fill_assignment

CONFIG = ("filters = 2\nlatent = 4\nbatch = 4\npretrain_batch = 4\n"
          "pretrain_epochs = {}\nepochs = 1\n")
ADV_CONFIG = ("filters = 2\nlatent = 4\nbatch = 4\npretrain_batch = 4\n"
              "pretrain_epochs = 2\nepochs = {}\ncheckpoint_every = 1\n")


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
               "--out", d / "gen") == 0
    assert run("translate", "--model", d / "run" / "generator.ckpt", "--in", pre,
               "--out", d / "tr") == 0
    for task in ("represent", "translate", "specificity"):
        assert run("evaluate", "--task", task, "--data", pre, "--model", model,
                   "--n", 3, "--out", d / "eval") == 0
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


@pytest.fixture(scope="module")
def labelled_pre(tmp_path_factory):
    """A preprocessed 8-subject set with two labels."""
    d = tmp_path_factory.mktemp("labelled")
    assert run("synth", "--subjects", 8, "--grid", 20, "--labels", 2, "--seed", 0,
               "--out", d / "raw") == 0
    assert run("preprocess", "--in", d / "raw", "--template", d / "raw" / "template.obj",
               "--landmarks", d / "raw" / "landmarks.txt", "--res", 32, "--out", d / "pre") == 0
    return d / "pre"


def test_labelled_run_conditions_on_the_label(tmp_path, labelled_pre):
    d, pre = tmp_path, labelled_pre
    (d / "cfg").write_text(CONFIG.format(1))
    assert run("train", "--data", pre, "--config", d / "cfg", "--seed", 0,
               "--out", d / "run") == 0
    model = d / "run" / "generator.ckpt"
    for label in ("label0", "label1"):
        assert run("translate", "--model", model, "--in", pre, "--label", label,
                   "--out", d / label) == 0
    assert run("generate", "--model", model, "--data", pre, "--label", "label1",
               "--n", 3, "--out", d / "gen") == 0
    assert run("evaluate", "--task", "specificity", "--data", pre, "--model", model,
               "--label", "label1", "--n", 3, "--out", d / "eval") == 0

    subjects = pipeline.load_meta(pre)["subjects"]
    for label in ("label0", "label1"):
        assert sorted(p.stem for p in (d / label).glob("*.obj")) == sorted(subjects)
    assert len(list((d / "gen").glob("*.obj"))) == 3
    assert json.loads((d / "eval" / "specificity.json").read_text())["n"] == 3
    for stem in subjects:
        a = load_obj(d / "label0" / f"{stem}.obj").vertices
        b = load_obj(d / "label1" / f"{stem}.obj").vertices
        assert not np.array_equal(a, b)


def assert_same_checkpoint(a_path, b_path):
    """Parameters, Adam moments and the resumable state, bitwise."""
    a, a_meta = io.load_checkpoint(a_path)
    b, b_meta = io.load_checkpoint(b_path)
    assert a.params.checksum() == b.params.checksum()
    for key in ("epoch", "rng_state", "history"):
        assert a_meta[key] == b_meta[key]
    assert a_meta["adam"].t == b_meta["adam"].t
    for name in b.params.names():
        x, y = a.params[name].node_id, b.params[name].node_id
        assert (x in a_meta["adam"].m) == (y in b_meta["adam"].m)
        if y in b_meta["adam"].m:
            assert a_meta["adam"].m[x].tobytes() == b_meta["adam"].m[y].tobytes()
            assert a_meta["adam"].v[x].tobytes() == b_meta["adam"].v[y].tobytes()


def test_resumed_pretrain_is_bitwise_equal_to_uninterrupted(work, capsys):
    d, ckpt = work, work / "resumed.ckpt"
    assert run("pretrain", "--data", d / "pre", "--config", d / "pre1.cfg",
               "--seed", 0, "--out", ckpt) == 0
    assert run("pretrain", "--data", d / "pre", "--config", d / "pre2.cfg",
               "--seed", 0, "--resume", ckpt, "--out", ckpt) == 0
    assert_same_checkpoint(ckpt, d / "model.ckpt")
    assert io.load_checkpoint(ckpt)[1]["epoch"] == 2
    assert (d / "resumed.loss.csv").read_bytes() == (d / "model.loss.csv").read_bytes()
    capsys.readouterr()
    # nothing left to do: a clean data error naming the epoch
    assert run("pretrain", "--data", d / "pre", "--config", d / "pre2.cfg",
               "--resume", ckpt, "--out", ckpt) == cli.EXIT_DATA
    assert "epoch 2" in capsys.readouterr().err


def test_resumed_train_is_bitwise_equal_to_uninterrupted(work, capsys):
    d = work
    for epochs in (2, 3):
        (d / f"adv{epochs}.cfg").write_text(ADV_CONFIG.format(epochs))
    args = ("--data", d / "pre", "--seed", 0)
    assert run("train", *args, "--pretrained", d / "model.ckpt", "--config", d / "adv3.cfg",
               "--out", d / "straight") == 0
    assert run("train", *args, "--pretrained", d / "model.ckpt", "--config", d / "adv2.cfg",
               "--out", d / "resumed") == 0
    assert run("train", *args, "--resume", d / "resumed", "--config", d / "adv3.cfg",
               "--out", d / "resumed") == 0
    for name in ("discriminator.ckpt", "generator.ckpt"):
        assert_same_checkpoint(d / "resumed" / name, d / "straight" / name)
    loss = (d / "straight" / "loss.csv").read_bytes()
    assert (d / "resumed" / "loss.csv").read_bytes() == loss
    assert len(loss.splitlines()) == 1 + 3
    capsys.readouterr()
    # nothing left to do: a clean data error naming the epoch, no file touched
    assert run("train", *args, "--resume", d / "straight", "--config", d / "adv3.cfg",
               "--out", d / "straight") == cli.EXIT_DATA
    assert "epoch 3" in capsys.readouterr().err
    assert (d / "straight" / "loss.csv").read_bytes() == loss


def with_frozen_key(src, dst, frozen):
    """``src`` rewritten as an older writer saved it, with the frozen
    groups in its header."""
    with open(src, "rb") as fh:
        meta, arrays = io._parse(fh, io.CHECKPOINT_MAGIC)
    io._save(dst, io.CHECKPOINT_MAGIC, {**meta, "frozen": frozen},
             [(name, arr, arr.dtype) for name, arr in arrays.items()])


def test_checkpoints_with_a_frozen_key_load_and_resume_bitwise(work, tmp_path):
    d = work
    (tmp_path / "adv2.cfg").write_text(ADV_CONFIG.format(2))
    (tmp_path / "adv3.cfg").write_text(ADV_CONFIG.format(3))
    with_frozen_key(d / "model.ckpt", tmp_path / "model.ckpt", [])
    args = ("--data", d / "pre", "--seed", 0)
    assert run("train", *args, "--pretrained", d / "model.ckpt",
               "--config", tmp_path / "adv3.cfg", "--out", tmp_path / "straight") == 0
    assert run("train", *args, "--pretrained", tmp_path / "model.ckpt",
               "--config", tmp_path / "adv2.cfg", "--out", tmp_path / "half") == 0
    old = tmp_path / "old"
    old.mkdir()
    for name in ("discriminator.ckpt", "generator.ckpt"):
        with_frozen_key(tmp_path / "half" / name, old / name, ["decoder"])
        assert b'"frozen": ["decoder"]' in (old / name).read_bytes()
        assert_same_checkpoint(old / name, tmp_path / "half" / name)
    assert run("train", *args, "--resume", old, "--config", tmp_path / "adv3.cfg",
               "--out", old) == 0
    for name in ("discriminator.ckpt", "generator.ckpt"):
        assert_same_checkpoint(old / name, tmp_path / "straight" / name)
        assert b'"frozen"' not in (old / name).read_bytes()
    assert (old / "loss.csv").read_bytes() == (tmp_path / "straight" / "loss.csv").read_bytes()


def test_train_run_directory_holds_the_documented_files(work):
    d = work
    args = ("--data", d / "pre", "--config", d / "pre2.cfg", "--seed", 0)
    assert run("train", *args, "--pretrained", d / "model.ckpt", "--out", d / "given") == 0
    assert run("train", *args, "--out", d / "fresh") == 0
    assert sorted(p.name for p in (d / "given").iterdir()) == [
        "discriminator.ckpt", "generator.ckpt", "loss.csv"]
    assert sorted(p.name for p in (d / "fresh").iterdir()) == [
        "discriminator.ckpt", "generator.ckpt", "loss.csv",
        "pretrained.ckpt", "pretrained.loss.csv"]
    # pretraining inside train is `pretrain --out <dir>/pretrained.ckpt`
    assert_same_checkpoint(d / "fresh" / "pretrained.ckpt", d / "model.ckpt")
    assert (d / "fresh" / "pretrained.loss.csv").read_bytes() == \
        (d / "model.loss.csv").read_bytes()
    for name in ("discriminator.ckpt", "generator.ckpt", "loss.csv"):
        assert (d / "fresh" / name).read_bytes() == (d / "given" / name).read_bytes()


@pytest.mark.parametrize("missing", ["epoch", "history"])
def test_resume_without_training_state_exits_data_error(work, missing, capsys):
    net, meta = io.load_checkpoint(work / "model.ckpt")
    del meta[missing]
    io.save_checkpoint(work / "partial.ckpt", net, **meta)
    assert run("pretrain", "--data", work / "pre", "--config", work / "pre2.cfg",
               "--resume", work / "partial.ckpt", "--out", work / "partial.ckpt") == cli.EXIT_DATA
    assert missing in capsys.readouterr().err


def test_train_resume_with_pretrained_is_a_usage_error(work, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("train", "--data", work / "pre", "--pretrained", work / "model.ckpt",
            "--resume", work / "run", "--out", work / "both")
    assert exit_info.value.code == cli.EXIT_USAGE
    assert "not allowed" in capsys.readouterr().err
    assert not (work / "both").exists()


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


def test_labelled_represent_scores_each_test_subject_under_each_label(
        labelled_pre, labelled_model, tmp_path, monkeypatch):
    """Each test (subject, label) map, encoded under its label, is scored
    against aligned/<subject>.<label>.obj, and --pca-k fits the training
    maps under the same keys."""
    meta = pipeline.load_meta(labelled_pre)
    names = meta["label_names"]
    read, pooled = [], []
    real_read, real_pool = pipeline.load_aligned_meshes, evaluation.generalization_errors
    monkeypatch.setattr(pipeline, "load_aligned_meshes",
                        lambda d, keys, lm: read.append(list(keys)) or real_read(d, keys, lm))
    monkeypatch.setattr(evaluation, "generalization_errors",
                        lambda recs, meshes: pooled.append(len(meshes)) or real_pool(recs, meshes))
    assert run("evaluate", "--task", "represent", "--data", labelled_pre, "--model",
               labelled_model, "--pca-k", 2, "--out", tmp_path / "eval") == 0
    assert read == [[f"{s}.{n}" for s in meta[split] for n in names]
                    for split in ("test", "train")]
    assert pooled == [len(meta["test"]) * len(names)] * 2
    for name in ("represent", "represent_pca"):
        assert (tmp_path / "eval" / f"{name}.json").exists()


@pytest.mark.parametrize("labelled", [False, True])
def test_a_subjects_translation_does_not_depend_on_the_split(work, labelled_pre, labelled,
                                                             tmp_path):
    """The test subjects' OBJs from --split test are byte-identical to
    theirs from --split all. The fresh filters-16 net has a level-16 skip
    projection of 80 channels on 2x2 maps."""
    pre = labelled_pre if labelled else work / "pre"
    meta = pipeline.load_meta(pre)
    io.save_checkpoint(tmp_path / "net.ckpt", Network.build(
        NetConfig(32, 16, 16, label_channels=len(meta["label_names"])),
        np.random.default_rng(1)))
    label = ("--label", "label1") if labelled else ()
    for split in ("test", "all"):
        assert run("translate", "--model", tmp_path / "net.ckpt", "--in", pre, *label,
                   "--split", split, "--out", tmp_path / split) == 0
    assert len(list((tmp_path / "test").iterdir())) == len(meta["test"]) >= 1
    for stem in meta["test"]:
        assert (tmp_path / "test" / f"{stem}.obj").read_bytes() == \
            (tmp_path / "all" / f"{stem}.obj").read_bytes()


def test_labelled_model_in_translate_without_label_exits_data_error(work, labelled_model):
    assert run("translate", "--model", labelled_model, "--in", work / "pre",
               "--out", work / "tr_bad") == cli.EXIT_DATA


@pytest.mark.parametrize("labelled", [False, True])
def test_sampling_reads_only_the_training_inputs(work, labelled_pre, labelled_model,
                                                 labelled, tmp_path, monkeypatch):
    """generate and specificity fit their Gaussian on the training inputs,
    so they load one map per training subject (the noisy map, or the
    neutral one), no targets and nothing of the test split."""
    pre, model = (labelled_pre, labelled_model) if labelled else (work / "pre", work / "model.ckpt")
    label = ("--label", "label1") if labelled else ()
    meta = pipeline.load_meta(pre)
    loaded = []
    real = pipeline.load_uvmap
    monkeypatch.setattr(pipeline, "load_uvmap", lambda path: loaded.append(path.stem) or real(path))
    assert run("generate", "--model", model, "--data", pre, *label, "--n", 2,
               "--out", tmp_path / "gen") == 0
    inputs = meta["train"] if labelled else [f"{s}.noisy" for s in meta["train"]]
    assert sorted(loaded) == inputs and len(inputs) == 7


@pytest.mark.parametrize("label", [None, "label1"])
def test_labelled_generate_samples_the_gaussian_of_one_label(labelled_pre, labelled_model,
                                                             label, tmp_path):
    """generate encodes the neutral training maps under --label (by default
    the first label) and samples the one Gaussian of those codes."""
    pre = labelled_pre
    meta = pipeline.load_meta(pre)
    layout = io.load_layout(pre / "layout.uvl")
    net = io.load_checkpoint(labelled_model)[0]
    x = np.stack([io.load_uvmap(pre / "maps" / f"{s}.uvf").data for s in meta["train"]])
    onehots = np.zeros((len(x), 2), dtype=np.float32)
    onehots[:, 1 if label else 0] = 1.0
    g = generation.fit_latent_gaussian(generation.collect_bottlenecks(net, x, onehots))
    maps = generation.decode_batch(
        net, generation.sample_latent(g, np.random.default_rng(0), n=3))
    (tmp_path / "want").mkdir()
    for i, m in enumerate(maps):
        save_obj(tmp_path / "want" / f"gen_{i:05d}.obj",
                 pipeline.map_to_mesh(m, layout, meta["landmarks"], meta))
    assert run("generate", "--model", labelled_model, "--data", pre,
               *(("--label", label) if label else ()), "--n", 3, "--out", tmp_path / "gen") == 0
    want = sorted((tmp_path / "want").iterdir())
    assert [p.name for p in sorted((tmp_path / "gen").iterdir())] == [p.name for p in want]
    for p in want:
        assert (tmp_path / "gen" / p.name).read_bytes() == p.read_bytes()


def test_generate_unknown_label_on_unlabelled_set_exits_data_error(work, tmp_path, capsys):
    assert run("generate", "--model", work / "model.ckpt", "--data", work / "pre",
               "--label", "smile", "--n", 2, "--out", tmp_path / "gen") == cli.EXIT_DATA
    assert "smile" in capsys.readouterr().err
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("labelled", [False, True])
def test_translate_evaluation_needs_an_unlabelled_noisy_set(labelled_pre, labelled_model,
                                                            two_subjects, labelled, tmp_path,
                                                            capsys):
    """The labelled set and a clean-only set have no noisy inputs to score."""
    pre, model = ((labelled_pre, labelled_model) if labelled
                  else (two_subjects / "pre", two_subjects / "model.ckpt"))
    assert run("evaluate", "--task", "translate", "--data", pre, "--model", model,
               "--out", tmp_path / "eval") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "needs an unlabelled set with noisy companions" in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("labelled", [False, True])
def test_paired_datasets_pair_each_input_with_its_target(work, labelled_pre, labelled):
    """Labelled: (neutral, one-hot j) -> the label-j map, per subject and
    label in order. Noisy: the noisy map -> the clean one."""
    pre = labelled_pre if labelled else work / "pre"
    meta = pipeline.load_meta(pre)
    data = pipeline.load_paired_datasets(pre)

    def uvf(key):
        return io.load_uvmap(pre / "maps" / f"{key}.uvf").data.tobytes()

    for split in ("train", "test"):
        ds = data[split]
        names = meta["label_names"] or [None]
        pairs = [(stem, j, name) for stem in meta[split] for j, name in enumerate(names)]
        assert len(ds) == len(pairs)
        assert (ds.labels is None) != labelled
        for i, (stem, j, name) in enumerate(pairs):
            if labelled:
                assert ds.x[i].tobytes() == uvf(stem)
                assert ds.y[i].tobytes() == uvf(f"{stem}.{name}")
                assert ds.labels[i].tolist() == [float(k == j) for k in range(len(names))]
            else:
                assert ds.x[i].tobytes() == uvf(f"{stem}.noisy")
                assert ds.y[i].tobytes() == uvf(stem)


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


@pytest.mark.parametrize("option", [("--pca-k", -1), ("--pca-k", 0), ("--pca-var", 1.5),
                                    ("--pca-var", -0.5), ("--pca-var", 0), ("--pca-var", "nan"),
                                    ("--pca-k", 2, "--pca-var", 0.5)])
def test_pca_option_out_of_range_is_a_usage_error(work, option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("evaluate", "--task", "represent", "--model", "identity", "--data", work / "pre",
            *option, "--out", work / "pca_bad")
    assert exit_info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert all(flag in err for flag in option[::2]) and "Traceback" not in err
    assert not (work / "pca_bad").exists()


@pytest.mark.parametrize("argv", [
    ("synth", "--subjects", 2, "--modes", 0),
    ("synth", "--subjects", 2, "--labels", 9),
    ("synth", "--subjects", -1),
    ("synth", "--subjects", 2, "--noise", "nan"),
    ("synth", "--subjects", 2, "--noise", -1),
    ("synth", "--subjects", 2, "--noise", "inf"),
    ("synth", "--subjects", 2, "--amplitude", "nan"),
    ("synth", "--subjects", 2, "--amplitude", -0.5),
    ("synth", "--subjects", 2, "--amplitude", "inf"),
    ("synth", "--subjects", 2, "--grid", 1),
    ("synth", "--subjects", 2, "--grid", 0),
    ("preprocess", "--in", "raw", "--template", "t.obj", "--landmarks", "l.txt", "--res", 0),
    ("evaluate", "--task", "represent", "--data", "pre", "--model", "identity", "--x-max", 0),
    ("evaluate", "--task", "translate", "--data", "pre", "--model", "m.ckpt",
     "--crop-radius", -1),
    ("synth", "--subjects", 2, "--seed", -1),
    ("preprocess", "--in", "raw", "--template", "t.obj", "--landmarks", "l.txt", "--seed", -1),
    ("pretrain", "--data", "pre", "--seed", -1),
    ("train", "--data", "pre", "--seed", -1),
    ("generate", "--model", "m.ckpt", "--data", "pre", "--seed", -1),
    ("evaluate", "--task", "specificity", "--data", "pre", "--model", "m.ckpt", "--seed", -1),
    ("evaluate", "--task", "represent", "--data", "pre", "--model", "identity",
     "--fail-threshold", "nan"),
    ("evaluate", "--task", "represent", "--data", "pre", "--model", "identity",
     "--fail-threshold", -1),
    ("evaluate", "--task", "represent", "--data", "pre", "--model", "identity",
     "--fail-threshold", "inf"),
])
def test_out_of_range_option_is_a_usage_error(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, "--out", tmp_path / "out")
    assert exit_info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert str(argv[-2]) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def two_subjects(tmp_path_factory):
    """A preprocessed 2-subject set (1 training map, 1 test map) and an
    untrained model for it."""
    d = tmp_path_factory.mktemp("two")
    assert run("synth", "--subjects", 2, "--grid", 20, "--out", d / "raw") == 0
    assert run("preprocess", "--in", d / "raw", "--template", d / "raw" / "template.obj",
               "--landmarks", d / "raw" / "landmarks.txt", "--res", 32, "--out", d / "pre") == 0
    io.save_checkpoint(d / "model.ckpt",
                       Network.build(NetConfig(32, 2, 4), np.random.default_rng(0)))
    return d


@pytest.mark.parametrize("command", [
    ("generate",),
    ("evaluate", "--task", "specificity", "--n", 2),
    ("evaluate", "--task", "represent", "--pca-k", 2),
])
def test_too_small_training_split_exits_data_error(two_subjects, command, capsys):
    d = two_subjects
    assert len(pipeline.load_meta(d / "pre")["train"]) == 1
    assert run(*command, "--data", d / "pre", "--model", d / "model.ckpt",
               "--out", d / "out") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "at least 2 training subjects" in err and "Traceback" not in err
    assert not (d / "out").exists()


def test_pca_k_above_the_training_rank_exits_data_error(work, capsys):
    """n centred training meshes span n - 1 directions: --pca-k n exits 2
    naming the flag and the training count, before any report is written,
    and --pca-k n - 1 keeps n - 1 components."""
    n = len(pipeline.load_meta(work / "pre")["train"])
    argv = ("evaluate", "--task", "represent", "--model", "identity", "--data", work / "pre")
    assert run(*argv, "--pca-k", n, "--out", work / "pca_n") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"--pca-k {n}" in err and f"{n} training meshes" in err and "Traceback" not in err
    assert not (work / "pca_n").exists()
    assert run(*argv, "--pca-k", n - 1, "--out", work / "pca_rank") == cli.EXIT_OK
    report = json.loads((work / "pca_rank" / "represent_pca.json").read_text())
    assert report["pca_components"] == n - 1


def test_empty_test_split_trains_and_evaluate_exits_data_error(tmp_path, capsys):
    """A 1-subject set has no test subject: both training commands run
    (train reports a NaN test L1), translating the test split writes no
    mesh, and every evaluate task exits 2, naming the empty split, before
    it loads the model."""
    assert run("synth", "--subjects", 1, "--grid", 20, "--out", tmp_path / "raw") == 0
    assert run("preprocess", "--in", tmp_path / "raw",
               "--template", tmp_path / "raw" / "template.obj",
               "--landmarks", tmp_path / "raw" / "landmarks.txt", "--res", 32,
               "--out", tmp_path / "pre") == 0
    assert "1 train / 0 test" in capsys.readouterr().out
    (tmp_path / "cfg").write_text(CONFIG.format(1))
    args = ("--data", tmp_path / "pre", "--config", tmp_path / "cfg")
    assert run("pretrain", *args, "--out", tmp_path / "model.ckpt") == 0
    assert run("train", *args, "--out", tmp_path / "run") == 0
    out = capsys.readouterr()
    assert "test reconstruction L1 = nan" in out.out and "Traceback" not in out.err
    assert run("translate", "--model", tmp_path / "model.ckpt", "--in", tmp_path / "pre",
               "--split", "test", "--out", tmp_path / "tr") == 0
    assert not list((tmp_path / "tr").glob("*.obj"))
    for task in ("represent", "translate", "specificity"):
        assert run("evaluate", "--task", task, "--data", tmp_path / "pre",
                   "--model", tmp_path / "absent.ckpt", "--out", tmp_path / "eval") \
            == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "test split is empty" in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command, poison_after, message", [
    ("pretrain", 3, "pretrain epoch 2"),        # 2 batches of 7 maps, 1 update each
    ("train", 5, "adversarial epoch 2"),        # 2 batches, a D and a G update each
])
def test_non_finite_step_exits_numeric_naming_phase_and_epoch(work, tmp_path, monkeypatch,
                                                              capsys, command, poison_after,
                                                              message):
    """A NaN written into a parameter by an Adam update makes the next
    forward non-finite: exit 3 with the phase and epoch, and the failed
    epoch writes no checkpoint, so epoch 1's stay whole."""
    (tmp_path / "cfg").write_text(ADV_CONFIG.format(2))
    real, calls = ad.adam_step, []

    def poisoning(params, state, lr):
        real(params, state, lr)
        calls.append(1)
        if len(calls) == poison_after:
            params[0].data[...] = np.nan

    monkeypatch.setattr(ad, "adam_step", poisoning)
    if command == "pretrain":
        argv, out, names = ("pretrain",), tmp_path / "run" / "model.ckpt", ["model.ckpt"]
    else:
        argv = ("train", "--pretrained", work / "model.ckpt")
        out, names = tmp_path / "run", ["discriminator.ckpt", "generator.ckpt"]
    assert run(*argv, "--data", work / "pre", "--config", tmp_path / "cfg", "--seed", 0,
               "--out", out) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert message in err and "non-finite" in err and "Traceback" not in err
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == names
    for name in names:
        assert io.load_checkpoint(tmp_path / "run" / name)[1]["epoch"] == 1


def test_resumable_state_holds_one_adam_state_per_checkpoint(work, tmp_path):
    assert run("train", "--data", work / "pre", "--pretrained", work / "model.ckpt",
               "--config", work / "pre1.cfg", "--seed", 0, "--out", tmp_path) == 0
    for paths, groups in (([work / "model.ckpt"], ()),
                          ([tmp_path / "discriminator.ckpt", tmp_path / "generator.ckpt"],
                           ADVERSARIAL_GROUPS)):
        nets, state = io.load_resumable(*paths)
        assert len(state.adams) == len(nets) == len(paths)
        for net, adam in zip(nets, state.adams):
            # each net's own moments, for exactly the tensors its phase trains
            assert set(adam.m) == {p.node_id for p in net.params.tensors(*groups)}


def test_translate_report_has_exactly_its_summary_keys(work):
    assert run("evaluate", "--task", "translate", "--data", work / "pre",
               "--model", work / "model.ckpt", "--out", work / "eval_keys") == 0
    keys = {"metric", "mean", "std", "auc", "fr", "x_max", "threshold", "seed",
            "identity_mean"}
    report = json.loads((work / "eval_keys" / "translate.json").read_text())
    assert set(report) == keys
    header = (work / "eval_keys" / "translate.csv").read_text().splitlines()[0]
    assert set(header.split(",")) == keys


BAD_LANDMARKS = pytest.mark.parametrize("edit, named", [
    (lambda lms: lms.pop("nose-tip"), "nose-tip"),
    (lambda lms: lms.update({"right-eye-outer": lms["left-eye-outer"]}), "right-eye-outer"),
], ids=["missing-nose-tip", "coinciding-eye-corners"])


def preprocess_with_landmarks(work, out, edit):
    """Preprocess the shared raw set into ``out``/pre with its landmark
    file changed by ``edit``."""
    raw = work / "raw"
    landmarks = load_landmarks(raw / "landmarks.txt")
    edit(landmarks)
    save_landmarks(out / "landmarks.txt", landmarks)
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", out / "landmarks.txt", "--res", 32,
               "--out", out / "pre") == 0
    return out / "pre"


@BAD_LANDMARKS
def test_translate_bad_landmarks_exit_data_error(work, tmp_path, edit, named, capsys):
    pre = preprocess_with_landmarks(work, tmp_path, edit)
    capsys.readouterr()
    assert run("evaluate", "--task", "translate", "--data", pre,
               "--model", work / "model.ckpt", "--out", tmp_path / "eval") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err


@BAD_LANDMARKS
def test_translate_bad_landmarks_are_refused_before_the_model_loads(work, tmp_path, edit,
                                                                     named, capsys):
    pre = preprocess_with_landmarks(work, tmp_path, edit)
    capsys.readouterr()
    assert run("evaluate", "--task", "translate", "--data", pre,
               "--model", tmp_path / "absent.ckpt", "--out", tmp_path / "eval") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err and "absent.ckpt" not in err


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
                                  "filters = two", "checkpoint_every = -1", "seed = -1",
                                  "skip_levels = 8,8", "lr = inf", "lambda_adv = inf"])
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


def test_smallest_synth_grid_preprocesses(tmp_path):
    raw = tmp_path / "raw"
    assert run("synth", "--subjects", 3, "--grid", 2, "--out", raw) == 0
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", raw / "landmarks.txt", "--res", 8, "--out", tmp_path / "pre") == 0


def test_holed_layout_preprocess_fills_from_the_nearest_covered_pixel(tmp_path):
    """A --layout whose chart leaves a border of uncovered pixels: every
    saved map keeps that coverage, is finite, and takes each uncovered
    pixel from the covered pixel the brute-force oracle names."""
    raw = tmp_path / "raw"
    assert run("synth", "--subjects", 3, "--grid", 12, "--noise", 0.01, "--out", raw) == 0
    chart = cylindrical_unwrap(load_obj(raw / "template.obj"))
    io.save_layout(tmp_path / "holed.uvl", UVLayout(0.1 + 0.8 * chart.uv, chart.faces))
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", raw / "landmarks.txt", "--res", 16,
               "--layout", tmp_path / "holed.uvl", "--out", tmp_path / "pre") == 0
    paths = sorted((tmp_path / "pre" / "maps").glob("*.uvf"))
    assert len(paths) == 6
    for path in paths:
        uvm = io.load_uvmap(path)
        assert not uvm.valid.all() and np.isfinite(uvm.data).all()
        assign = naive_nearest_fill_assignment(uvm.valid)
        np.testing.assert_array_equal(uvm.data.reshape(3, -1)[:, assign], uvm.data.reshape(3, -1))


LOADS_SCIPY = """
import sys

import numpy as np

from facegan3d import cli
from facegan3d.geometry import UVMap, nearest_fill

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

d = sys.argv[1]
assert cli.main(["synth", "--subjects", "8", "--grid", "20", "--noise", "0.01",
                 "--out", d + "/raw"]) == 0
assert cli.main(["preprocess", "--in", d + "/raw", "--template", d + "/raw/template.obj",
                 "--landmarks", d + "/raw/landmarks.txt", "--res", "32",
                 "--out", d + "/pre"]) == 0
assert cli.main(["pretrain", "--data", d + "/pre", "--config", d + "/pre.cfg",
                 "--out", d + "/model.ckpt"]) == 0
assert cli.main(["evaluate", "--task", "translate", "--data", d + "/pre",
                 "--model", d + "/model.ckpt", "--out", d + "/eval"]) == 0
valid = np.ones((8, 8), dtype=bool)
valid[3:5, 2:6] = False
nearest_fill(UVMap(np.where(valid, 1.0, np.nan)[None], valid))
assert not scipy_modules(), scipy_modules()[:5]
"""


def test_no_command_loads_scipy(tmp_path):
    """The CLI's import, a synth -> preprocess -> pretrain run on a fully
    covered layout with noisy companions, the translation evaluation
    (whose ICP pairs vertices by index) and a fill of uncovered pixels
    load no scipy module. Run in a fresh interpreter, where nothing else
    has loaded it."""
    (tmp_path / "pre.cfg").write_text(CONFIG.format(1))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADS_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["template.obj", "meshes/subj_0001.obj",
                                  "meshes/subj_0001.noisy.obj"])
def test_non_finite_input_mesh_exits_data_error(tmp_path, name, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--subjects", 2, "--grid", 5, "--noise", 0.01, "--out", raw) == 0
    bad = raw / name
    bad.write_text("v 1 1 nan\n" + bad.read_text().split("\n", 1)[1])
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", raw / "landmarks.txt", "--res", 8,
               "--out", tmp_path / "pre") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad}: non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("how", ["removed", "labelled"])
def test_orphan_noisy_companion_exits_data_error(tmp_path, how, capsys):
    """A noisy companion whose clean mesh is missing, or is a labelled
    target, has no subject to align to: a data error that names it, raised
    before any mesh loads."""
    raw = tmp_path / "raw"
    assert run("synth", "--subjects", 2, "--grid", 5, "--noise", 0.01, "--out", raw) == 0
    if how == "removed":
        (raw / "meshes" / "subj_0001.obj").unlink()
    else:
        (raw / "labels.csv").write_text("file,label\nsubj_0001.obj,smile\n")
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", raw / "landmarks.txt", "--res", 8,
               "--out", tmp_path / "pre") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(raw / "meshes" / "subj_0001.noisy.obj") in err and "Traceback" not in err


def _drop_first_vertex(path):
    path.write_text(path.read_text().split("\n", 1)[1])


def _add_a_vertex(path):
    path.write_text("v 0 0 0\n" + path.read_text())


def _nan_vertex(path):
    path.write_text("v 1 1 nan\n" + path.read_text().split("\n", 1)[1])


# defect -> (the mesh file the refusal names, the mesh file edited, the edit)
REFUSED_SETS = {
    "orphan_noisy_companion": ("subj_0001.noisy.obj", "subj_0001.obj", Path.unlink),
    "nan_clean_mesh": ("subj_0001.obj", "subj_0001.obj", _nan_vertex),
    "nan_noisy_mesh": ("subj_0001.noisy.obj", "subj_0001.noisy.obj", _nan_vertex),
    "clean_mesh_missing_a_vertex": ("subj_0001.obj", "subj_0001.obj", _drop_first_vertex),
    "noisy_mesh_with_an_extra_vertex": ("subj_0001.noisy.obj", "subj_0001.noisy.obj",
                                        _add_a_vertex),
}


@pytest.mark.parametrize("defect", sorted(REFUSED_SETS))
def test_refused_preprocess_leaves_nothing_behind(tmp_path, defect, capsys):
    """Every input is read and checked before the first write: a refused
    set exits 2 with one line naming the file, and no output path."""
    raw = tmp_path / "raw"
    assert run("synth", "--subjects", 2, "--grid", 5, "--noise", 0.01, "--out", raw) == 0
    named, edited, edit = REFUSED_SETS[defect]
    edit(raw / "meshes" / edited)
    capsys.readouterr()
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", raw / "landmarks.txt", "--res", 8,
               "--out", tmp_path / "pre") == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(raw / "meshes" / named) in err[0], err
    assert "Traceback" not in err[0]
    assert not (tmp_path / "pre").exists()


def test_preprocess_shares_one_triangulation(tmp_path, monkeypatch):
    """Every mesh that preprocess aligns, clean or noisy, and the layout
    hold one faces array."""
    raw = tmp_path / "raw"
    assert run("synth", "--subjects", 4, "--grid", 9, "--noise", 0.01, "--out", raw) == 0
    seen = []

    def rasterize(mesh, layout, res):
        seen.append((mesh.faces, layout.faces))
        return rasterize_uv(mesh, layout, res)

    rasterize_uv = pipeline.rasterize_uv
    monkeypatch.setattr(pipeline, "rasterize_uv", rasterize)
    assert run("preprocess", "--in", raw, "--template", raw / "template.obj",
               "--landmarks", raw / "landmarks.txt", "--res", 16,
               "--out", tmp_path / "pre") == 0
    assert len(seen) == 8
    one = seen[0][1]
    assert all(np.shares_memory(f, one) and np.shares_memory(lf, one) for f, lf in seen)
