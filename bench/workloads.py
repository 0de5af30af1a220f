"""The three benchmark workloads. Each one drives ``facegan3d.cli.main``
in-process, one command at a time, as a user would.

A workload has a set-up (build the inputs from the seed), a timed phase
(the CLI commands whose cost the workload measures) and output checks.
Every CLI command and every check is one operation in an :class:`Ops`
ledger; a failure is recorded there instead of aborting the run.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facegan3d import cli
from facegan3d import io as fio
from facegan3d import pipeline
from facegan3d.geometry import load_obj
from facegan3d.training import reconstruction_l1

NOISE = 0.01
MODEL_SEED = 0
# a noisy map may exceed 1 by at most this many noise deviations
NOISY_SIGMAS = 7


@dataclass(frozen=True)
class Sizes:
    """Input sizes. Subject counts are chosen so the train split (85%)
    is a whole number of batches of 16."""
    prep_subjects: int = 19
    prep_res: int = 64
    train_subjects: int = 19
    train_res: int = 32
    pretrain_epochs: int = 4
    adv_epochs: int = 2
    infer_subjects: int = 19
    infer_res: int = 64
    infer_pretrain_epochs: int = 1
    generate_n: int = 32
    pca_k: int = 8
    filters: int = 16
    latent: int = 16
    batch: int = 16


# used by the self-test: every command still runs, on the smallest inputs
TINY = Sizes(prep_subjects=7, prep_res=32, train_subjects=7, train_res=32,
             pretrain_epochs=1, adv_epochs=1, infer_subjects=7, infer_res=32,
             infer_pretrain_epochs=1, generate_n=4, pca_k=2, filters=4,
             latent=4, batch=4)


class Ops:
    """Ledger of attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.stdout = ""   # of the last CLI command

    @property
    def failed(self) -> int:
        return len(self.failures)

    def cli(self, *argv) -> float:
        """Run one CLI command with its stdout kept in ``self.stdout``;
        returns its wall time. A non-zero exit code or an exception counts
        as a failure."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        sink = _io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        except (Exception, SystemExit):
            rc = "exception"
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        self.stdout = sink.getvalue()
        if rc != 0:
            self._fail(f"{argv[0]} exited with {rc}")
        return dt

    def check(self, name: str, fn) -> bool:
        """Run one output check; ``fn`` returns True when it passes."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as e:  # a check that cannot run has failed
            ok = False
            name = f"{name} ({type(e).__name__}: {e})"
        if not ok:
            self._fail(f"check failed: {name}")
        return ok

    def _fail(self, what: str):
        self.failures.append(what)
        print(f"bench: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# shared steps


def _synth(ops: Ops, out: Path, subjects: int, seed: int):
    ops.cli("synth", "--subjects", subjects, "--noise", NOISE, "--seed", seed,
            "--out", out)


def _preprocess(ops: Ops, raw: Path, out: Path, res: int, seed: int) -> float:
    return ops.cli("preprocess", "--in", raw, "--template", raw / "template.obj",
                   "--landmarks", raw / "landmarks.txt", "--res", res,
                   "--seed", seed, "--out", out)


def _write_config(path: Path, sz: Sizes, pretrain_epochs: int, epochs: int = 1):
    path.write_text(
        f"filters = {sz.filters}\nlatent = {sz.latent}\nbatch = {sz.batch}\n"
        f"pretrain_batch = {sz.batch}\npretrain_epochs = {pretrain_epochs}\n"
        f"epochs = {epochs}\n")


def _finite_json(path: Path) -> bool:
    vals = [v for v in json.loads(path.read_text()).values()
            if isinstance(v, (int, float)) and not isinstance(v, bool)]
    return bool(vals) and all(math.isfinite(v) for v in vals)


def _obj_vertex_count(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.startswith("v "))


def _csv_columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def _n_train(subjects: int) -> int:
    return subjects - max(1, int(round(pipeline.TEST_FRACTION * subjects)))


# ---------------------------------------------------------------------------
# prep: preprocessing of a noisy scan set


class Prep:
    name = "prep"
    why = ("preprocess of clean and noisy scans: OBJ parse, GPA, UV raster "
           "and fill, map writes on thread_map; no autodiff")

    def __init__(self, sz: Sizes):
        self.sz = sz

    def setup(self, ops: Ops, d: Path, seed: int):
        _synth(ops, d / "raw", self.sz.prep_subjects, seed)

    def phase(self, ops: Ops, d: Path, out: Path, seed: int) -> dict:
        t = _preprocess(ops, d / "raw", out / "pre", self.sz.prep_res, seed)
        return {"preprocess_s": t}

    def stages(self, times: dict) -> dict:
        meshes = 2 * self.sz.prep_subjects
        return {"prep_meshes_per_s": meshes / times["preprocess_s"]}

    def check(self, ops: Ops, d: Path, out: Path) -> dict:
        pre = out / "pre"
        n = self.sz.prep_subjects
        meta = pipeline.load_meta(pre)
        maps = {p.stem: fio.load_uvmap(p).data for p in sorted((pre / "maps").glob("*.uvf"))}
        ops.check("one map per clean and noisy mesh", lambda: len(maps) == 2 * n)
        ops.check("one aligned OBJ per mesh",
                  lambda: len(list((pre / "aligned").glob("*.obj"))) == 2 * n)
        ops.check("split sizes match meta.json", lambda: (
            len(meta["subjects"]) == n
            and len(meta["train"]) == _n_train(n)
            and sorted(meta["train"] + meta["test"]) == sorted(meta["subjects"])))
        ops.check("maps finite", lambda: all(np.isfinite(m).all() for m in maps.values()))
        stems = meta["subjects"]
        clean = [maps[s] for s in stems]
        ops.check("clean maps within [-1, 1]", lambda: max(np.abs(m).max() for m in clean) <= 1.0)
        # The dataset scale comes from the clean meshes only. A noisy
        # companion is aligned onto its clean mesh, so it may exceed 1 by its
        # noise: NOISE in raw units times the clean mesh's raw-to-normalised
        # scale, here bounded at NOISY_SIGMAS deviations.
        aligned = pipeline.load_aligned_meshes(pre, stems, meta["landmarks"])
        excess = []   # per noisy map: how far past 1, in noise deviations
        for stem, mesh in zip(stems, aligned):
            raw = load_obj(d / "raw" / "meshes" / f"{stem}.obj")
            sigma = NOISE * _size(mesh.vertices) / _size(raw.vertices)
            excess.append((np.abs(maps[f"{stem}.noisy"]).max() - 1.0) / sigma)
        ops.check(f"noisy maps within [-1, 1] widened by {NOISY_SIGMAS} noise deviations",
                  lambda: max(excess) <= NOISY_SIGMAS)
        noisy = [maps[f"{s}.noisy"] for s in stems]
        return {"uv_roundtrip_vs_spread": _roundtrip_error(pre, stems, aligned, maps),
                "noisy_max_abs": float(max(np.abs(m).max() for m in noisy)),
                "noisy_excess_sigmas": float(max(excess))}


def _size(verts: np.ndarray) -> float:
    """RMS distance of the vertices to their centroid."""
    return float(np.sqrt(((verts - verts.mean(axis=0)) ** 2).sum(axis=1).mean()))


def _roundtrip_error(pre: Path, stems: list[str], meshes: list, maps: dict) -> float:
    """Mean vertex distance between each aligned clean mesh and the mesh
    sampled back from its map, divided by the mean distance of those
    meshes to their mean shape: UV map fidelity in units of shape spread."""
    from facegan3d.geometry import UVMap, sample_mesh_from_uv
    layout = fio.load_layout(pre / "layout.uvl")
    err = []
    for stem, mesh in zip(stems, meshes):
        m = maps[stem]
        back = sample_mesh_from_uv(UVMap(m, np.ones(m.shape[1:], dtype=bool), True), layout)
        err.append(np.linalg.norm(back.vertices - mesh.vertices, axis=1).mean())
    verts = np.stack([m.vertices for m in meshes])
    spread = np.linalg.norm(verts - verts.mean(axis=0), axis=2).mean()
    return float(np.mean(err) / spread)


# ---------------------------------------------------------------------------
# train: autoencoder pretrain, then adversarial training


class Train:
    name = "train"
    why = ("pretrain then adversarial train at res 32: autodiff forward, "
           "backward and Adam; almost no geometry")

    def __init__(self, sz: Sizes):
        self.sz = sz

    def setup(self, ops: Ops, d: Path, seed: int):
        _synth(ops, d / "raw", self.sz.train_subjects, seed)
        _preprocess(ops, d / "raw", d / "pre", self.sz.train_res, seed)
        _write_config(d / "net.cfg", self.sz, self.sz.pretrain_epochs, self.sz.adv_epochs)

    def phase(self, ops: Ops, d: Path, out: Path, seed: int) -> dict:
        t_pre = ops.cli("pretrain", "--data", d / "pre", "--config", d / "net.cfg",
                        "--seed", MODEL_SEED, "--out", out / "pretrained.ckpt")
        t_adv = ops.cli("train", "--data", d / "pre", "--pretrained",
                        out / "pretrained.ckpt", "--config", d / "net.cfg",
                        "--seed", MODEL_SEED, "--out", out / "run")
        # the test L1 it prints comes from the in-memory G
        (out / "train.stdout").write_text(ops.stdout)
        return {"pretrain_s": t_pre, "train_s": t_adv}

    def stages(self, times: dict) -> dict:
        n = _n_train(self.sz.train_subjects)
        return {
            "pretrain_samples_per_s": n * self.sz.pretrain_epochs / times["pretrain_s"],
            "adv_samples_per_s": n * self.sz.adv_epochs / times["train_s"],
        }

    def check(self, ops: Ops, d: Path, out: Path) -> dict:
        run = out / "run"
        ops.check("pretrain losses finite", lambda: np.isfinite(
            _csv_columns(out / "pretrained.loss.csv")).all())
        ops.check("adversarial losses finite",
                  lambda: np.isfinite(_csv_columns(run / "loss.csv")).all())
        pre, _ = fio.load_checkpoint(out / "pretrained.ckpt")
        d_net, _ = fio.load_checkpoint(run / "discriminator.ckpt")
        g_net, _ = fio.load_checkpoint(run / "generator.ckpt")
        frozen = pre.params.checksum("decoder")
        ops.check("D decoder frozen", lambda: d_net.params.checksum("decoder") == frozen)
        ops.check("G decoder frozen", lambda: g_net.params.checksum("decoder") == frozen)
        data = pipeline.load_paired_datasets(d / "pre")
        test_l1 = reconstruction_l1(g_net, data["test"])
        printed = re.search(r"final test reconstruction L1 = (\S+)",
                            (out / "train.stdout").read_text())
        ops.check("saved G reloads with the trained G's test L1",
                  lambda: printed.group(1) == f"{test_l1:.6f}")
        mean_map = data["train"].y.mean(axis=0)
        baseline = float(np.abs(data["test"].y - mean_map).mean())
        return {"test_l1": test_l1, "mean_map_l1": baseline,
                "test_l1_vs_mean": test_l1 / baseline}


# ---------------------------------------------------------------------------
# infer: translation, generation and evaluation with a trained model


REPORTS = ("represent", "represent_pca", "translate", "specificity")


class Infer:
    name = "infer"
    why = ("translate, generate and evaluate at res 64: forward-only autodiff, "
           "UV sampling, ICP, OBJ writes; no backward")

    def __init__(self, sz: Sizes):
        self.sz = sz

    def setup(self, ops: Ops, d: Path, seed: int):
        _synth(ops, d / "raw", self.sz.infer_subjects, seed)
        _preprocess(ops, d / "raw", d / "pre", self.sz.infer_res, seed)
        _write_config(d / "net.cfg", self.sz, self.sz.infer_pretrain_epochs)
        ops.cli("pretrain", "--data", d / "pre", "--config", d / "net.cfg",
                "--seed", MODEL_SEED, "--out", d / "model.ckpt")

    def phase(self, ops: Ops, d: Path, out: Path, seed: int) -> dict:
        pre, model, ev = d / "pre", d / "model.ckpt", out / "eval"
        n = self.sz.generate_n
        times = {
            "translate_s": ops.cli("translate", "--model", model, "--in", pre,
                                   "--split", "all", "--out", out / "translated"),
            "generate_s": ops.cli("generate", "--model", model, "--data", pre,
                                  "--n", n, "--seed", seed, "--out", out / "generated"),
        }
        times["evaluate_s"] = sum([
            ops.cli("evaluate", "--task", "represent", "--data", pre, "--model", model,
                    "--pca-k", self.sz.pca_k, "--seed", seed, "--out", ev),
            ops.cli("evaluate", "--task", "translate", "--data", pre, "--model", model,
                    "--seed", seed, "--out", ev),
            ops.cli("evaluate", "--task", "specificity", "--data", pre, "--model", model,
                    "--n", n, "--seed", seed, "--out", ev),
        ])
        return times

    def stages(self, times: dict) -> dict:
        return {
            "translate_meshes_per_s": self.sz.infer_subjects / times["translate_s"],
            "generate_meshes_per_s": self.sz.generate_n / times["generate_s"],
            "evaluate_s": times["evaluate_s"],
        }

    def check(self, ops: Ops, d: Path, out: Path) -> dict:
        n_verts = _obj_vertex_count(d / "raw" / "template.obj")
        for sub, count in (("translated", self.sz.infer_subjects),
                           ("generated", self.sz.generate_n)):
            objs = sorted((out / sub).glob("*.obj"))
            ops.check(f"{sub}: one OBJ per mesh", lambda: len(objs) == count)
            ops.check(f"{sub}: template vertex count", lambda: all(
                _obj_vertex_count(p) == n_verts for p in objs))
        for name in REPORTS:
            ops.check(f"{name} report finite",
                      lambda: _finite_json(out / "eval" / f"{name}.json"))
        rep = {name: json.loads((out / "eval" / f"{name}.json").read_text())
               for name in REPORTS}
        return {
            "represent_mean": rep["represent"]["mean"],
            "represent_pca_mean": rep["represent_pca"]["mean"],
            "represent_vs_pca": rep["represent"]["mean"] / rep["represent_pca"]["mean"],
            "translate_mean": rep["translate"]["mean"],
            "identity_mean": rep["translate"]["identity_mean"],
            "translate_vs_identity": rep["translate"]["mean"] / rep["translate"]["identity_mean"],
            "specificity": rep["specificity"]["mean"],
        }


WORKLOADS = {w.name: w for w in (Prep, Train, Infer)}
