"""Command-line pipeline: synth -> preprocess -> pretrain -> train ->
generate / translate / evaluate.

Exit codes: 0 success, 1 usage error (an out-of-range option value too,
e.g. a negative ``--seed``, a ``synth`` ``--noise`` or ``--amplitude``
or an ``evaluate`` ``--fail-threshold`` that is negative or not finite,
or a ``--grid`` below 2), 2 data/format error (e.g. a labelled model on
unlabelled maps, an unknown ``--label``, an input mesh with a NaN or
infinite coordinate, a noisy companion without its clean mesh, a training
split too small to fit a Gaussian or PCA on, ``evaluate`` on an empty test
split, or ``evaluate --task translate`` on a set that is labelled, has no
noisy companions, lacks a landmark the 3DRMSE reads or has coinciding
outer-eye landmarks), 3 numerical failure (a NaN abort, naming the
training phase and epoch).

Output meshes (``generate``, ``translate``) are in the raw input's units,
and a subject's translation does not depend on ``--split`` (a map's output
does not depend on its batch-mates). ``evaluate`` works on normalised
meshes, with ``--crop-radius`` in input units (by default the whole face
is kept). ``evaluate --task represent`` scores the net's output for the
saved clean test maps (``maps/``); on a labelled set, each test subject's
map under each label, encoded under it, against its ``aligned/`` mesh.

``pretrain --out M`` writes M and M.loss.csv. ``train --out DIR`` writes
DIR/discriminator.ckpt, DIR/generator.ckpt and DIR/loss.csv, and without
``--pretrained`` first pretrains into DIR/pretrained.ckpt and
DIR/pretrained.loss.csv. Each checkpoint is replaced on every due epoch
(each ``checkpoint_every``-th and a phase's last) and carries its Adam
moments, epoch, RNG state and loss history, so ``pretrain --resume M`` and
``train --resume DIR`` continue bitwise as if uninterrupted. ``train
--resume`` reads DIR's two network checkpoints; resume a pretraining
interrupted inside ``train`` with ``pretrain --resume DIR/pretrained.ckpt``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, generation, io, pipeline
from .errors import DataFormatError, NonFiniteError, NumericalError, ShapeError
from .geometry import save_obj
from .model import NetConfig, translate_map
from .synthetic import MAX_LABELS, synth_dataset
from .training import (TrainConfig, pretrain_discriminator, reconstruction_l1,
                       train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _checked(cast, ok, rule: str):
    """An argparse ``type`` that casts its text and rejects a value that
    fails ``ok`` (NaN fails every comparison) as a usage error."""
    def parse(text: str):
        v = cast(text)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {v}")
        return v
    parse.__name__ = cast.__name__   # argparse names it in "invalid <type> value"
    return parse


_positive_int = _checked(int, lambda n: n >= 1, ">= 1")
_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_positive_float = _checked(float, lambda v: 0.0 < v < np.inf, "finite and > 0")
_non_negative = _checked(float, lambda v: v >= 0.0, ">= 0")
_finite_non_negative = _checked(float, lambda v: 0.0 <= v < np.inf, "finite and >= 0")
_seed = _checked(int, lambda n: n >= 0, ">= 0")


_TRAIN_KEYS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
_NET_KEYS = {"filters": int, "latent": int,
             "skip_levels": lambda s: tuple(int(v) for v in s.split(",") if v.strip())}


def _configs(args, data) -> tuple[NetConfig, TrainConfig]:
    """Net and training settings from ``--config`` (each key cast by its
    field's type) and ``--seed``. An unknown key or a rejected value is a
    data error that names it."""
    cfg = io.load_config_file(args.config) if args.config else {}
    casts = {**_TRAIN_KEYS, **_NET_KEYS}
    unknown = sorted(set(cfg) - set(casts))
    if unknown:
        raise DataFormatError(f"unknown config key(s): {', '.join(unknown)}")
    kw = {}
    for key, text in cfg.items():
        try:
            kw[key] = casts[key](text)
        except ValueError as e:
            raise DataFormatError(f"config key {key}: bad value {text!r}") from e
    if args.seed is not None:
        kw["seed"] = args.seed
    ncfg = NetConfig(resolution=data.resolution, base_filters=kw.pop("filters", 16),
                     latent_dim=kw.pop("latent", 16), label_channels=data.num_label_channels,
                     skip_levels=kw.pop("skip_levels", (16, 8)))
    try:
        return ncfg, TrainConfig(**kw)
    except ValueError as e:
        raise DataFormatError(f"config: {e}") from e


def cmd_synth(args) -> int:
    ds = synth_dataset(args.subjects, args.modes, noise=args.noise,
                       labels=args.labels, seed=args.seed, grid=args.grid,
                       amplitude=args.amplitude)
    pipeline.write_raw_dataset(args.out, ds)
    print(f"wrote {args.subjects} subjects to {args.out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    meta = pipeline.preprocess(args.in_dir, args.template, args.landmarks,
                               args.res, args.out, seed=args.seed,
                               layout_path=args.layout)
    print(f"preprocessed {len(meta['subjects'])} subjects "
          f"({len(meta['train'])} train / {len(meta['test'])} test) at {args.res}x{args.res}")
    return EXIT_OK


def _checkpoint_writer(paths):
    """A phase's ``checkpoint_fn``: writes each network, with its Adam
    moments and the phase state, to its path (D's first, then G's)."""
    def write(state, *nets):
        for path, net, adam in zip(paths, nets, state.adams):
            io.save_checkpoint(path, net, adam=adam, rng_state=state.rng_state,
                               epoch=state.epoch, history=state.history)
    return write


def _check_epochs_left(state, last: int, key: str):
    start = state.epoch if state else 0
    if start >= last:
        raise DataFormatError(f"nothing to do: already at epoch {start} of {key}={last}")


def _pretrain(train_ds, ncfg, tcfg, out: Path, resume=None):
    """Pretrain into the resumable checkpoint ``out`` and its
    ``<out>.loss.csv``, from the checkpoint ``resume`` when given."""
    net = state = None
    if resume:
        (net,), state = io.load_resumable(resume)
    _check_epochs_left(state, tcfg.pretrain_epochs, "pretrain_epochs")
    out.parent.mkdir(parents=True, exist_ok=True)
    net, history = pretrain_discriminator(train_ds, ncfg, tcfg, network=net, state=state,
                                          checkpoint_fn=_checkpoint_writer([out]))
    io.write_loss_csv(out.with_suffix(".loss.csv"), history, pretrain=True)
    print(f"pretrained {tcfg.pretrain_epochs} epochs, final loss {history[-1]:.6f}")
    return net


def cmd_pretrain(args) -> int:
    data = pipeline.load_paired_datasets(args.data)
    ncfg, tcfg = _configs(args, data["train"])
    _pretrain(data["train"], ncfg, tcfg, Path(args.out), args.resume)
    return EXIT_OK


def cmd_train(args) -> int:
    data = pipeline.load_paired_datasets(args.data)
    ncfg, tcfg = _configs(args, data["train"])
    out = Path(args.out)
    paths = [out / "discriminator.ckpt", out / "generator.ckpt"]
    d_net = g_net = state = None
    if args.resume:
        (d_net, g_net), state = io.load_resumable(*(Path(args.resume) / p.name for p in paths))
    _check_epochs_left(state, tcfg.epochs, "epochs")
    if args.pretrained:
        d_net = io.load_checkpoint(args.pretrained)[0]
    elif d_net is None:
        d_net = _pretrain(data["train"], ncfg, tcfg, out / "pretrained.ckpt")
    out.mkdir(parents=True, exist_ok=True)
    g_net, history = train(data["train"], tcfg, d_net, g_net, state,
                           checkpoint_fn=_checkpoint_writer(paths))
    io.write_loss_csv(out / "loss.csv", history)
    test_l1 = reconstruction_l1(g_net, data["test"]) if len(data["test"]) else float("nan")
    print(f"trained; final test reconstruction L1 = {test_l1:.6f}")
    return EXIT_OK


def _need_two_train_subjects(data_dir, meta, fit: str):
    if len(meta["train"]) < 2:
        raise DataFormatError(f"{data_dir}: fitting {fit} needs at least 2 training "
                              f"subjects, the split has {len(meta['train'])}")


def _sample_maps(args, net, data_dir, meta) -> np.ndarray:
    """Decode ``args.n`` draws from the latent Gaussian of the training
    inputs, encoded under ``args.label`` (on a labelled set without one,
    under its first label)."""
    _need_two_train_subjects(data_dir, meta, "a latent Gaussian")
    label = args.label or next(iter(meta["label_names"]), None)
    x, onehots = pipeline.load_inputs(data_dir, meta, meta["train"], label)
    g = generation.fit_latent_gaussian(generation.collect_bottlenecks(net, x, onehots))
    zs = generation.sample_latent(g, np.random.default_rng(args.seed), n=args.n)
    return generation.decode_batch(net, zs)


def cmd_generate(args) -> int:
    net = io.load_checkpoint(args.model)[0]
    data_dir = Path(args.data)
    meta = pipeline.load_meta(data_dir)
    layout = io.load_layout(data_dir / "layout.uvl")
    maps = _sample_maps(args, net, data_dir, meta)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, m in enumerate(maps):
        save_obj(out / f"gen_{i:05d}.obj",
                 pipeline.map_to_mesh(m, layout, meta["landmarks"], meta))
    print(f"generated {args.n} meshes in {out}")
    return EXIT_OK


def cmd_translate(args) -> int:
    net = io.load_checkpoint(args.model)[0]
    data_dir = Path(args.in_dir)
    meta = pipeline.load_meta(data_dir)
    layout = io.load_layout(data_dir / "layout.uvl")
    stems = meta[args.split] if args.split in ("train", "test") else meta["subjects"]
    x, onehots = pipeline.load_inputs(data_dir, meta, stems, args.label)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem, m in zip(stems, translate_map(net, x, onehots)):
        save_obj(out / f"{stem}.obj", pipeline.map_to_mesh(m, layout, meta["landmarks"], meta))
    print(f"translated {len(stems)} meshes into {out}")
    return EXIT_OK


def _ced_summary(metric: str, errs, args):
    """The report of an error distribution and its CED curve."""
    curve, auc, fr = evaluation.ced_auc_fr(errs, args.x_max, args.fail_threshold)
    return {
        "metric": metric,
        "mean": errs.mean, "std": errs.std, "auc": auc, "fr": fr,
        "x_max": args.x_max, "threshold": args.fail_threshold, "seed": args.seed,
    }, curve


def cmd_evaluate(args) -> int:
    data_dir = Path(args.data)
    meta = pipeline.load_meta(data_dir)
    if not meta["test"]:
        raise DataFormatError(f"{data_dir}: the test split is empty, and every task "
                              "scores the test meshes")
    layout = io.load_layout(data_dir / "layout.uvl")
    landmarks = meta["landmarks"]
    out = Path(args.out)

    if args.task == "represent":
        train_keys = pipeline.target_keys(meta, meta["train"])[0]
        if args.pca_k or args.pca_var:
            _need_two_train_subjects(data_dir, meta, "PCA")
        if args.pca_k and args.pca_k >= len(train_keys):
            raise DataFormatError(f"{data_dir}: --pca-k {args.pca_k} is above the "
                                  f"{len(train_keys) - 1} components that the "
                                  f"{len(train_keys)} training meshes span")
        keys, onehots = pipeline.target_keys(meta, meta["test"])
        targets = pipeline.load_aligned_meshes(data_dir, keys, landmarks)
        if args.model == "identity":
            recs = targets
        else:
            net = io.load_checkpoint(args.model)[0]
            maps = translate_map(net, pipeline.load_maps(data_dir, meta, keys), onehots)
            recs = [pipeline.map_to_mesh(m, layout, landmarks) for m in maps]
        errs = evaluation.generalization_errors(recs, targets)
        summary, curve = _ced_summary("generalization", errs, args)
        io.write_metric_report(out, "represent", summary, curve)
        if args.pca_k or args.pca_var:
            from .pca import pca_fit, pca_reconstruct
            train_meshes = pipeline.load_aligned_meshes(data_dir, train_keys, landmarks)
            model = pca_fit(train_meshes, variance_target=args.pca_var or 0.98,
                            n_components=args.pca_k)
            perr = evaluation.generalization_errors(
                [pca_reconstruct(model, m) for m in targets], targets)
            psummary, pcurve = _ced_summary("generalization_pca", perr, args)
            psummary["pca_components"] = model.num_components
            io.write_metric_report(out, "represent_pca", psummary, pcurve)
        print(json.dumps(summary, sort_keys=True))
        return EXIT_OK

    test_meshes = pipeline.load_aligned_meshes(data_dir, meta["test"], landmarks)
    if args.task == "translate":
        if meta["label_names"] or not meta["noisy"]:
            raise DataFormatError(f"{data_dir}: evaluating translation needs an unlabelled "
                                  "set with noisy companions")
        for gt in test_meshes:   # refuse bad landmarks before the model's forward
            evaluation.rmse3d_landmarks(gt)
        net = io.load_checkpoint(args.model)[0]
        x, _ = pipeline.load_inputs(data_dir, meta, meta["test"])
        preds = [pipeline.map_to_mesh(m, layout, landmarks) for m in translate_map(net, x)]
        identities = pipeline.load_aligned_meshes(
            data_dir, pipeline.input_keys(meta, meta["test"]), landmarks)
        crop = args.crop_radius / meta["scale"]   # input units -> normalised

        def rmse(meshes):
            return np.array([evaluation.rmse3d_translation(p, g, crop_radius=crop)
                             for p, g in zip(meshes, test_meshes)])

        summary, curve = _ced_summary(
            "rmse3d_translation", evaluation.ErrorDistribution(rmse(preds)), args)
        summary["identity_mean"] = float(np.mean(rmse(identities)))
        io.write_metric_report(out, "translate", summary, curve)
        print(json.dumps(summary, sort_keys=True))
        return EXIT_OK

    # specificity
    net = io.load_checkpoint(args.model)[0]
    maps = _sample_maps(args, net, data_dir, meta)
    mean, std, _ = evaluation.specificity(
        (pipeline.map_to_mesh(m, layout, landmarks) for m in maps), test_meshes)
    summary = {"metric": "specificity", "mean": mean, "std": std,
               "auc": None, "fr": None, "x_max": None, "threshold": None,
               "seed": args.seed, "n": args.n}
    io.write_metric_report(out, "specificity", summary)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="facegan3d", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic raw dataset")
    s.add_argument("--subjects", type=_positive_int, required=True)
    s.add_argument("--modes", type=_positive_int, default=8)
    s.add_argument("--noise", type=_finite_non_negative, default=0.0,
                   help="vertex noise std of the noisy companions, finite and >= 0 "
                        "(0: none written)")
    s.add_argument("--labels", type=int, default=0, choices=range(MAX_LABELS + 1))
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--grid", type=_checked(int, lambda n: n >= 2, ">= 2"), default=45,
                   help="template lattice side, >= 2")
    s.add_argument("--amplitude", type=_finite_non_negative, default=0.12,
                   help="shape-mode amplitude, finite and >= 0")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("preprocess", help="align, normalize and rasterize")
    s.add_argument("--in", dest="in_dir", required=True)
    s.add_argument("--template", required=True)
    s.add_argument("--landmarks", required=True)
    s.add_argument("--res", type=_positive_int, default=32)
    s.add_argument("--layout", default=None, help="precomputed layout override")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_preprocess)

    s = sub.add_parser("pretrain", help="pretrain the discriminator autoencoder")
    s.add_argument("--data", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=_seed, default=None)
    s.add_argument("--resume", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_pretrain)

    s = sub.add_parser("train", help="full two-phase training", description=(
        "Writes OUT/discriminator.ckpt, OUT/generator.ckpt and OUT/loss.csv; "
        "without --pretrained, pretraining first writes OUT/pretrained.ckpt and "
        "OUT/pretrained.loss.csv. --resume reads DIR/discriminator.ckpt and "
        "DIR/generator.ckpt. Resume a pretraining interrupted inside train with "
        "'pretrain --resume OUT/pretrained.ckpt'."))
    s.add_argument("--data", required=True)
    start = s.add_mutually_exclusive_group()
    start.add_argument("--pretrained", default=None, help="pretrained D checkpoint")
    start.add_argument("--resume", default=None, metavar="DIR",
                       help="run directory to continue the adversarial phase from")
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=_seed, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("generate", help="sample new faces from the latent gaussian", description=(
        "Fits a Gaussian to the bottleneck codes of --data's training maps, "
        "encoded under --label on a labelled set (by default its first label), "
        "and decodes --n samples of it through the decoder alone."))
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--label", default=None, help="the label to encode the training maps under")
    s.add_argument("--n", type=_positive_int, default=16)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_generate)

    s = sub.add_parser("translate", help="run inputs through the generator")
    s.add_argument("--model", required=True)
    s.add_argument("--in", dest="in_dir", required=True)
    s.add_argument("--label", default=None)
    s.add_argument("--split", default="all", choices=["train", "test", "all"])
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_translate)

    s = sub.add_parser("evaluate", help="compute the quantitative metrics")
    s.add_argument("--task", required=True, choices=["represent", "translate", "specificity"])
    s.add_argument("--data", required=True)
    s.add_argument("--model", required=True,
                   help="checkpoint path, or 'identity' for the pass-through (represent only)")
    s.add_argument("--label", default=None,
                   help="specificity: the label to encode the training maps under "
                        "before fitting the Gaussian to sample, as in generate")
    s.add_argument("--n", type=_positive_int, default=200)
    s.add_argument("--x-max", type=_positive_float, default=0.01)
    s.add_argument("--fail-threshold", type=_finite_non_negative, default=0.01)
    s.add_argument("--crop-radius", type=_non_negative, default=np.inf,
                   help="3DRMSE radius around the nose tip, in input units "
                        "(default: the whole face)")
    pca = s.add_mutually_exclusive_group()
    pca.add_argument("--pca-k", type=_positive_int, default=None)
    pca.add_argument("--pca-var", type=_fraction, default=None)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_evaluate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, DataFormatError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, NonFiniteError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
