"""Dataset-directory conventions and the preprocessing pipeline that the
CLI sequences: align (GPA), center, normalize to [-1, 1], unwrap the
template, rasterize everything to UV maps, and split train/test.

A raw dataset directory holds ``template.obj``, ``landmarks.txt`` and
``meshes/`` with per-subject files: ``<stem>.obj`` (clean / neutral),
optional ``<stem>.noisy.obj`` companions (translation inputs) and
optional ``<stem>.<label>.obj`` targets listed in ``labels.csv``
(``file,label`` rows). A preprocessed directory holds ``layout.uvl``,
``meta.json``, ``maps/*.uvf`` and ``aligned/*.obj``.

Units: maps and ``aligned/*.obj`` are in normalised units, where
``raw = normalised * meta["scale"] + meta["center"]`` in the GPA frame
of the first subject, at its size. :func:`map_to_mesh` is the one way
back from a map to a mesh; given ``meta`` it returns input units.
:func:`translate_map` (from ``model``) is the one forward-only path over
maps: translate, every evaluate task that runs the net's full pass,
``training.reconstruction_l1`` and the G(x) that the adversarial step's D
update reads go through it. A map's output does not depend on its split
or on the other maps run with it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .geometry import (Mesh, UVLayout, UVMap, cylindrical_unwrap,
                       generalized_procrustes, load_landmarks, load_obj,
                       normalize_dataset, procrustes_points, rasterize_uv,
                       sample_mesh_from_uv, save_landmarks, save_obj)
from .io import load_layout, load_uvmap, save_layout, save_uvmap
# re-exported: bench/spans.py traces it as pipeline.translate_map
from .model import translate_map
from .parallel import thread_map
from .training import PairedDataset

TEST_FRACTION = 0.15
_META_KEYS = ("center", "label_names", "landmarks", "noisy", "resolution", "scale",
              "subjects", "test", "train")   # the meta.json keys that readers use


def write_raw_dataset(out_dir, synth) -> None:
    """Lay a SynthDataset out in the raw directory convention."""
    out = Path(out_dir)
    (out / "meshes").mkdir(parents=True, exist_ok=True)
    save_obj(out / "template.obj", synth.template)
    save_landmarks(out / "landmarks.txt", synth.template.landmarks)
    label_rows = []
    for i, mesh in enumerate(synth.subjects):
        stem = f"subj_{i:04d}"
        save_obj(out / "meshes" / f"{stem}.obj", mesh)
        if synth.noisy is not None:
            save_obj(out / "meshes" / f"{stem}.noisy.obj", synth.noisy[i])
        if synth.labeled:
            for name in synth.label_names:
                fname = f"{stem}.{name}.obj"
                save_obj(out / "meshes" / fname, synth.labeled[name][i])
                label_rows.append((fname, name))
    if label_rows:
        with open(out / "labels.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["file", "label"])
            w.writerows(label_rows)


def _scan_raw(in_dir: Path):
    mesh_dir = in_dir / "meshes"
    if not mesh_dir.is_dir():
        raise FileNotFoundError(f"mesh directory not found: {mesh_dir}")
    label_of: dict[str, str] = {}
    labels_csv = in_dir / "labels.csv"
    if labels_csv.exists():
        with open(labels_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            if not {"file", "label"} <= set(reader.fieldnames or ()):
                raise DataFormatError(f"{labels_csv}: expected a 'file,label' header")
            for row in reader:
                if None in (row["file"], row["label"]):
                    raise DataFormatError(f"{labels_csv}:{reader.line_num}: expected 'file,label'")
                label_of[row["file"]] = row["label"]
    subjects, noisy, labeled = [], {}, {}
    for p in sorted(mesh_dir.glob("*.obj")):
        if p.name in label_of:
            labeled.setdefault(label_of[p.name], {})[p.name] = p
            continue
        stem = p.stem
        if stem.endswith(".noisy"):
            noisy[stem[:-len(".noisy")]] = p
        else:
            subjects.append((stem, p))
    if not subjects:
        raise DataFormatError(f"no subject meshes in {mesh_dir}")
    stems = {stem for stem, _ in subjects}
    for stem, p in noisy.items():
        if stem not in stems:
            raise DataFormatError(f"{p}: noisy companion of {stem}.obj, which is missing "
                                  "or listed in labels.csv")
    return subjects, noisy, labeled


def _load_finite(path, landmarks) -> Mesh:
    """``load_obj``, refusing a mesh with a NaN or infinite coordinate."""
    mesh = load_obj(path, landmarks)
    if not np.isfinite(mesh.vertices).all():
        raise DataFormatError(f"{path}: non-finite vertex coordinates")
    return mesh


def preprocess(in_dir, template_path, landmarks_path, resolution: int,
               out_dir, seed: int = 0, layout_path=None) -> dict:
    """GPA-align, center, normalize, unwrap and rasterize a raw dataset."""
    in_dir = Path(in_dir)
    out = Path(out_dir)
    (out / "maps").mkdir(parents=True, exist_ok=True)
    (out / "aligned").mkdir(parents=True, exist_ok=True)

    subjects, noisy, labeled = _scan_raw(in_dir)
    landmarks = load_landmarks(landmarks_path)
    template = _load_finite(template_path, landmarks)
    label_names = sorted(labeled.keys())

    # one flat list of clean meshes to align together
    entries = []   # (key, path)
    for stem, p in subjects:
        entries.append((stem, p))
    for name in label_names:
        for fname, p in sorted(labeled[name].items()):
            entries.append((Path(fname).stem, p))
    meshes = [_load_finite(p, landmarks) for _, p in entries]
    if any(m.num_vertices != template.num_vertices for m in meshes):
        raise DataFormatError("dataset meshes do not match the template topology")

    aligned, mean = generalized_procrustes(meshes)
    center = mean.centroid()
    aligned = [m.with_vertices(m.vertices - center) for m in aligned]
    aligned, scale = normalize_dataset(aligned)
    by_key = {key: m for (key, _), m in zip(entries, aligned)}

    noisy_aligned = {}
    for stem, p in noisy.items():
        raw = _load_finite(p, landmarks)
        tgt = by_key[stem]
        t = procrustes_points(raw.vertices, tgt.vertices)
        noisy_aligned[stem] = raw.with_vertices(t.apply(raw.vertices))

    if layout_path is not None:
        layout = load_layout(layout_path)
        if layout.num_vertices != template.num_vertices:
            raise DataFormatError("layout override does not match the template")
    else:
        layout = cylindrical_unwrap(template)
    save_layout(out / "layout.uvl", layout)

    def _raster(item):
        key, mesh = item
        uvm = rasterize_uv(mesh, layout, resolution)
        save_uvmap(out / "maps" / f"{key}.uvf", uvm)
        save_obj(out / "aligned" / f"{key}.obj", mesh)
        return key

    layout.rasterization(resolution)  # build the cache once, not per worker
    work = [(key, by_key[key]) for key in by_key] + \
           [(f"{stem}.noisy", m) for stem, m in sorted(noisy_aligned.items())]
    thread_map(_raster, work)

    rng = np.random.default_rng(seed)
    stems = [stem for stem, _ in subjects]
    perm = rng.permutation(len(stems))
    n_test = max(1, int(round(TEST_FRACTION * len(stems)))) if len(stems) > 1 else 0
    test_set = sorted(stems[i] for i in perm[:n_test])
    train_set = sorted(s for s in stems if s not in test_set)

    meta = {
        "resolution": resolution,
        "scale": scale,
        "center": [float(c) for c in center],
        "landmarks": landmarks,
        "label_names": label_names,
        "subjects": stems,
        "train": train_set,
        "test": test_set,
        "noisy": sorted(noisy_aligned.keys()),
        "seed": seed,
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def load_meta(data_dir) -> dict:
    p = Path(data_dir) / "meta.json"
    if not p.exists():
        raise FileNotFoundError(f"meta file not found: {p}")
    try:
        meta = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{p}: {e}") from e
    if not isinstance(meta, dict) or not meta.keys() >= set(_META_KEYS):
        raise DataFormatError(f"{p}: expected an object with keys {', '.join(_META_KEYS)}")
    return meta


def load_maps(data_dir, meta: dict, keys: list[str]) -> np.ndarray:
    """The (len(keys), 3, res, res) stack of the saved maps ``keys``; an
    empty split gives an empty stack."""
    if not keys:
        return np.zeros((0, 3, meta["resolution"], meta["resolution"]), dtype=np.float32)
    return np.stack([load_uvmap(Path(data_dir) / "maps" / f"{k}.uvf").data for k in keys])


def input_keys(meta: dict, stems: list[str]) -> list[str]:
    """The map keys of the network inputs of ``stems``: the neutral maps
    when the set is labelled, else their noisy companions when it has any,
    else the maps themselves."""
    if meta["noisy"] and not meta["label_names"]:
        return [f"{s}.noisy" for s in stems]
    return list(stems)


def target_keys(meta: dict, stems: list[str]) -> tuple[list[str], np.ndarray | None]:
    """The map keys of the targets of ``stems``, which represent scores,
    with the one-hot row of each key's label: ``<stem>.<label>`` for each
    label in turn on a labelled set, else the stems' own maps and None."""
    names = meta["label_names"]
    if not names:
        return list(stems), None
    onehots = np.tile(np.eye(len(names), dtype=np.float32), (len(stems), 1))
    return [f"{s}.{label}" for s in stems for label in names], onehots


def load_inputs(data_dir, meta: dict, stems: list[str],
                label: str | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """The network input of each of ``stems`` (see :func:`input_keys`),
    one map per stem, and with ``label`` one one-hot row of it per map
    (else None). An unknown label is a data error that names the known
    ones. Targets are not read."""
    x = load_maps(data_dir, meta, input_keys(meta, stems))
    if label is None:
        return x, None
    names = meta["label_names"]
    if label not in names:
        raise DataFormatError(f"unknown label {label!r}; have {names}")
    return x, np.tile(np.eye(len(names), dtype=np.float32)[names.index(label)], (len(x), 1))


def load_paired_datasets(data_dir) -> dict:
    """Train/test PairedDatasets from a preprocessed directory: each
    input (:func:`input_keys`), once per label on a labelled set, paired
    with its target (:func:`target_keys`); on a clean-only set x == y."""
    data_dir = Path(data_dir)
    meta = load_meta(data_dir)
    out = {"meta": meta}
    for split in ("train", "test"):
        stems = meta[split]
        x, _ = load_inputs(data_dir, meta, stems)
        keys, labels = target_keys(meta, stems)
        if labels is not None:
            x = np.repeat(x, len(meta["label_names"]), axis=0)
        y = x.copy() if keys == input_keys(meta, stems) else load_maps(data_dir, meta, keys)
        out[split] = PairedDataset(x, y, labels)
    return out


def load_aligned_meshes(data_dir, stems, landmarks: dict[str, int]) -> list[Mesh]:
    return [load_obj(Path(data_dir) / "aligned" / f"{s}.obj", landmarks) for s in stems]


def map_to_mesh(data: np.ndarray, layout: UVLayout, landmarks: dict[str, int],
                meta: dict | None = None) -> Mesh:
    """Sample a dense (3, H, W) position map at every template vertex.
    Vertices stay in normalised units, or with ``meta`` come back in the
    raw input's units."""
    uvm = UVMap(data, np.ones(data.shape[1:], dtype=bool), filled=True)
    mesh = sample_mesh_from_uv(uvm, layout, landmarks)
    if meta is None:
        return mesh
    return mesh.with_vertices(mesh.vertices * meta["scale"] + meta["center"])

