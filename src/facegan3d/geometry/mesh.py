"""Fixed-topology triangle meshes and OBJ / landmark-sidecar I/O.

Every mesh in a dataset shares one template's triangulation, so vertex i
refers to the same anatomical point on all of them.
"""

from __future__ import annotations

import functools
import io
import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataFormatError


@dataclass
class Mesh:
    vertices: np.ndarray                       # (V, 3) float64
    faces: np.ndarray                          # (F, 3) int32, 0-based
    landmarks: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int32)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise DataFormatError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DataFormatError(f"faces must be (F, 3), got {self.faces.shape}")
        V = len(self.vertices)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= V):
            raise DataFormatError("face indices out of range")
        for name, idx in self.landmarks.items():
            if not 0 <= idx < V:
                raise DataFormatError(f"landmark {name!r} index {idx} out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def with_vertices(self, vertices: np.ndarray) -> "Mesh":
        return Mesh(np.asarray(vertices, dtype=np.float64), self.faces, dict(self.landmarks))

    def bbox_diagonal(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def face_normals(self) -> np.ndarray:
        v = self.vertices
        f = self.faces
        n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        return n  # area-weighted (twice the face area times unit normal)

    def vertex_normals(self) -> np.ndarray:
        """Area-weighted average of incident face normals, unit length."""
        fn = self.face_normals()
        vn = np.zeros_like(self.vertices)
        for k in range(3):
            np.add.at(vn, self.faces[:, k], fn)
        norms = np.linalg.norm(vn, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vn / norms

    def landmark_point(self, name: str) -> np.ndarray:
        if name not in self.landmarks:
            raise KeyError(f"mesh has no landmark {name!r}")
        return self.vertices[self.landmarks[name]]


def save_obj(path: str | os.PathLike, mesh: Mesh) -> None:
    """Write ``v x y z`` lines (each coordinate ``%.10g``), then ``f a b c``
    lines with 1-based vertex indices, one per line, each ending in a
    newline. Nothing else: no comments, normals or texture coordinates.
    Each distinct face block is formatted once per process: the text is
    kept in a bounded cache keyed on the faces' bytes."""
    v = "v %.10g %.10g %.10g\n" * len(mesh.vertices) % tuple(mesh.vertices.ravel().tolist())
    f = _face_text(mesh.faces.tobytes())
    with open(path, "w") as fh:
        fh.write(v)
        fh.write(f)


# Distinct face blocks that each of save_obj's and load_obj's caches keeps.
# A dataset shares one template's triangulation, so one block is the rule.
_FACE_BLOCKS = 4


@functools.lru_cache(maxsize=_FACE_BLOCKS)
def _face_text(faces: bytes) -> str:
    """The ``f a b c`` lines of int32 0-based ``faces`` given as bytes."""
    idx = np.frombuffer(faces, dtype=np.int32) + 1
    return "f %d %d %d\n" * (len(idx) // 3) % tuple(idx.tolist())


def load_obj(path: str | os.PathLike, landmarks: dict[str, int] | None = None) -> Mesh:
    """Read the vertices and triangles of an OBJ file; other records (``#``
    comments, ``vt``, ``vn``, ...) are skipped and ``a/b/c`` face indices keep
    their vertex index. A file in the subset ``save_obj`` writes is parsed by
    numpy in one pass: at least one ``v `` line, every line a ``v `` line up
    to the first ``f `` line and an ``f `` line after it, each face exactly
    three plain integer indices in range. Every other file goes through the
    line loop, which alone raises the line-numbered ``DataFormatError``s.
    Each distinct face block is parsed once per process: the parsed indices
    are kept in a bounded cache keyed on the block's text, and every call
    returns its own writable faces array."""
    try:
        fh = open(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"OBJ file not found: {path}")
    with fh:
        text = fh.read()
    arrays = _parse_regular_obj(text)
    verts, faces = arrays if arrays is not None else _parse_obj_lines(path, text)
    return Mesh(verts, faces, dict(landmarks or {}))


# a face line is the tag plus exactly three indices: with this dtype loadtxt
# itself rejects any other token count, where ``usecols`` would drop a quad's
# fourth index without a word
_FACE_ROW = np.dtype([("tag", "U1"), ("idx", np.int64, (3,))])


def _parse_regular_obj(text: str):
    """(vertices, 0-based faces) of a file in the ``save_obj`` subset, or
    None when the file is anything else."""
    cut = text.find("\nf ")
    vblock, fblock = (text, "") if cut < 0 else (text[:cut + 1], text[cut + 1:])
    # every line of the vertex block starts with "v "
    if not (vblock.startswith("v ")
            and vblock.count("\n") == vblock.count("\nv ") + vblock.endswith("\n")):
        return None
    faces = _face_rows(fblock)
    if faces is None:
        return None
    try:
        verts = np.loadtxt(io.StringIO(vblock), dtype=np.float64, usecols=(1, 2, 3),
                           comments=None, ndmin=2)
    except ValueError:
        return None
    if faces.size and (faces.min() < 1 or faces.max() > len(verts)):
        return None  # the line loop reports it as it always has
    return verts, faces - 1


@functools.lru_cache(maxsize=_FACE_BLOCKS)
def _face_rows(fblock: str):
    """The read-only (F, 3) 1-based indices of a face block in which every
    line starts with "f " and holds three integers, or None."""
    if fblock.count("\n") != fblock.count("\nf ") + fblock.endswith("\n"):
        return None
    try:
        faces = (np.loadtxt(io.StringIO(fblock), dtype=_FACE_ROW, comments=None,
                            ndmin=1)["idx"] if fblock else np.empty((0, 3), np.int64))
    except ValueError:
        return None
    faces.flags.writeable = False
    return faces


def _parse_obj_lines(path, text: str):
    verts = []
    faces = []
    for ln, line in enumerate(text.split("\n"), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise DataFormatError(f"{path}:{ln}: malformed vertex line")
            verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
        elif parts[0] == "f":
            if len(parts) != 4:
                raise DataFormatError(f"{path}:{ln}: only triangle faces supported")
            idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
            faces.append(idx)
    if not verts:
        raise DataFormatError(f"{path}: no vertices")
    return (np.array(verts, dtype=np.float64),
            np.array(faces, dtype=np.int32).reshape(-1, 3))


def save_landmarks(path: str | os.PathLike, landmarks: dict[str, int]) -> None:
    with open(path, "w") as fh:
        for name, idx in landmarks.items():
            fh.write(f"{name} {idx}\n")


def load_landmarks(path: str | os.PathLike) -> dict[str, int]:
    """Sidecar with one ``name index`` pair per line, indices 0-based."""
    out: dict[str, int] = {}
    try:
        fh = open(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"landmark file not found: {path}")
    with fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{ln}: expected 'name index'")
            try:
                out[parts[0]] = int(parts[1])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{ln}: index {parts[1]!r} is not an integer") from None
    return out
