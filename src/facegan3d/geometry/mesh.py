"""Fixed-topology triangle meshes and OBJ / landmark-sidecar I/O.

Every mesh in a dataset shares one template's triangulation, so vertex i
refers to the same anatomical point on all of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataFormatError

LANDMARK_NAMES = ("nose-tip", "left-eye-outer", "right-eye-outer")


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

    def copy(self) -> "Mesh":
        return Mesh(self.vertices.copy(), self.faces.copy(), dict(self.landmarks))

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
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.10g} {v[1]:.10g} {v[2]:.10g}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_obj(path: str | os.PathLike, landmarks: dict[str, int] | None = None) -> Mesh:
    verts = []
    faces = []
    try:
        fh = open(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"OBJ file not found: {path}")
    with fh:
        for ln, line in enumerate(fh, 1):
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
    return Mesh(np.array(verts, dtype=np.float64),
                np.array(faces, dtype=np.int32).reshape(-1, 3),
                dict(landmarks or {}))


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
            out[parts[0]] = int(parts[1])
    return out
