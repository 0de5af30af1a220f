"""Similarity alignment: pairwise Procrustes, the generalized (iterative)
variant, and dataset scale normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataFormatError
from .mesh import Mesh

_ORTHO_TOL = 1e-10


def _check_rotation(r: np.ndarray) -> None:
    if np.abs(r.T @ r - np.eye(3)).max() > _ORTHO_TOL:
        raise ValueError("rotation is not orthonormal")
    if np.linalg.det(r) < 0:
        raise ValueError("rotation has negative determinant")


@dataclass
class SimilarityTransform:
    rotation: np.ndarray       # (3, 3), det +1
    translation: np.ndarray    # (3,)
    scale: float = 1.0

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        _check_rotation(self.rotation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * points @ self.rotation.T + self.translation


def centroid_size(points: np.ndarray) -> float:
    """RMS distance of (V, 3) points to their centroid."""
    return float(np.sqrt(((points - points.mean(axis=0)) ** 2).sum(axis=1).mean()))


def procrustes_points(source: np.ndarray, target: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity transform (no reflection) mapping source
    points onto target points, both (V, 3) in correspondence."""
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if src.shape != tgt.shape:
        raise DataFormatError(f"point sets differ in shape: {src.shape} vs {tgt.shape}")
    ms = src.mean(axis=0)
    mt = tgt.mean(axis=0)
    x = src - ms
    y = tgt - mt
    xn = np.einsum("ij,ij->", x, x)
    if xn < 1e-30:
        raise ValueError("degenerate source: all points coincident")
    c = x.T @ y
    u, s, vt = np.linalg.svd(c)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.ones(3)
    flip[-1] = d
    r = vt.T @ np.diag(flip) @ u.T
    sc = float((s * flip).sum() / xn)
    t = mt - sc * r @ ms
    return SimilarityTransform(r, t, sc)


def generalized_procrustes(meshes: list[Mesh],
                           max_iter: int = 100) -> tuple[list[Mesh], Mesh]:
    """Iteratively align all meshes to their evolving mean until the mean
    moves by less than 1e-9 RMS. The global frame is anchored to the first
    mesh: the result is exactly invariant to similarity transforms of the
    other inputs, and invariant up to a global similarity for the first one.

    The mean is rescaled to the first mesh's centroid size on every
    iteration (Gower 1975). Without that, each least-squares fit shrinks a
    shape that does not match the mean exactly, the shrinkage compounds
    and the mean collapses towards a point.
    """
    if not meshes:
        raise ValueError("generalized_procrustes needs at least one mesh")
    V = meshes[0].num_vertices
    for m in meshes[1:]:
        if m.num_vertices != V:
            raise DataFormatError("meshes do not share a topology")
    ref = meshes[0].vertices
    size = centroid_size(ref)
    aligned = [m.vertices for m in meshes]
    for _ in range(max_iter):
        aligned = [procrustes_points(m.vertices, ref).apply(m.vertices) for m in meshes]
        mean = np.mean(aligned, axis=0)
        c = mean.mean(axis=0)
        mean = c + (mean - c) * (size / centroid_size(mean))
        move = float(np.sqrt(np.mean((mean - ref) ** 2)))
        ref = mean
        if move < 1e-9:
            break
    out = [meshes[0].with_vertices(a) for a in aligned]
    return out, meshes[0].with_vertices(ref)


def normalize_dataset(meshes: list[Mesh]) -> tuple[list[Mesh], float]:
    """Divide all coordinates by the dataset-wide max absolute coordinate so
    everything lands in [-1, 1]. Returns the scale factor for inversion."""
    if not meshes:
        raise ValueError("normalize_dataset needs at least one mesh")
    factor = max(float(np.abs(m.vertices).max()) for m in meshes)
    if factor == 0.0:
        raise ValueError("cannot normalize: max coordinate is zero")
    return [m.with_vertices(m.vertices / factor) for m in meshes], factor
