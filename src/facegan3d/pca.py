"""Linear (PCA) shape model baseline over flattened vertex vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Mesh


@dataclass
class PCAModel:
    mean: np.ndarray          # (3V,)
    components: np.ndarray    # (3V, k), orthonormal columns
    variances: np.ndarray     # (k,), non-increasing

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.components = np.asarray(self.components, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)

    @property
    def num_components(self) -> int:
        return self.components.shape[1]


def _flatten(meshes: list[Mesh]) -> np.ndarray:
    return np.stack([m.vertices.reshape(-1) for m in meshes], axis=0)


def pca_fit(meshes: list[Mesh], variance_target: float = 0.98,
            n_components: int | None = None) -> PCAModel:
    """Eigen-decomposition of the sample covariance of flattened vertices.
    Keeps the smallest component count reaching ``variance_target`` of the
    total variance, or the first ``n_components`` when given; either way at
    most n - 1 for n meshes, because n centred samples span at most n - 1
    directions and any further one would be arbitrary."""
    if len(meshes) < 2:
        raise ValueError("PCA needs at least 2 meshes")
    X = _flatten(meshes)
    mu = X.mean(axis=0)
    Xc = (X - mu) / np.sqrt(len(meshes) - 1.0)
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    variances = (s * s)[:len(meshes) - 1]
    if n_components is not None:
        k = min(n_components, len(variances))
    else:
        total = variances.sum()
        cum = np.cumsum(variances)
        k = int(np.searchsorted(cum, variance_target * total) + 1)
        k = min(k, len(variances))
    return PCAModel(mu, vt[:k].T, variances[:k])


def pca_project(model: PCAModel, mesh: Mesh) -> np.ndarray:
    return model.components.T @ (mesh.vertices.reshape(-1) - model.mean)


def pca_reconstruct(model: PCAModel, mesh: Mesh) -> Mesh:
    coeff = pca_project(model, mesh)
    flat = model.mean + model.components @ coeff
    return mesh.with_vertices(flat.reshape(-1, 3))

