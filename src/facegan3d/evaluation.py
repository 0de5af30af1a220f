"""Shape-model metrics: generalization, CED/AUC/FR, rigid-aligned 3DRMSE
for the translation task, and specificity for generation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataFormatError
from .geometry import Mesh, icp_point_to_plane


@dataclass
class ErrorDistribution:
    values: np.ndarray          # sorted ascending, >= 0

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=np.float64).reshape(-1))
        if v.size and v[0] < 0:
            raise ValueError("error values must be >= 0")
        self.values = v

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std())


def generalization_errors(recs: Iterable[Mesh],
                          test_meshes: Iterable[Mesh]) -> ErrorDistribution:
    """Pool the per-vertex Euclidean distances between every test mesh and
    its reconstruction, paired in order (a count mismatch is a ValueError)."""
    pooled = [np.linalg.norm(rec.vertices - mesh.vertices, axis=1)
              for rec, mesh in zip(recs, test_meshes, strict=True)]
    return ErrorDistribution(np.concatenate(pooled) if pooled else np.empty(0))


def ced_auc_fr(errs: ErrorDistribution, x_max: float,
               fail_threshold: float) -> tuple[np.ndarray, float, float]:
    """Cumulative error distribution, its exact area under the curve on
    [0, x_max] (normalized by x_max), and the failure rate."""
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    v = errs.values
    n = v.size
    if n == 0:
        raise ValueError("empty error distribution")
    auc = float(np.maximum(0.0, x_max - v).sum() / (n * x_max))
    fr = float((v > fail_threshold).sum() / n)
    xs = np.unique(np.concatenate([[0.0], v[v <= x_max], [x_max]]))
    curve = np.stack([xs, np.searchsorted(v, xs, side="right") / n], axis=1)
    return curve, auc, fr


def rmse3d_landmarks(gt: Mesh) -> tuple[np.ndarray, float]:
    """The nose tip and the outer-eye (inter-ocular) distance of ``gt``,
    the two landmark readings of its 3DRMSE. A missing landmark, or
    coinciding outer-eye landmarks, is a ``DataFormatError``."""
    nose = gt.landmark_point("nose-tip")
    iod = float(np.linalg.norm(gt.landmark_point("left-eye-outer")
                               - gt.landmark_point("right-eye-outer")))
    if iod < 1e-12:
        raise DataFormatError("degenerate inter-ocular distance: landmarks "
                              "'left-eye-outer' and 'right-eye-outer' coincide")
    return nose, iod


def rmse3d_translation(pred: Mesh, gt: Mesh, crop_radius: float = np.inf) -> float:
    """Root-mean-square point-to-plane distance between a predicted mesh
    and ground truth, after rigid ICP alignment, restricted to gt vertices
    within ``crop_radius`` of the nose tip (all of them by default),
    normalized by the outer-eye (inter-ocular) distance. The ICP pairs
    predicted vertex *i* with gt vertex *i* (both share the template's
    vertex order), so the alignment (a fixed step budget, no convergence
    flag) minimises the uncropped residual this reports. The landmarks
    are read by :func:`rmse3d_landmarks`. The ``icp`` name stays until
    the ``geometry.icp_*`` benchmark metrics are retired."""
    nose, iod = rmse3d_landmarks(gt)
    normals = gt.vertex_normals()
    p = icp_point_to_plane(pred, gt, normals).apply(pred.vertices)
    keep = np.linalg.norm(gt.vertices - nose, axis=1) <= crop_radius
    if not keep.any():
        raise ValueError("crop radius excludes every vertex")
    d = np.einsum("ij,ij->i", (p - gt.vertices)[keep], normals[keep])
    return float(np.sqrt(np.mean(d * d)) / iod)


def specificity(samples: Iterable[Mesh],
                test_meshes: list[Mesh]) -> tuple[float, float, np.ndarray]:
    """Distance from generated shapes to the test set: for each mesh of
    ``samples``, read one at a time, the minimum over test meshes of the
    mean per-vertex Euclidean distance (dense correspondence). Returns
    (mean, std, per-sample distances)."""
    if not test_meshes:
        raise ValueError("specificity needs a non-empty test set")
    test = np.stack([m.vertices for m in test_meshes], axis=0)  # (T, V, 3)
    dists = np.array([np.linalg.norm(test - g.vertices[None], axis=2).mean(axis=1).min()
                      for g in samples])
    return float(dists.mean()), float(dists.std()), dists
