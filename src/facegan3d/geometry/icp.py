"""Rigid point-to-plane ICP via iterated small-angle linearization.

``scipy.spatial`` is imported inside ``icp_point_to_plane``: it is the
heaviest import of the package, in time and in memory, and every CLI
command imports this module while only translation evaluation runs ICP."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh
from .procrustes import SimilarityTransform


def _rodrigues(omega: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(omega)
    K = np.array([
        [0.0, -omega[2], omega[1]],
        [omega[2], 0.0, -omega[0]],
        [-omega[1], omega[0], 0.0],
    ])
    if theta < 1e-12:
        return np.eye(3) + K
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def icp_point_to_plane(source: Mesh, target: Mesh, max_iter: int = 50,
                       tol: float = 1e-12) -> tuple[SimilarityTransform, bool]:
    """Rigid transform (a similarity of scale 1) minimizing the
    point-to-plane error of source vertices against their nearest target
    vertices (normals from the target's area-weighted vertex normals),
    and whether it converged: an update step fell below ``tol`` within
    ``max_iter`` iterations."""
    if source.num_vertices < 6:
        raise ValueError(f"need at least 6 correspondences, got {source.num_vertices}")
    from scipy.spatial import cKDTree
    tgt = target.vertices
    normals = target.vertex_normals()
    tree = cKDTree(tgt)
    R = np.eye(3)
    t = np.zeros(3)
    converged = False
    for _ in range(max_iter):
        p = source.vertices @ R.T + t
        _, nn = tree.query(p)
        c = tgt[nn]
        n = normals[nn]
        # residual r = (p - c) . n ; unknown x = [omega; dt]
        A = np.concatenate([np.cross(p, n), n], axis=1)  # (V, 6)
        b = -np.einsum("ij,ij->i", p - c, n)
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        dR = _rodrigues(x[:3])
        R = dR @ R
        t = dR @ t + x[3:]
        if np.linalg.norm(x) < tol:
            converged = True
            break
    # re-orthonormalize against accumulated drift
    u, _, vt = np.linalg.svd(R)
    R = u @ vt
    if np.linalg.det(R) < 0:
        u[:, -1] *= -1
        R = u @ vt
    return SimilarityTransform(R, t), converged
