"""Rigid point-to-plane ICP via iterated small-angle linearization, on the
known vertex correspondence.

Every mesh of the package shares the template's vertex order, so the
"closest point" of source vertex *i* is target vertex *i*: the fit then
minimises exactly the point-to-plane residual that the 3DRMSE reports, and
no vertex can slide onto a neighbour's tangent plane. The step is the
point-to-plane linearisation of Low (UNC TR04-004, 2004) applied to these
fixed pairs, in a fixed step budget with no convergence flag. The ``icp``
name stays until the ``geometry.icp_*`` benchmark metrics are retired."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh
from .procrustes import SimilarityTransform

# A fit stops once a step falls below _TOL, or after _MAX_ITER steps. On the
# benchmark's infer inputs, a fit that used every step scored a 3DRMSE within
# 6e-7 (relative) of a 400-step fit's, so no convergence flag is reported.
_MAX_ITER = 50
_TOL = 1e-12


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


def icp_point_to_plane(source: Mesh, target: Mesh,
                       normals: np.ndarray) -> SimilarityTransform:
    """Rigid transform (a similarity of scale 1) minimizing the
    point-to-plane error of source vertex *i* against target vertex *i*,
    along ``normals``, the target's vertex normals (the caller scores the
    residual on the same ones), after at most ``_MAX_ITER`` linearised
    steps. The pairing is the shared vertex order, not a nearest-neighbour
    search, so the vertex counts must match."""
    if source.num_vertices < 6:
        raise ValueError(f"need at least 6 correspondences, got {source.num_vertices}")
    if source.num_vertices != target.num_vertices:
        raise ValueError(f"source has {source.num_vertices} vertices, target "
                         f"{target.num_vertices}: the pairing is by vertex index")
    c, n = target.vertices, normals
    R = np.eye(3)
    t = np.zeros(3)
    for _ in range(_MAX_ITER):
        p = source.vertices @ R.T + t
        # residual r = (p - c) . n ; unknown x = [omega; dt]
        A = np.concatenate([np.cross(p, n), n], axis=1)  # (V, 6)
        b = -np.einsum("ij,ij->i", p - c, n)
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        dR = _rodrigues(x[:3])
        R = dR @ R
        t = dR @ t + x[3:]
        if np.linalg.norm(x) < _TOL:
            break
    # re-orthonormalize against accumulated drift
    u, _, vt = np.linalg.svd(R)
    R = u @ vt
    if np.linalg.det(R) < 0:
        u[:, -1] *= -1
        R = u @ vt
    return SimilarityTransform(R, t)
