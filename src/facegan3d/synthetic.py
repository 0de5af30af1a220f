"""Deterministic synthetic head generator: the desk-scale stand-in for
real scan collections.

A face-like template lives on a (grid x grid) parameter lattice: an
ellipsoid cap facing +z (y up) whose horizontal radius carries fixed
feature bumps (nose, eye sockets, brow, mouth, chin). Subjects deform the
template by an exponential radial warp driven by smooth basis fields with
per-subject Gaussian coefficients; the exponential makes the population a
curved (nonlinear) manifold whose curvature grows with ``amplitude``.
Optional per-label offset fields mimic expressions, and optional white
vertex noise mimics cheap-sensor scans for the translation task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Mesh

_FEATURES = (
    # (s center, t center, s width, t width, amplitude)
    (0.50, 0.45, 0.060, 0.100, 0.28),   # nose
    (0.36, 0.62, 0.050, 0.050, -0.10),  # eye sockets
    (0.64, 0.62, 0.050, 0.050, -0.10),
    (0.50, 0.72, 0.250, 0.050, 0.07),   # brow
    (0.50, 0.25, 0.100, 0.045, 0.06),   # mouth
    (0.50, 0.08, 0.120, 0.080, 0.10),   # chin
)

_LABEL_BLOBS = (
    # one offset field per label: (s, t, sw, tw, amplitude)
    (0.50, 0.25, 0.14, 0.08, 1.0),      # mouth region
    (0.50, 0.70, 0.20, 0.09, 1.0),      # brow region
    (0.32, 0.40, 0.12, 0.12, 1.0),      # left cheek
    (0.68, 0.40, 0.12, 0.12, 1.0),      # right cheek
)


def _blob(s, t, cs, ct, ws, wt):
    return np.exp(-0.5 * (((s - cs) / ws) ** 2 + ((t - ct) / wt) ** 2))


def _grid(grid: int):
    lin = np.linspace(0.0, 1.0, grid)
    s, t = np.meshgrid(lin, lin, indexing="ij")   # s: azimuth index, t: height
    return s.reshape(-1), t.reshape(-1)


def _grid_faces(grid: int) -> np.ndarray:
    idx = np.arange(grid * grid).reshape(grid, grid)
    a = idx[:-1, :-1].reshape(-1)
    b = idx[1:, :-1].reshape(-1)
    c = idx[:-1, 1:].reshape(-1)
    d = idx[1:, 1:].reshape(-1)
    return np.concatenate([np.stack([a, b, d], axis=1),
                           np.stack([a, d, c], axis=1)]).astype(np.int32)


def _vertex_at(grid: int, s: float, t: float) -> int:
    i = int(round(s * (grid - 1)))
    j = int(round(t * (grid - 1)))
    return i * grid + j


def _positions(s, t, radial_log_warp, theta_span=1.9, phi_span=1.6,
               ax=0.78, ay=1.05, az=1.0):
    theta = (s - 0.5) * theta_span
    phi = (t - 0.5) * phi_span
    relief = np.ones_like(s)
    for cs, ct, ws, wt, amp in _FEATURES:
        relief = relief + amp * _blob(s, t, cs, ct, ws, wt)
    rho = np.cos(phi) * relief * np.exp(radial_log_warp)
    x = ax * rho * np.sin(theta)
    z = az * rho * np.cos(theta)
    y = ay * np.sin(phi)
    return np.stack([x, y, z], axis=1)


def make_template(grid: int = 45) -> Mesh:
    """The undeformed head with the three named landmarks."""
    s, t = _grid(grid)
    verts = _positions(s, t, np.zeros_like(s))
    landmarks = {
        "nose-tip": _vertex_at(grid, 0.5, 0.45),
        "left-eye-outer": _vertex_at(grid, 0.30, 0.62),
        "right-eye-outer": _vertex_at(grid, 0.70, 0.62),
    }
    return Mesh(verts, _grid_faces(grid), landmarks)


def _mode_fields(s, t, n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth, RMS-normalized basis fields over the parameter grid."""
    pairs = [(i, j) for i in range(6) for j in range(6) if (i, j) != (0, 0)]
    pairs.sort(key=lambda p: (p[0] ** 2 + p[1] ** 2, p))
    fields = []
    for k in range(n_modes):
        i, j = pairs[k % len(pairs)]
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        f = np.cos(np.pi * i * s + ph1) * np.cos(np.pi * j * t + ph2)
        fields.append(f / np.sqrt(np.mean(f * f)))
    return np.stack(fields, axis=0)   # (K, V)


@dataclass
class SynthDataset:
    template: Mesh
    subjects: list[Mesh]                       # neutral, one per subject
    noisy: list[Mesh] | None = None            # noisy copy of each neutral
    labeled: dict[str, list[Mesh]] | None = None
    label_names: list[str] = field(default_factory=list)


def synth_dataset(n_subjects: int, n_modes: int, noise: float = 0.0,
                  labels: int = 0, seed: int = 0, grid: int = 45,
                  amplitude: float = 0.12, mode_decay: float = 0.97,
                  label_amplitude: float = 0.18) -> SynthDataset:
    """Deterministic synthetic population. Same seed, same bits."""
    if n_modes < 1:
        raise ValueError("need at least one deformation mode")
    if labels > len(_LABEL_BLOBS):
        raise ValueError(f"at most {len(_LABEL_BLOBS)} labels supported")
    rng = np.random.default_rng(seed)
    template = make_template(grid)
    s, t = _grid(grid)
    basis = _mode_fields(s, t, n_modes, rng)
    scales = amplitude * mode_decay ** np.arange(n_modes)
    coeffs = rng.standard_normal((n_subjects, n_modes))

    label_names = [f"label{j}" for j in range(labels)]
    offsets = []
    for j in range(labels):
        cs, ct, ws, wt, amp = _LABEL_BLOBS[j]
        offsets.append(label_amplitude * amp * _blob(s, t, cs, ct, ws, wt))

    subjects = []
    labeled: dict[str, list[Mesh]] = {name: [] for name in label_names}
    for i in range(n_subjects):
        warp = (scales * coeffs[i]) @ basis
        verts = _positions(s, t, warp)
        subjects.append(Mesh(verts, template.faces, dict(template.landmarks)))
        for j, name in enumerate(label_names):
            lverts = _positions(s, t, warp + offsets[j])
            labeled[name].append(Mesh(lverts, template.faces, dict(template.landmarks)))

    noisy = None
    if noise > 0:
        noisy = []
        for m in subjects:
            jitter = noise * rng.standard_normal(m.vertices.shape)
            noisy.append(m.with_vertices(m.vertices + jitter))

    return SynthDataset(template, subjects, noisy,
                        labeled if labels else None, label_names)
