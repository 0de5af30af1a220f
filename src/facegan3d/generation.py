"""Latent-space face generation.

After training, every training map is pushed through the encoder to
harvest its bottleneck vector; the collection is summarized as a Gaussian
(mean + centered-column factor) and new faces come from decoding samples
of it through bottleneck2 + decoder only. Sampling uses z = mu + A @ eps
with A = Z_centered / sqrt(N-1), which realizes N(mu, A A^T) exactly even
when there are fewer samples than latent dimensions. With labeled data
the Gaussian is fitted on the codes of the training maps under one label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network, batches


@dataclass
class LatentGaussian:
    mean: np.ndarray          # (N_b,)
    factor: np.ndarray        # (N_b, N): covariance = factor @ factor.T

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.factor = np.asarray(self.factor, dtype=np.float64)
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.factor)):
            raise ValueError("latent Gaussian has non-finite entries")
        if self.mean.ndim != 1 or self.factor.ndim != 2 or len(self.factor) != len(self.mean):
            raise ValueError(f"latent Gaussian mean {self.mean.shape} and factor "
                             f"{self.factor.shape} are not (N_b,) and (N_b, N)")


def collect_bottlenecks(net: Network, maps: np.ndarray,
                        labels: np.ndarray | None = None) -> np.ndarray:
    """Bottleneck vectors of the given maps, one column per sample, in
    input order. maps: (N, 3, H, W), encoded in :func:`model.batches`
    slices."""
    if len(maps) == 0:
        raise ValueError("collect_bottlenecks needs a non-empty dataset")
    cols = [net.encode(maps[c], labels=None if labels is None else labels[c])[0].data.T
            for c in batches(len(maps))]
    return np.concatenate(cols, axis=1).astype(np.float64)


def fit_latent_gaussian(Z: np.ndarray) -> LatentGaussian:
    """Mean and covariance factor of column-stacked bottlenecks (N_b, N)."""
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[1]
    if n < 2:
        raise ValueError(f"need at least 2 samples to fit a Gaussian, got {n}")
    mu = Z.mean(axis=1)
    A = (Z - mu[:, None]) / np.sqrt(n - 1.0)
    return LatentGaussian(mu, A)


def sample_latent(g: LatentGaussian, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw n latent vectors, returned as columns (N_b, n)."""
    eps = rng.standard_normal((g.factor.shape[1], n))
    return g.mean[:, None] + g.factor @ eps


def decode_batch(net: Network, zs: np.ndarray) -> np.ndarray:
    """Decode latent columns (N_b, n) to maps (n, 3, H, W), with no skip
    features, in :func:`model.batches` slices of the columns."""
    zs = np.asarray(zs, dtype=np.float32)
    return np.concatenate([net.decode(zs[:, c].T).data for c in batches(zs.shape[1])])

