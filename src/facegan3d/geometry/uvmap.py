"""UV unwrapping and rasterization of meshes to/from position maps.

A position map stores per-pixel 3D coordinates instead of color: pixels
covered by a UV triangle get barycentric-interpolated vertex positions,
everything else is filled from the Euclidean-nearest valid pixel so the
map is dense. Pixel (row i, col j) has its center at
(u, v) = ((j + 0.5) / W, (i + 0.5) / H).

The fill searches only the boundary of the coverage: the covered pixels
with an uncovered 4-neighbour. A nearest covered pixel of an uncovered
pixel is always one of them, since from any other covered pixel one step
toward the query is closer and still covered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataFormatError
from .mesh import Mesh


class UVLayout:
    """Per-vertex (u, v) chart of a template, plus cached per-resolution
    rasterizations (triangle index + barycentric weights per pixel)."""

    def __init__(self, uv: np.ndarray, faces: np.ndarray):
        self.uv = np.asarray(uv, dtype=np.float64)
        self.faces = np.asarray(faces, dtype=np.int32)
        if self.uv.ndim != 2 or self.uv.shape[1] != 2:
            raise DataFormatError(f"uv must be (V, 2), got {self.uv.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DataFormatError(f"faces must be (F, 3), got {self.faces.shape}")
        if not np.all((self.uv >= -1e-12) & (self.uv <= 1 + 1e-12)):  # NaN too
            raise DataFormatError("uv coordinates outside [0, 1]^2")
        uniq = np.unique(self.uv, axis=0)
        if len(uniq) != len(self.uv):
            dup = _duplicate_rows(self.uv)
            raise DataFormatError(f"duplicate (u, v) for vertices {dup[:8]}")
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def num_vertices(self) -> int:
        return len(self.uv)

    def rasterization(self, resolution: int) -> tuple[np.ndarray, np.ndarray]:
        """(tri, bary) at the given square resolution: tri is (H, W) int32
        with -1 for uncovered pixels, bary is (H, W, 3) float64."""
        if resolution not in self._cache:
            self._cache[resolution] = _rasterize_layout(self.uv, self.faces, resolution)
        return self._cache[resolution]


def _duplicate_rows(arr: np.ndarray) -> list[int]:
    seen: dict[tuple, int] = {}
    dups = []
    for i, row in enumerate(map(tuple, arr)):
        if row in seen:
            dups.extend([seen[row], i])
        seen[row] = i
    return sorted(set(dups))


# candidate pixels rasterized at once: bounds the transient arrays
_RASTER_CHUNK = 1 << 11


def _rasterize_layout(uv: np.ndarray, faces: np.ndarray, res: int):
    """(tri, bary) of a layout at res x res. A pixel center belongs to a face
    when each of its three barycentric weights is >= -1e-12; where faces
    overlap, the lowest face index wins the pixel. A face whose bounding box
    holds no pixel center, or whose doubled area in pixels is below 1e-15,
    covers nothing."""
    H = W = res
    tri = np.full(H * W, -1, dtype=np.int32)
    bary = np.zeros((H * W, 3), dtype=np.float64)
    # vertex uv in pixel-center coordinates, per face corner
    xs = (uv[:, 0] * W - 0.5)[faces]
    ys = (uv[:, 1] * H - 0.5)[faces]
    x0 = np.maximum(np.ceil(xs.min(axis=1)), 0).astype(np.int64)
    x1 = np.minimum(np.floor(xs.max(axis=1)), W - 1).astype(np.int64)
    y0 = np.maximum(np.ceil(ys.min(axis=1)), 0).astype(np.int64)
    y1 = np.minimum(np.floor(ys.max(axis=1)), H - 1).astype(np.int64)
    denom = (ys[:, 1] - ys[:, 2]) * (xs[:, 0] - xs[:, 2]) \
        + (xs[:, 2] - xs[:, 1]) * (ys[:, 0] - ys[:, 2])
    keep = np.flatnonzero((x0 <= x1) & (y0 <= y1) & (np.abs(denom) >= 1e-15))
    nx = x1[keep] - x0[keep] + 1
    count = nx * (y1[keep] - y0[keep] + 1)          # bounding-box pixels per face
    start = np.cumsum(count) - count                 # first candidate of each face
    lo = 0
    while lo < len(keep):
        hi = int(np.searchsorted(start, start[lo] + _RASTER_CHUNK))
        # one candidate per (face, bounding-box pixel), faces in index order
        k = np.repeat(np.arange(lo, hi), count[lo:hi])
        off = np.arange(len(k)) + start[lo] - start[k]
        fi = keep[k]
        gx = x0[fi] + off % nx[k]
        gy = y0[fi] + off // nx[k]
        (xa, xb, xc), (ya, yb, yc), d = xs[fi].T, ys[fi].T, denom[fi]
        w0 = ((yb - yc) * (gx - xc) + (xc - xb) * (gy - yc)) / d
        w1 = ((yc - ya) * (gx - xc) + (xa - xc) * (gy - yc)) / d
        w = np.stack([w0, w1, 1.0 - w0 - w1], axis=1)
        pix = gy * W + gx
        # an earlier chunk's face keeps its pixel; within the chunk the first
        # (lowest-index) face does, as np.unique returns first occurrences
        hit = np.flatnonzero((w >= -1e-12).all(axis=1) & (tri[pix] == -1))
        pix, first = np.unique(pix[hit], return_index=True)
        tri[pix] = fi[hit[first]]
        bary[pix] = w[hit[first]]
        lo = hi
    return tri.reshape(H, W), bary.reshape(H, W, 3)


@dataclass
class UVMap:
    """Square position map: ``data`` is (C, H, W) float32 with positions in
    [-1, 1] for normalized datasets; ``valid`` flags triangle coverage prior
    to the nearest fill; ``filled`` says whether every pixel holds a value."""

    data: np.ndarray
    valid: np.ndarray
    filled: bool = False

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.data.ndim != 3:
            raise DataFormatError(f"UVMap data must be (C, H, W), got {self.data.shape}")
        if self.valid.shape != self.data.shape[1:]:
            raise DataFormatError("validity mask shape mismatch")


def cylindrical_unwrap(template: Mesh) -> UVLayout:
    """Plain cylindrical projection of a face-forward (+z, y up) template:
    u from the azimuth around the y axis, v from the height, both rescaled
    to the occupied span so the chart covers [0, 1]^2."""
    v3 = template.vertices
    theta = np.arctan2(v3[:, 0], v3[:, 2])
    u = (theta + np.pi) / (2.0 * np.pi)
    y = v3[:, 1]
    uspan = u.max() - u.min()
    vspan = y.max() - y.min()
    if uspan < 1e-12 or vspan < 1e-12:
        raise DataFormatError("template is degenerate along u or v")
    uv = np.stack([(u - u.min()) / uspan, (y - y.min()) / vspan], axis=1)
    return UVLayout(uv, template.faces)


def rasterize_uv(mesh: Mesh, layout: UVLayout, resolution: int) -> UVMap:
    """Splat a mesh into a position map through the layout. Covered pixels
    get barycentric-interpolated positions, the rest take the nearest valid
    pixel's value; ``valid`` keeps the raw coverage."""
    if mesh.num_vertices != layout.num_vertices:
        raise DataFormatError("mesh and layout disagree on vertex count")
    tri, bary = layout.rasterization(resolution)
    valid = tri >= 0
    data = np.full((3, resolution, resolution), np.nan, dtype=np.float32)
    idx = tri[valid]
    corners = mesh.vertices[layout.faces[idx]]            # (K, 3, 3)
    vals = np.einsum("kc,kcd->kd", bary[valid], corners)  # (K, 3)
    data[:, valid] = vals.T.astype(np.float32)
    return nearest_fill(UVMap(data, valid))


# (uncovered, boundary) pixel pairs compared at once: bounds the transient
# distance matrix; one fill runs at a time
_FILL_CHUNK = 1 << 18


def _nearest_valid_assignment(valid: np.ndarray) -> np.ndarray:
    """For each pixel, the flat index of its Euclidean-nearest valid pixel
    center; ties broken by row-major lowest index. Valid pixels map to
    themselves. The mask needs a valid and an invalid pixel."""
    H, W = valid.shape
    out = np.arange(H * W, dtype=np.int64)
    # the boundary: covered pixels with an uncovered 4-neighbour
    inv = np.pad(~valid, 1)
    near = inv[:-2, 1:-1] | inv[2:, 1:-1] | inv[1:-1, :-2] | inv[1:-1, 2:]
    # int32 halves the memory traffic and holds every squared distance
    # below res 32768; row-major order makes argmin keep the lowest tie
    holes = np.flatnonzero(~valid).astype(np.int32)
    edge = np.flatnonzero(valid & near).astype(np.int32)
    er, ec = np.divmod(edge, W)
    step = max(1, _FILL_CHUNK // len(edge))
    for lo in range(0, len(holes), step):
        hr, hc = np.divmod(holes[lo:lo + step], W)
        d2 = (hr[:, None] - er) ** 2 + (hc[:, None] - ec) ** 2
        out[holes[lo:lo + step]] = edge[d2.argmin(axis=1)]
    return out


def nearest_fill(uvmap: UVMap) -> UVMap:
    """Fill invalid pixels from the Euclidean-nearest valid pixel center.
    Idempotent; the coverage mask is preserved."""
    if not uvmap.valid.any():
        raise ValueError("nearest fill needs at least one valid pixel")
    if uvmap.filled or uvmap.valid.all():
        return UVMap(uvmap.data.copy(), uvmap.valid.copy(), filled=True)
    H, W = uvmap.valid.shape
    assign = _nearest_valid_assignment(uvmap.valid)
    flat = uvmap.data.reshape(uvmap.data.shape[0], H * W)
    return UVMap(flat[:, assign].reshape(uvmap.data.shape), uvmap.valid.copy(), filled=True)


def sample_mesh_from_uv(uvmap: UVMap, layout: UVLayout,
                        landmarks: dict[str, int] | None = None) -> Mesh:
    """Bilinearly sample the position channels at every layout vertex."""
    if not uvmap.filled:
        raise ValueError("sample_mesh_from_uv needs a filled map")
    C, H, W = uvmap.data.shape
    x = np.clip(layout.uv[:, 0] * W - 0.5, 0.0, W - 1.0)
    y = np.clip(layout.uv[:, 1] * H - 0.5, 0.0, H - 1.0)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    x1 = np.minimum(x0 + 1, W - 1)
    y1 = np.minimum(y0 + 1, H - 1)
    fx = x - x0
    fy = y - y0
    d = uvmap.data.astype(np.float64)
    vals = ((1 - fy) * (1 - fx))[None] * d[:, y0, x0] \
        + ((1 - fy) * fx)[None] * d[:, y0, x1] \
        + (fy * (1 - fx))[None] * d[:, y1, x0] \
        + (fy * fx)[None] * d[:, y1, x1]
    return Mesh(vals.T, layout.faces, dict(landmarks or {}))
