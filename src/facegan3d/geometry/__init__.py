"""Mesh alignment, UV unwrapping and rasterization, and rigid ICP.

Every mesh shares one template's topology, so registration is Procrustes
and GPA on vertex correspondences; no non-rigid fitting is needed.
"""

from .mesh import Mesh, load_landmarks, load_obj, save_landmarks, save_obj
from .procrustes import (SimilarityTransform, centroid_size,
                         generalized_procrustes, normalize_dataset,
                         procrustes_points)
from .uvmap import (UVLayout, UVMap, cylindrical_unwrap, nearest_fill,
                    rasterize_uv, sample_mesh_from_uv)
from .icp import icp_point_to_plane

__all__ = [
    "Mesh", "load_landmarks", "load_obj", "save_landmarks",
    "save_obj", "SimilarityTransform", "centroid_size",
    "generalized_procrustes", "normalize_dataset", "procrustes_points",
    "UVLayout", "UVMap", "cylindrical_unwrap", "nearest_fill", "rasterize_uv",
    "sample_mesh_from_uv", "icp_point_to_plane",
]
