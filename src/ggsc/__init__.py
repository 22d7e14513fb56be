"""ggsc: graph-transform compression for 3D Gaussian Splatting assets.

The codec quantizes primitive centers onto an integer lattice, orders them
along a Morton curve, partitions them with a KD-tree into small leaves,
and transforms every per-primitive attribute (spherical-harmonics color in
YUV, opacity, scale, rotation) with the graph Fourier basis of each leaf's
Gaussian-affinity Laplacian.  High-frequency coefficients are clipped,
the rest uniformly quantized and entropy coded with an adaptive range
coder.  Geometry travels in its own Morton-delta coded section.
"""

from .gs_core import GaussianCloud, Box3, PlyFormatError, load_ply, save_ply, bounding_box
from .codec import CodecParams, CodedStream, CodecError, encode, decode, bitrate_breakdown

__all__ = [
    "GaussianCloud",
    "Box3",
    "PlyFormatError",
    "load_ply",
    "save_ply",
    "bounding_box",
    "CodecParams",
    "CodedStream",
    "CodecError",
    "encode",
    "decode",
    "bitrate_breakdown",
]

__version__ = "0.1.0"
