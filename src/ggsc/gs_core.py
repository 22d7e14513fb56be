"""Gaussian Splatting data model and binary PLY I/O.

A splat asset is a flat table of primitives.  Every primitive carries a
3D center, 48 spherical-harmonics color coefficients (degree 3: one DC
plus 15 higher-order coefficients per RGB channel), a raw opacity logit,
three log-scales and an unnormalized rotation quaternion.  All values
live in the stored domain of the common exporter format -- no sigmoid,
exp or normalization is applied on load, and none is expected on save.

The `f_rest_*` block is channel-major: ``f_rest_[c*15 + j]`` holds
higher-order coefficient ``j`` of color channel ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

SH_DC = 3
SH_REST = 45
SH_COEFFS = SH_DC + SH_REST

#: Vertex properties required of any loadable asset, also the exact order
#: in which `save_ply` writes them.
REQUIRED_FIELDS: tuple[str, ...] = tuple(
    ["x", "y", "z"]
    + [f"f_dc_{i}" for i in range(SH_DC)]
    + [f"f_rest_{i}" for i in range(SH_REST)]
    + ["opacity"]
    + [f"scale_{i}" for i in range(3)]
    + [f"rot_{i}" for i in range(4)]
)

_PLY_DTYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


class PlyFormatError(ValueError):
    """A byte buffer could not be parsed (or a cloud serialized) as a splat PLY."""


@dataclass
class GaussianCloud:
    """In-memory splat asset; float64 throughout, one row per primitive.

    centers:  (N, 3) positions.
    sh:       (N, 48) color coefficients in stored PLY order
              (f_dc_0..2 followed by f_rest_0..44).
    opacity:  (N,) raw logits.
    scale:    (N, 3) log-scales.
    rotation: (N, 4) unnormalized quaternions.
    """

    centers: np.ndarray
    sh: np.ndarray
    opacity: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray

    def __post_init__(self) -> None:
        self.centers = _as_f64(self.centers, "centers")
        self.sh = _as_f64(self.sh, "sh")
        self.opacity = _as_f64(self.opacity, "opacity")
        self.scale = _as_f64(self.scale, "scale")
        self.rotation = _as_f64(self.rotation, "rotation")

        n = self.centers.shape[0] if self.centers.ndim == 2 else -1
        if n < 1:
            raise ValueError("a cloud needs at least one primitive")
        expected = {
            "centers": (n, 3),
            "sh": (n, SH_COEFFS),
            "opacity": (n,),
            "scale": (n, 3),
            "rotation": (n, 4),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise ValueError(f"{name}: non-finite value at index {tuple(bad)}")

    def __len__(self) -> int:
        return self.centers.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianCloud):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    def take(self, indices: np.ndarray) -> "GaussianCloud":
        """New cloud with primitives reordered/selected by `indices`."""
        idx = np.asarray(indices)
        return GaussianCloud(
            centers=self.centers[idx],
            sh=self.sh[idx],
            opacity=self.opacity[idx],
            scale=self.scale[idx],
            rotation=self.rotation[idx],
        )


@dataclass(frozen=True)
class Box3:
    """Axis-aligned bounding box, `min` elementwise <= `max`."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "min", _as_f64(self.min, "min"))
        object.__setattr__(self, "max", _as_f64(self.max, "max"))
        if self.min.shape != (3,) or self.max.shape != (3,):
            raise ValueError("Box3 corners must be 3-vectors")
        if not (np.isfinite(self.min).all() and np.isfinite(self.max).all()):
            raise ValueError("Box3 corners must be finite")
        if np.any(self.min > self.max):
            raise ValueError("Box3 min must not exceed max")

    @property
    def extents(self) -> np.ndarray:
        return self.max - self.min

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extents))


def _as_f64(arr, name: str) -> np.ndarray:
    try:
        out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: not convertible to float64") from exc
    return out


def bounding_box(cloud: GaussianCloud) -> Box3:
    """Tight axis-aligned bounding box of the primitive centers."""
    return Box3(min=cloud.centers.min(axis=0), max=cloud.centers.max(axis=0))


def _parse_header(data: bytes):
    """Return (vertex_count, [(name, dtype_char)...], body_offset)."""
    end_tag = b"end_header\n"
    end = data.find(end_tag)
    if not data.startswith(b"ply\n") or end < 0:
        raise PlyFormatError("not a PLY buffer (missing magic or end_header)")
    try:
        header = data[:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise PlyFormatError("PLY header is not ASCII") from exc
    body_offset = end + len(end_tag)

    fmt = None
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    for raw in header.splitlines()[1:]:
        line = raw.strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        tok = line.split()
        if tok[0] == "format":
            if len(tok) != 3:
                raise PlyFormatError(f"malformed format line: {line!r}")
            fmt = tok[1]
        elif tok[0] == "element":
            if len(tok) != 3 or not tok[2].isdigit():
                raise PlyFormatError(f"malformed element line: {line!r}")
            elements.append((tok[1], int(tok[2]), []))
        elif tok[0] == "property":
            if not elements:
                raise PlyFormatError("property before any element")
            if tok[1:2] == ["list"]:
                raise PlyFormatError("list properties are not supported")
            if len(tok) != 3 or tok[1] not in _PLY_DTYPES:
                raise PlyFormatError(f"malformed property line: {line!r}")
            if any(name == tok[2] for name, _ in elements[-1][2]):
                raise PlyFormatError(f"repeated property in element {elements[-1][0]!r}: "
                                     f"{line!r}")
            elements[-1][2].append((tok[2], _PLY_DTYPES[tok[1]]))
        else:
            raise PlyFormatError(f"unrecognized header line: {line!r}")

    if fmt != "binary_little_endian":
        raise PlyFormatError(f"unsupported PLY format {fmt!r}; need binary_little_endian")
    if not elements or elements[0][0] != "vertex":
        raise PlyFormatError("first element must be 'vertex'")
    _, count, props = elements[0]
    if count < 1:
        raise PlyFormatError("vertex element is empty")
    if not props:
        raise PlyFormatError("vertex element has no properties")
    return count, props, body_offset


def load_ply(data: bytes) -> GaussianCloud:
    """Parse a binary little-endian splat PLY buffer.

    All `REQUIRED_FIELDS` must be present as scalar properties (any order;
    unknown extras such as normals are ignored).  Values are widened to
    float64.  Missing fields, malformed headers, short buffers and
    non-finite values raise `PlyFormatError` naming the offender.
    """
    count, props, offset = _parse_header(data)

    dtype = np.dtype([(name, "<" + code) for name, code in props])
    names = {name for name, _ in props}
    for field in REQUIRED_FIELDS:
        if field not in names:
            raise PlyFormatError(f"missing required property {field!r}")

    need = count * dtype.itemsize
    if len(data) - offset < need:
        raise PlyFormatError(
            f"buffer truncated: vertex data needs {need} bytes, "
            f"got {len(data) - offset}"
        )
    table = np.frombuffer(data, dtype=dtype, count=count, offset=offset)

    def col(field: str) -> np.ndarray:
        values = table[field].astype(np.float64)
        if not np.isfinite(values).all():
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            raise PlyFormatError(f"non-finite value in {field!r} at primitive {idx}")
        return values

    centers = np.stack([col("x"), col("y"), col("z")], axis=1)
    sh = np.stack(
        [col(f"f_dc_{i}") for i in range(SH_DC)]
        + [col(f"f_rest_{i}") for i in range(SH_REST)],
        axis=1,
    )
    opacity = col("opacity")
    scale = np.stack([col(f"scale_{i}") for i in range(3)], axis=1)
    rotation = np.stack([col(f"rot_{i}") for i in range(4)], axis=1)
    return GaussianCloud(centers, sh, opacity, scale, rotation)


def save_ply(cloud: GaussianCloud) -> bytes:
    """Serialize a cloud as binary little-endian PLY in canonical field order.

    Values are narrowed to float32; anything that does not survive the cast
    finite (magnitude above float32 range) raises `PlyFormatError`.  The
    output is deterministic: equal clouds serialize to identical bytes.
    """
    n = len(cloud)
    columns = np.concatenate(
        [
            cloud.centers,
            cloud.sh,
            cloud.opacity[:, None],
            cloud.scale,
            cloud.rotation,
        ],
        axis=1,
    )
    with np.errstate(over="ignore"):
        narrowed = columns.astype("<f4")
    if not np.isfinite(narrowed).all():
        row, c = np.argwhere(~np.isfinite(narrowed))[0]
        raise PlyFormatError(
            f"value in {REQUIRED_FIELDS[c]!r} at primitive {row} "
            "does not fit in float32"
        )

    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    lines += [f"property float {name}" for name in REQUIRED_FIELDS]
    lines.append("end_header")
    header = ("\n".join(lines) + "\n").encode("ascii")
    return header + narrowed.tobytes()
