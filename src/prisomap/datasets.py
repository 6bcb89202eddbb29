"""Dataset loading, synthetic manifold generation, standardization, and the
cell and JSON formats every output file shares.

CSV tables follow RFC-4180 with a required header row; IDX image files use
the big-endian layout with magic numbers 0x00000803 (images) and 0x00000801
(labels). The swiss-roll generator supports a density exponent to produce
non-uniform sampling and an optional short-circuit construction that welds
pairs of points from radially adjacent sheets together in ambient space.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError
from .linalg import as_finite_matrix, as_matrix

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

SWISS_ROLL_T_RANGE = (1.5 * math.pi, 4.5 * math.pi)
SWISS_ROLL_U_RANGE = (0.0, 21.0)

_INT64_BOUND = 2.0**63  # labels lie in [-bound, bound)
_WRITE_ROWS = 4096


@dataclass
class LabeledDataset:
    """Observation-major feature table with optional integer labels."""

    data: np.ndarray
    labels: np.ndarray | None = None
    names: list[str] | None = None
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass
class ManifoldSample:
    """Synthetic manifold sample with ground-truth chart coordinates.

    intrinsic holds the raw parameters (t, u); use swiss_roll_unrolled for
    the isometric (arc length, height) chart.
    """

    ambient: np.ndarray
    intrinsic: np.ndarray
    density_profile: dict = field(default_factory=dict)


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator of a seed >= 0; InputError for a negative seed."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def data_hash(data: np.ndarray) -> str:
    """Stable identity of a float64 matrix: shape plus content bytes."""
    a = as_matrix(data, "data")
    h = hashlib.sha256()
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


# -- output formats -------------------------------------------------------------


def csv_cell(value) -> str:
    """One CSV cell: None empty, floats round-trip exact (.17g), else str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def json_safe(value):
    """Replace non-finite floats with strings so descriptors stay valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return json_safe(value.tolist())
    return value


def write_json(payload, path=None) -> str:
    """The text of payload in the layout of every JSON output file (indent 2,
    sorted keys, final newline), also written to path when one is given."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# -- CSV ----------------------------------------------------------------------


def load_csv(path, label_column: str | int | None = None) -> LabeledDataset:
    """Load a numeric CSV with header; rows containing NaN are dropped.

    label_column (by name or positional index) is parsed as integer labels,
    each an integral number in the int64 range ("1e3" is 1000);
    all remaining columns are features. Raises ParseError with the offending
    row/column, InputError if nothing survives NaN filtering.

    The csv module reads the file (RFC-4180) as it streams, cell by cell.
    """
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[int] = []
    dropped = 0
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: no header row") from None
        label_idx = None
        if isinstance(label_column, int):
            if not 0 <= label_column < len(header):
                raise ParseError(f"{path}: label column index {label_column} out of range")
            label_idx = label_column
        elif label_column is not None:
            if label_column not in header:
                raise ParseError(f"{path}: no column named {label_column!r} in header {header}")
            label_idx = header.index(label_column)
        feature_idx = [i for i in range(len(header)) if i != label_idx]
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise ParseError(
                    f"{path}: expected {len(header)} fields, got {len(record)}", row=rownum
                )
            values: list[float] = []
            has_nan = False
            for i in feature_idx:
                cell = record[i].strip()
                if cell == "":
                    has_nan = True
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric value {record[i]!r}", row=rownum, column=i
                    ) from None
                if math.isnan(v):
                    has_nan = True
                values.append(v)
            if has_nan:
                dropped += 1
                continue
            if label_idx is not None:
                cell = record[label_idx].strip()
                try:  # an integral cell as an exact int, so labels above 2**53 stay apart
                    label = int(cell) if cell.lstrip("+-").isdigit() else float(cell)
                except ValueError:
                    label = math.nan
                problem = ("is not a number in the int64 range"
                           if not -_INT64_BOUND <= label < _INT64_BOUND else
                           None if label == int(label) else "is not an integer")
                if problem:
                    raise ParseError(f"{path}: label {record[label_idx]!r} {problem}",
                                     row=rownum, column=label_idx)
                labels.append(int(label))
            rows.append(values)

    if not rows:
        raise InputError(f"{path}: no rows left after NaN filtering (dropped {dropped})")
    return LabeledDataset(np.array(rows, dtype=np.float64),
                          np.array(labels, dtype=np.int64) if label_idx is not None else None,
                          [header[i] for i in feature_idx], dropped)


def save_csv(path, data, names: list[str] | None = None) -> None:
    """Write a numeric table with 17-significant-digit (round-trip exact) cells,
    csv_cell's text of each float, through one %-template call per block of
    _WRITE_ROWS rows, which bounds the text held at once."""
    a = as_matrix(data, "data")
    if names is None:
        names = [f"f{i}" for i in range(a.shape[1])]
    if len(names) != a.shape[1]:
        raise ValueError("names length must match column count")
    # QUOTE_MINIMAL quotes a "\n" but not a bare "\r", which a reader also ends a row at
    quoting = csv.QUOTE_ALL if any("\r" in str(name) for name in names) else csv.QUOTE_MINIMAL
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n", quoting=quoting).writerow(names)
        row_format = ",".join(["%.17g"] * a.shape[1]) + "\n"
        for start in range(0, a.shape[0], _WRITE_ROWS):
            block = a[start:start + _WRITE_ROWS]
            fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def save_table(path, rows: list[dict]) -> None:
    """Write dicts as CSV rows: a header of every key in first-seen order,
    then each row's cells by csv_cell, empty where a row lacks the key."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(csv_cell(row.get(key)) for key in fields) + "\n")


# -- IDX ----------------------------------------------------------------------


def _open_maybe_gzip(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return path.open("rb")


def _read_exact(fh, count: int, path: Path) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise InputError(f"{path}: expected {count} bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path=None) -> LabeledDataset:
    """Load big-endian IDX image data, flattening each image row-major.

    Pixel values stay in 0-255 as float64 features. Raises InputError for a
    wrong magic number, a cut file or a label count other than the image count.
    """
    images_path = Path(images_path)
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
        if magic != IDX_IMAGE_MAGIC:
            raise InputError(f"{images_path}: magic 0x{magic:08x} != 0x{IDX_IMAGE_MAGIC:08x}")
        raw = _read_exact(fh, count * rows * cols, images_path)
    data = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)

    labels = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        with _open_maybe_gzip(labels_path) as fh:
            magic, lcount = struct.unpack(">II", _read_exact(fh, 8, labels_path))
            if magic != IDX_LABEL_MAGIC:
                raise InputError(f"{labels_path}: magic 0x{magic:08x} != 0x{IDX_LABEL_MAGIC:08x}")
            lraw = _read_exact(fh, lcount, labels_path)
        if lcount != count:
            raise InputError(f"{lcount} labels for {count} images")
        labels = np.frombuffer(lraw, dtype=np.uint8).astype(np.int64)

    return LabeledDataset(data=data, labels=labels, names=None)


# -- synthetic manifolds --------------------------------------------------------


def swiss_roll_arc_length(t):
    """Arc length of the spiral (t cos t, t sin t) measured from t = 0."""
    t = np.asarray(t, dtype=np.float64)
    return 0.5 * (t * np.sqrt(1.0 + t * t) + np.arcsinh(t))


def swiss_roll_unrolled(intrinsic) -> np.ndarray:
    """Map (t, u) parameters to the isometric (arc length, height) chart."""
    intr = as_matrix(intrinsic, "intrinsic")
    out = np.empty_like(intr)
    out[:, 0] = swiss_roll_arc_length(intr[:, 0])
    out[:, 1] = intr[:, 1]
    return out


def gen_swiss_roll(
    n: int,
    noise_sd: float = 0.0,
    density_exponent: float = 0.0,
    seed: int = 0,
    short_circuit_pairs: float = 0.0,
) -> ManifoldSample:
    """Sample a swiss roll with density proportional to t**density_exponent.

    t is drawn on [1.5*pi, 4.5*pi] by inverse-CDF (exponent 0 = uniform),
    u uniformly on [0, 21]; the ambient point is (t cos t, u, t sin t) plus
    isotropic Gaussian noise. Deterministic for a fixed seed.

    short_circuit_pairs > 0 welds round(short_circuit_pairs * n) point pairs
    from radially adjacent sheets at their ambient midpoint, creating edges
    that are short in ambient space but far apart on the manifold.
    """
    if n < 10:
        raise InputError(f"n must be >= 10, got {n}")
    if not 0.0 <= noise_sd < math.inf:
        raise InputError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if not -1.0 < density_exponent <= 266.0:  # (4.5 pi) ** 268 overflows float64
        raise InputError(f"density_exponent must be in (-1, 266], got {density_exponent}")
    if not 0.0 <= short_circuit_pairs < 0.5:
        raise InputError(f"short_circuit_pairs must be in [0, 0.5), got {short_circuit_pairs}")

    rng = seeded_rng(seed)
    a, b = SWISS_ROLL_T_RANGE
    e1 = density_exponent + 1.0
    u01 = rng.uniform(0.0, 1.0, n)
    t = (a**e1 + u01 * (b**e1 - a**e1)) ** (1.0 / e1)
    height = rng.uniform(SWISS_ROLL_U_RANGE[0], SWISS_ROLL_U_RANGE[1], n)

    ambient = np.column_stack([t * np.cos(t), height, t * np.sin(t)])
    if noise_sd > 0:  # finite, and small enough for every later command
        ambient = as_finite_matrix(ambient + rng.normal(0.0, noise_sd, ambient.shape),
                                   f"ambient at noise_sd {noise_sd}")
    intrinsic = np.column_stack([t, height])

    n_pairs = int(round(short_circuit_pairs * n))
    if n_pairs > 0:
        _weld_short_circuit_pairs(ambient, t, height, n_pairs, rng)

    profile = {
        "generator": "swiss_roll",
        "n": int(n),
        "noise_sd": float(noise_sd),
        "density_exponent": float(density_exponent),
        "seed": int(seed),
        "short_circuit_pairs": float(short_circuit_pairs),
        "t_range": [a, b],
        "u_range": list(SWISS_ROLL_U_RANGE),
    }
    return ManifoldSample(ambient=ambient, intrinsic=intrinsic, density_profile=profile)


def _weld_short_circuit_pairs(ambient, t, height, n_pairs, rng) -> None:
    """Move pairs of points from adjacent windings to a shared midpoint.

    Sources are drawn from points with a winding above them; each partner is
    the nearest sample to the source's radially adjacent position. Both ends
    move to the ambient midpoint (offset slightly to keep distances nonzero),
    so the pair bridges the sheets through two roughly half-gap hops.
    """
    a, b = SWISS_ROLL_T_RANGE
    eligible = np.where(t <= b - 2.0 * math.pi)[0]
    if eligible.size == 0:
        return
    sources = rng.choice(eligible, size=min(n_pairs, eligible.size), replace=False)
    used = set(sources.tolist())
    for i in sources:
        ti = t[i]
        target = np.array(
            [(ti + 2.0 * math.pi) * np.cos(ti), height[i], (ti + 2.0 * math.pi) * np.sin(ti)]
        )
        d = np.linalg.norm(ambient - target[None, :], axis=1)
        d[list(used)] = np.inf
        j = int(np.argmin(d))
        used.add(j)
        mid = 0.5 * (ambient[i] + ambient[j])
        ambient[i] = mid
        ambient[j] = mid + np.array([1e-3, 0.0, 0.0])


# -- standardization ------------------------------------------------------------


def standardize(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-mean unit-variance features using the population (1/n) deviation.

    Constant features map to all-zero columns with their sd recorded as 0.
    Returns (standardized, means, sds).
    """
    a = as_matrix(data, "data")
    if a.shape[0] < 2:
        raise ValueError(f"need at least 2 observations, got {a.shape[0]}")
    mean = a.mean(axis=0)
    sd = a.std(axis=0)
    centered = a - mean[None, :]
    out = np.zeros_like(centered)
    nonconst = sd > 0
    out[:, nonconst] = centered[:, nonconst] / sd[None, nonconst]
    return out, mean, sd
