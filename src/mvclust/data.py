"""Multi-view dataset loading, normalization, batching and synthetic data,
and the one writer of each plain-text artifact format.

On disk a dataset is a JSON manifest next to one headerless CSV matrix per
view (rows are samples) and an optional labels file with one non-negative
integer per line::

    {
      "name": "digits",
      "n": 2000,
      "likelihood": "bernoulli",
      "views": [{"name": "pix", "dim": 240, "path": "pix.csv"}, ...],
      "labels": "labels.txt"
    }
"""

from __future__ import annotations

import inspect
import json
import math
import string
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numgrad import as_tensor
from .numgrad.params import write_atomic
from .seeding import check_int, check_ints, rng_for

MANIFEST_FILE = "manifest.json"
# values per chunk of a CSV write (about 25 KB of text): memory stays bounded,
# and the heap is left as np.savetxt leaves it, which a chunk per row is not
_CSV_CHUNK = 1024
LIKELIHOODS = ("bernoulli", "gaussian")
FORMAT_VERSION = 1  # of descriptor.json and state.json
# the Python types of each plain JSON kind; every kind is one of these, a list
# of one (tuple[int, ...]), or either of those | None
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict}
_JSON_KINDS = frozenset(
    kind + none for base in _JSON_TYPES for kind in (base, f"tuple[{base}, ...]") for none in ("", " | None")
)


class LoadError(ValueError):
    """An input file failed validation; the message names the offender."""


def check_batch(x, dim, what) -> np.ndarray:
    """``x`` as a float64 array; it must be an (n, ``dim``) matrix, else a ValueError names ``what``."""
    arr = as_tensor(x)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{what} must be (n, {dim}), got shape {np.shape(x)}")
    return arr


@dataclass
class NormalizationRecord:
    """Per-view affine feature transform y = (x - offset) * scale.

    Bernoulli normalization stores min/range, Gaussian stores mean/std;
    constant features get scale 0 and map to exactly 0. Applying the record
    to the data it was fit on reproduces the normalized data exactly. The
    likelihood of the model that owns the record says which of the two it is.
    """

    offsets: list[np.ndarray]
    scales: list[np.ndarray]

    def apply(self, matrices) -> list[np.ndarray]:
        if len(matrices) != len(self.offsets):
            raise ValueError(f"record covers {len(self.offsets)} views, got {len(matrices)}")
        views = enumerate(zip(matrices, self.offsets, self.scales))
        return [(check_batch(x, off.shape[0], f"view {v}") - off) * sc for v, (x, off, sc) in views]


@dataclass
class MultiViewDataset:
    """Dense per-view matrices with optional ground-truth labels."""

    name: str
    view_names: list[str]
    matrices: list[np.ndarray]
    labels: np.ndarray | None = None
    likelihood: str | None = None
    normalization: NormalizationRecord | None = None

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("dataset needs at least one view")
        if len(self.view_names) != len(self.matrices):
            raise ValueError(f"dataset has {len(self.view_names)} view names for {len(self.matrices)} matrices")
        n = self.matrices[0].shape[0]
        for name, mat in zip(self.view_names, self.matrices):
            if mat.ndim != 2 or mat.shape[0] != n:
                raise ValueError(f"view {name!r} must be a (n, d) matrix")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must match sample count")

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.matrices)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(mat.shape[1] for mat in self.matrices)


def _finite_cells(text: str):
    """How many finite numbers the matrix reader's own rule (``np.loadtxt``)
    reads in ``text``, None when it reads anything else; a blank line holds
    none."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt([text], delimiter=",", dtype=np.float64, ndmin=1)
    except ValueError:
        return None
    return values.size if np.isfinite(values).all() else None


def _find_bad_row(path: Path):
    """What is wrong with the first row the matrix reader refuses, in the
    program's words: a cell that is not a finite number, or a row whose cell
    count is not the first row's. Rows are the file's lines, counted from 0;
    a blank line, which the reader skips, is compared with none."""
    first = None
    with open(path) as handle:
        for row, line in enumerate(handle):
            count = _finite_cells(line)
            if count is None:
                for col, cell in enumerate(line.rstrip("\n").split(",")):
                    if _finite_cells(cell) != 1:
                        return f"cell {cell!r} at {path} row {row} column {col} is not a finite number"
            elif count and first is None:
                first = row, count
            elif count and count != first[1]:
                return f"{path} row {row} has {count} cells, row {first[0]} has {first[1]}"
    return None


def _load_matrix(path: Path, n: int, dim: int, view_name: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # the shape check reports it
            mat = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        error = None if np.isfinite(mat).all() else "non-finite values"
    except OSError as exc:
        raise LoadError(f"view {view_name!r}: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        error = exc
    if error is not None:
        problem = _find_bad_row(path) or f"malformed CSV {path}: {error}"
        raise LoadError(f"view {view_name!r}: {problem}")
    if mat.shape != (n, dim):
        raise LoadError(f"view {view_name!r}: {path} has shape {mat.shape}, manifest declares ({n}, {dim})")
    return np.ascontiguousarray(mat)


def load_labels(path, n) -> np.ndarray:
    """One non-negative integer in ASCII digits per non-blank line; with
    ``n`` not None the file must hold exactly ``n`` of them. A ``LoadError``
    names the file."""
    try:
        with open(path, newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise LoadError(f"cannot read labels file {path}: {exc}") from exc
    # lines end at "\n" only and lose only ASCII whitespace (a "\r\n" end
    # too): str.splitlines also splits at U+2028, str.strip also trims U+00A0
    lines = [ln.strip(string.whitespace) for ln in text.split("\n") if ln.strip(string.whitespace)]
    if not lines:
        raise LoadError(f"labels file {path} is empty")
    if n is not None and len(lines) != n:
        raise LoadError(f"labels file {path} has {len(lines)} entries, expected {n}")
    labels = np.empty(len(lines), dtype=np.int64)
    for i, token in enumerate(lines):
        # ASCII digits only: int() also reads "1_0" as 10 and other scripts' digits
        if not (token.isascii() and token.removeprefix("-").isdigit()):
            raise LoadError(f"labels file {path} row {i}: {token!r} is not an integer")
        value = int(token)
        if value < 0:
            raise LoadError(f"labels file {path} row {i}: label {value} out of range (must be >= 0)")
        labels[i] = value
    return labels


def save_labels(path, labels) -> None:
    """The format ``load_labels`` reads, written atomically."""
    write_atomic(path, [("\n".join(str(int(v)) for v in labels) + "\n").encode()])


def save_matrix(path, mat) -> None:
    """A headerless CSV row per row of the 2-D ``mat``, each value ``%.17g``
    (exact round trip, the bytes of ``np.savetxt``), written atomically in
    chunks of about ``_CSV_CHUNK`` values, so no whole file is held in memory."""
    fmt = ",".join(["%.17g"] * mat.shape[1]) + "\n"
    rows = max(1, _CSV_CHUNK // max(mat.shape[1], 1))
    blocks = (mat[i : i + rows].tolist() for i in range(0, mat.shape[0], rows))
    write_atomic(path, ("".join(fmt % tuple(row) for row in block).encode() for block in blocks))


def save_json(path, obj) -> None:
    """Indented JSON with a final newline, written atomically."""
    write_atomic(path, [(json.dumps(obj, indent=2) + "\n").encode()])


def load_json(path, what) -> dict:
    """The JSON object in file ``path``; a ``LoadError`` names ``what`` and
    the file when it cannot be read, is not JSON or holds no object."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise LoadError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise LoadError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not json_fits(obj, "dict"):
        raise LoadError(f"{what} {path} must hold a JSON object")
    return obj


def json_fits(value, kind: str) -> bool:
    """Whether a JSON value is of ``kind``, written as an annotation: ``int``
    (not a bool, not ``2.0``), ``float`` (an int too, if a float64 holds it;
    not NaN or infinite, which JSON lacks), ``str``, ``dict`` (a JSON
    object), ``tuple[K, ...]`` (a JSON list of kind K), any of these
    ``| None``; others raise KeyError."""
    if value is None:
        return kind.endswith(" | None")
    kind = kind.removesuffix(" | None")
    if kind.startswith("tuple["):
        return isinstance(value, list) and all(json_fits(item, kind[6:-6]) for item in value)
    fits = isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)
    return fits and (kind != "float" or _finite(value))


def _finite(number) -> bool:
    """Whether an int or float is a finite float64."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond float64
        return False


def json_field(obj: dict, key: str, kind: str, where: str):
    """``obj[key]`` once it fits ``kind``; a field left out reads as None,
    which only a ``| None`` kind takes. A ``LoadError`` names ``where`` and
    the field."""
    if key not in obj and not kind.endswith(" | None"):
        raise LoadError(f"{where} is missing the required field {key!r}")
    if not json_fits(obj.get(key), kind):
        raise LoadError(f"{where}: {key} must be {kind}, got {obj[key]!r}")
    return obj.get(key)


def json_args(obj: dict, target, where: str) -> dict:
    """``obj`` as keyword arguments of ``target``: its fields are the
    parameters annotated with a JSON kind, those without a default are
    required, and each value must fit its annotation. An unknown field, a
    missing one or a value of another kind raises a ``LoadError`` naming
    ``where`` and the field."""
    params = [p for p in inspect.signature(target).parameters.values() if p.annotation in _JSON_KINDS]
    unknown = sorted(set(obj) - {p.name for p in params})
    if unknown:
        raise LoadError(f"{where} has unknown fields {unknown}")
    missing = [p.name for p in params if p.default is p.empty and p.name not in obj]
    if missing:
        raise LoadError(f"{where} is missing the required fields {missing}")
    return {p.name: json_field(obj, p.name, p.annotation, where) for p in params if p.name in obj}


def check_format_version(obj: dict, where: str) -> None:
    version = json_field(obj, "format_version", "int", where)
    if version != FORMAT_VERSION:
        raise LoadError(f"{where} has format_version {version}, only {FORMAT_VERSION} is supported")


def load_dataset(manifest_path) -> MultiViewDataset:
    """Read a manifest and every matrix it references, validating shapes."""
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path, "manifest")
    where = f"manifest {manifest_path}"
    name = json_field(manifest, "name", "str", where)
    n = json_field(manifest, "n", "int", where)
    if n < 1:
        raise LoadError(f"{where}: n must be >= 1, got {n}")
    likelihood = json_field(manifest, "likelihood", "str | None", where)
    if likelihood is not None and likelihood not in LIKELIHOODS:
        raise LoadError(f"{where}: unknown likelihood {likelihood!r}")
    base = manifest_path.parent
    views = json_field(manifest, "views", "tuple[dict, ...]", where)
    if not views:
        raise LoadError(f"{where}: views must list at least one view")
    entries = []  # (name, path, dim) of each view, all checked before any CSV is read
    for i, view in enumerate(views):
        at = f"{where} view {i}"
        view_name, path = json_field(view, "name", "str", at), json_field(view, "path", "str", at)
        dim = json_field(view, "dim", "int", at)
        if dim < 1:
            raise LoadError(f"{at}: dim must be >= 1, got {dim}")
        entries.append((view_name, base / path, dim))
    labels = json_field(manifest, "labels", "str | None", where)
    return MultiViewDataset(
        name=name,
        view_names=[view_name for view_name, _, _ in entries],
        matrices=[_load_matrix(path, n, dim, view_name) for view_name, path, dim in entries],
        labels=load_labels(base / labels, n) if labels else None,
        likelihood=likelihood,
    )


def normalize(dataset: MultiViewDataset, kind: str) -> MultiViewDataset:
    """Bernoulli: per-feature min-max to [0, 1]. Gaussian: per-feature
    standardization. Constant features map to 0 under either kind. Only a
    raw dataset is taken; an already-normalized one raises ValueError."""
    if kind not in LIKELIHOODS:
        raise ValueError(f"unknown normalization kind {kind!r}")
    if dataset.normalization is not None:
        raise ValueError(f"dataset {dataset.name!r} is already normalized")
    offsets, scales = [], []
    for mat in dataset.matrices:
        if kind == "bernoulli":
            offset = mat.min(axis=0)
            spread = mat.max(axis=0) - offset
        else:
            offset, spread = mat.mean(axis=0), mat.std(axis=0)
        offsets.append(offset)
        scales.append(np.where(spread > 0, 1.0 / np.where(spread > 0, spread, 1.0), 0.0))
    record = NormalizationRecord(offsets, scales)
    return MultiViewDataset(
        name=dataset.name,
        view_names=list(dataset.view_names),
        matrices=record.apply(dataset.matrices),
        labels=None if dataset.labels is None else dataset.labels.copy(),
        likelihood=dataset.likelihood,
        normalization=record,
    )


def batch_iter(n: int, batch_size: int, seed: int, epoch: int, stream=()) -> list[np.ndarray]:
    """Seeded permutation of the ``n`` sample indices chunked into batches;
    the last batch may be short. A pure function of (seed, stream, epoch)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng_for(seed, "batch", *stream, epoch).permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def synth_generate(
    n_clusters: int,
    n_views: int,
    n: int,
    latent_dim: int,
    separation: float,
    view_dims: tuple[int, ...],
    seed: int,
    noise: float = 0.1,
    likelihood: str = "gaussian",
    return_latent: bool = False,
):
    """Cluster labels -> latent Gaussians -> random affine view maps + noise.

    Cluster means are random directions rescaled so the minimum pairwise
    distance equals ``separation`` (all zero when separation is 0). With
    ``return_latent`` the latent draws and means come back too, for tests.
    """
    if likelihood not in LIKELIHOODS:
        raise ValueError(f"likelihood must be one of {LIKELIHOODS}, got {likelihood!r}")
    counts = {"n_clusters": n_clusters, "n_views": n_views, "n": n, "latent_dim": latent_dim}
    n_clusters, n_views, n, latent_dim = (check_int(name, value) for name, value in counts.items())
    view_dims = check_ints("view_dims", view_dims)
    if len(view_dims) != n_views:
        raise ValueError(f"need {n_views} view dims, got {len(view_dims)}")
    lowest = (("n_clusters", n_clusters, 1), ("n_views", n_views, 1), ("n", n, 1), ("latent_dim", latent_dim, 1),
              ("view_dims", min(view_dims, default=1), 1), ("separation", separation, 0), ("noise", noise, 0))
    for name, value, low in lowest:
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    rng = rng_for(seed, "synth")
    labels = rng.integers(0, n_clusters, size=n)
    means = rng.normal(size=(n_clusters, latent_dim))
    if n_clusters > 1:
        gaps = [np.linalg.norm(means[a] - means[b]) for a in range(n_clusters) for b in range(a + 1, n_clusters)]
        means *= separation / min(gaps)
    else:
        means[:] = 0.0
    z = means[labels] + rng.normal(size=(n, latent_dim))
    matrices = []
    for dim in view_dims:
        proj = rng.normal(size=(latent_dim, dim)) / np.sqrt(latent_dim)
        offset = rng.normal(size=dim)
        matrices.append(z @ proj + offset + noise * rng.normal(size=(n, dim)))
    dataset = MultiViewDataset(
        name="synthetic",
        view_names=[f"view{v}" for v in range(n_views)],
        matrices=matrices,
        labels=labels,
        likelihood=likelihood,
    )
    if return_latent:
        return dataset, {"z": z, "means": means}
    return dataset


def save_dataset(dataset: MultiViewDataset, directory) -> Path:
    """Write matrices, labels and manifest; values round-trip exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    views = []
    for name, mat in zip(dataset.view_names, dataset.matrices):
        filename = f"{name}.csv"
        save_matrix(directory / filename, mat)
        views.append({"name": name, "dim": int(mat.shape[1]), "path": filename})
    manifest = {"name": dataset.name, "n": int(dataset.n), "views": views}
    if dataset.likelihood is not None:
        manifest["likelihood"] = dataset.likelihood
    if dataset.labels is not None:
        save_labels(directory / "labels.txt", dataset.labels)
        manifest["labels"] = "labels.txt"
    path = directory / MANIFEST_FILE
    save_json(path, manifest)
    return path
