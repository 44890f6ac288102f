"""The package's file boundary: CSV tables and JSON documents.

:func:`_opened` is the package's only ``open``; every file failure
raises :class:`InvalidInputError` from there. Floats are written with
``repr``, the shortest decimal string that round-trips the binary value,
so write -> read is lossless and reruns under one seed write
byte-identical files for a given BLAS thread count, with no timestamps or
other environment-dependent content.

Designs travel as bare (d, curve) rows. When every design carries its
(d, A, omega, phi) sinusoid features (generated data), save_dataset writes
them to a ``*_specs.csv`` sidecar next to the design file; loading attaches
it when present, which is what the feature_based kernel family needs.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import SinusoidSpec
from .exceptions import InvalidInputError, check_array
from .spectral import StructureDesign, curve_length

DESIGNS_FILE = "designs.csv"
RESPONSES_FILE = "responses.csv"
TEST_PREFIX = "test_"
SPECS_HEADER = ["d", "A", "omega", "phi"]
TARGET_HEADER = ["strain", "stress"]


def fmt(x) -> str:
    """Shortest round-trip decimal for one float."""
    return repr(float(x))


def check_increasing(strain) -> None:
    """The rule for every strain vector, model grid or target: np.interp
    and the log-strain basis read the levels in order."""
    if np.any(np.diff(strain) <= 0):
        raise InvalidInputError("strain levels must be strictly increasing")


def as_strain_grid(levels) -> np.ndarray:
    s = check_array("strain grid", levels, (None,))
    if s.size < 2:
        raise InvalidInputError("strain grid must be a vector of at least 2 levels")
    if np.any(s <= 0):
        raise InvalidInputError("strain levels must be positive")
    check_increasing(s)
    return s


@dataclass
class Dataset:
    """Designs with their stress responses on a common strain grid; every
    design is a :class:`StructureDesign`."""

    designs: list
    responses: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        self.grid = as_strain_grid(self.grid)
        self.responses = check_array("responses", self.responses, (None, None))
        n, m = self.responses.shape
        if len(self.designs) != n:
            raise InvalidInputError("design count does not match response rows")
        for i, dsn in enumerate(self.designs):
            if not isinstance(dsn, StructureDesign):
                raise InvalidInputError(
                    f"design {i} must be a StructureDesign, got {type(dsn).__name__}")
        if m != self.grid.size:
            raise InvalidInputError("response columns do not match the strain grid")
        if np.any(self.responses <= 0):
            raise InvalidInputError("stresses must be positive")


def _cannot(mode: str, path, exc) -> InvalidInputError:
    verb = "read" if mode == "r" else "write"
    reason = getattr(exc, "strerror", None) or exc  # an OSError's text without the path
    return InvalidInputError(f"cannot {verb} {path}: {reason}")


@contextmanager
def _opened(path, mode: str):
    """UTF-8 text file opened for mode "r" or "w". A missing input raises
    ``missing file: <path>``; any other failure to open, decode, read or
    write raises ``cannot read|write <path>: <reason>``."""
    path = Path(path)
    try:
        with path.open(mode, encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        if mode == "r" and isinstance(exc, FileNotFoundError):
            raise InvalidInputError(f"missing file: {path}") from exc
        raise _cannot(mode, path, exc) from exc


def _floats(path, row, what) -> list[float]:
    try:
        return [float(v) for v in row]
    except ValueError as exc:
        raise InvalidInputError(f"{Path(path).name}: non-numeric {what}") from exc


def _read_table(path, header, cell: str, rows: str):
    """Header row and (rows, width) float body of a CSV table; ``header``, if
    given, is the file's required header, ``cell`` and ``rows`` name a value
    and the rows in messages."""
    path = Path(path)
    with _opened(path, "r") as fh:
        table = [row for row in csv.reader(fh) if row]
    if not table:
        raise InvalidInputError(f"{path.name} is empty")
    head, body = table[0], table[1:]
    if header is not None and head != header:
        raise InvalidInputError(f"{path.name}: expected header {','.join(header)}")
    values = np.empty((len(body), len(head)))
    for i, row in enumerate(body):
        if len(row) != len(head):
            raise InvalidInputError(f"{path.name}: ragged rows: row {i} has "
                                    f"{len(row)} fields; {rows} have {len(head)}")
        values[i] = _floats(path, row, f"{cell} in row {i}")
    return head, values


def _write_table(path, header, body, labels=None) -> None:
    """CSV table: a header row, then one row per row of the float matrix body.

    String header cells are written as they are, numbers through
    :func:`fmt`. The body is formatted in one ``tolist`` and ``repr`` pass,
    which writes exactly what :func:`fmt` writes for each cell. ``labels``,
    when given, is a leading column of strings, one per body row.
    """
    rows = (list(map(repr, row)) for row in np.asarray(body, dtype=float).tolist())
    if labels is not None:
        rows = ([label, *row] for label, row in zip(labels, rows))
    with _opened(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow([v if isinstance(v, str) else fmt(v) for v in header])
        writer.writerows(rows)


def specs_sidecar_path(designs_path) -> Path:
    """designs.csv -> designs_specs.csv next to it."""
    path = Path(designs_path)
    if path.suffix != ".csv":
        raise InvalidInputError(f"expected a .csv design file, got {path.name}")
    return path.with_name(path.stem + "_specs.csv")


def write_designs(path, designs) -> None:
    _write_table(path, ["d"] + [f"x{k}" for k in range(curve_length(designs))],
                 np.column_stack([[dsn.diameter for dsn in designs],
                                  [dsn.curve for dsn in designs]]))


def read_designs(path) -> list[StructureDesign]:
    """Read (d, curve) rows, attaching sinusoid features from the sidecar."""
    path = Path(path)
    header, values = _read_table(path, None, "value", "design rows")
    if header[0] != "d" or len(header) < 2:
        raise InvalidInputError(f"{path.name}: expected header d,x0,...")
    p = len(header) - 1
    if header[1:] != [f"x{k}" for k in range(p)]:
        raise InvalidInputError(f"{path.name}: curve columns must be x0..x{p - 1}")
    features = [None] * len(values)
    sidecar = specs_sidecar_path(path)
    if sidecar.exists():
        specs = read_specs(sidecar)
        if len(specs) != len(values):
            raise InvalidInputError(
                f"{sidecar.name}: {len(specs)} spec rows for {len(values)} designs")
        features = [spec.as_array() for spec in specs]
    return [StructureDesign(diameter=row[0], curve=row[1:], features=f)
            for row, f in zip(values, features)]


def write_specs(path, rows) -> None:
    _write_table(path, SPECS_HEADER, rows)


def read_specs(path) -> list[SinusoidSpec]:
    _, values = _read_table(path, SPECS_HEADER, "value", "spec rows")
    return [SinusoidSpec(*row.tolist()) for row in values]


def write_responses(path, grid, responses) -> None:
    """Header row of strain levels, then one stress row per run."""
    _write_table(path, grid, np.atleast_2d(np.asarray(responses, dtype=float)))


def read_responses(path):
    header, Y = _read_table(path, None, "stress", "response rows")
    return np.array(_floats(path, header, "strain level")), Y


def save_dataset(out_dir, dataset: Dataset, prefix: str = "") -> None:
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot("w", out_dir, exc) from exc
    dpath = out_dir / (prefix + DESIGNS_FILE)
    write_designs(dpath, dataset.designs)
    if all(dsn.features is not None for dsn in dataset.designs):
        write_specs(specs_sidecar_path(dpath), [dsn.features for dsn in dataset.designs])
    write_responses(out_dir / (prefix + RESPONSES_FILE), dataset.grid,
                    dataset.responses)


def load_dataset(in_dir, prefix: str = "") -> Dataset:
    in_dir = Path(in_dir)
    designs = read_designs(in_dir / (prefix + DESIGNS_FILE))
    grid, Y = read_responses(in_dir / (prefix + RESPONSES_FILE))
    return Dataset(designs=designs, responses=Y, grid=grid)


def load_eval_dataset(in_dir) -> Dataset:
    """Prefer the test_* pair when the directory holds both splits."""
    in_dir = Path(in_dir)
    if (in_dir / (TEST_PREFIX + DESIGNS_FILE)).exists():
        return load_dataset(in_dir, prefix=TEST_PREFIX)
    return load_dataset(in_dir)


def write_target(path, strain, stress) -> None:
    _write_table(path, TARGET_HEADER, np.column_stack([strain, stress]))


def read_target(path):
    _, data = _read_table(path, TARGET_HEADER, "value", "strain,stress pairs")
    if data.shape[0] < 2:
        raise InvalidInputError("target needs at least two strain levels")
    strain, stress = data[:, 0], data[:, 1]
    check_increasing(strain)
    return strain, stress


def write_prediction_csv(path, grid, rows) -> None:
    """Prediction table: one block of strain levels per design.

    ``rows`` is a list of (mean, lower, upper) stress triples. Each block
    leads with the known s = 0 boundary row (stress exactly zero there),
    which the model's log-strain basis cannot represent on-grid.
    """
    block = len(grid) + 1
    table = np.zeros((len(rows), block, 4))
    for i, band in enumerate(rows):
        table[i, 1:] = np.column_stack([grid, *band])
    labels = [str(i) for i in range(len(rows)) for _ in range(block)]
    _write_table(path, ["design", "strain", "mean", "lower", "upper"],
                 table.reshape(-1, 4), labels)


def read_json(path) -> dict:
    """The JSON object a file holds."""
    with _opened(path, "r") as fh:
        try:
            doc = json.loads(fh.read())
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{Path(path).name} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{Path(path).name} must hold a JSON object")
    return doc


def write_json(path, obj) -> None:
    """Canonical JSON: sorted keys, repr floats via json's own formatter."""
    with _opened(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
