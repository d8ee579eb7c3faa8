"""Instance file ingestion: JSON matrices and a TSPLIB subset.

Supported formats:
  * JSON: {"name": str, "n": int, "matrix": [[...], ...]}.
  * TSPLIB: EDGE_WEIGHT_TYPE EXPLICIT with EDGE_WEIGHT_FORMAT FULL_MATRIX,
    or EUC_2D with a NODE_COORD_SECTION whose node ids run 1..DIMENSION in
    order.  EUC_2D distances follow the nearest-integer convention
    floor(d + 0.5) unless rounding is disabled.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .encoded import DimensionCapError, clipped, encoded_dimension
from .hamiltonian import TspInstance


class InstanceParseError(ValueError):
    """Malformed instance file; carries the offending path and line."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = str(path) if path is not None else ""
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


def parse_instance(path, euclidean_rounding: bool = True) -> TspInstance:
    """Load a TSP instance from a JSON or TSPLIB file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"instance file not found: {path}")
    if path.suffix.lower() == ".json":
        return _parse_json(path)
    return _parse_tsplib(path, euclidean_rounding)


def _as_instance(path, name: str, matrix, line: int | None = None) -> TspInstance:
    try:
        arr = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        # ragged rows, entries that are not numbers, or integers past float64
        raise InstanceParseError(f"matrix is not rows of numbers ({exc})", path, line) from exc
    try:
        return TspInstance(name, arr)
    except ValueError as exc:
        raise InstanceParseError(str(exc), path, line) from exc


def _parse_json(path: Path) -> TspInstance:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"invalid JSON ({exc.msg})", path, exc.lineno) from exc
    except RecursionError:
        raise InstanceParseError("invalid JSON (nested too deeply to parse)", path) from None
    if not isinstance(data, dict):
        raise InstanceParseError("top-level JSON value must be an object", path)
    try:
        matrix = data["matrix"]
    except KeyError:
        raise InstanceParseError('missing "matrix" key', path) from None
    if isinstance(matrix, list):
        _check_cap(path, f"a matrix of {len(matrix)} rows", len(matrix))
    name = str(data.get("name", path.stem))
    n = data.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool)):
        raise InstanceParseError(f'"n" must be a JSON integer, got {clipped(json.dumps(n))}', path)
    for row in matrix if isinstance(matrix, list) else ():
        for value in row if isinstance(row, list) else ():
            # numpy would read the string "1" and the boolean true as distances
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InstanceParseError(
                    f"matrix is not rows of numbers (entry {clipped(json.dumps(value))} "
                    "is not a JSON number)",
                    path,
                )
    inst = _as_instance(path, name, matrix)
    if n is not None and n != inst.n_cities:
        raise InstanceParseError(f'"n" is {n} but the matrix has {inst.n_cities} rows', path)
    return inst


def _check_cap(path: Path, what: str, cities: int) -> None:
    """Raise DimensionCapError, after path and what, when cities' anchored layout is over the cap.

    Each reader runs it as soon as it knows the city count d, before any
    d x d array is built.  The anchored layout fixes one city and has
    (d-1)**(d-1) labels, counted by encoded_dimension, so a huge d costs
    a few multiplications.
    """
    try:
        encoded_dimension(cities - 1, cities - 1)
    except DimensionCapError as exc:
        raise DimensionCapError(f"{path}: {what} needs {exc}") from None


def _read_dimension(path: Path, value: str) -> int:
    """The DIMENSION header's city count, refused when its anchored layout is over the cap.

    Runs when the header line is read, before the sections are parsed.
    """
    try:
        cities = int(value)
    except ValueError:
        raise InstanceParseError(f"bad DIMENSION value {clipped(repr(value))}", path) from None
    if cities < 1:
        raise InstanceParseError(f"DIMENSION must be at least 1, got {clipped(str(cities))}", path)
    _check_cap(path, f"DIMENSION {clipped(str(cities))}", cities)
    return cities


def _parse_tsplib(path: Path, euclidean_rounding: bool) -> TspInstance:
    headers: dict[str, str] = {}
    coords: list[tuple[float, float]] = []
    weights: list[float] = []
    section = None
    section_line = None
    dimension = None

    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line == "EOF":
            section = None
            continue
        upper = line.upper()
        if upper.startswith("NODE_COORD_SECTION"):
            section, section_line = "coords", lineno
            continue
        if upper.startswith("EDGE_WEIGHT_SECTION"):
            section, section_line = "weights", lineno
            continue
        if section == "coords":
            parts = line.split()
            if len(parts) < 3:
                raise InstanceParseError(f"coordinate line needs 3 fields: {line!r}", path, lineno)
            if parts[0] != str(len(coords) + 1):  # the rows follow the listing order
                bad = f"node id {clipped(parts[0])!r} is not {len(coords) + 1}"
                raise InstanceParseError(f"{bad} (ids run 1..DIMENSION in order)", path, lineno)
            try:
                coords.append((float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise InstanceParseError(f"bad coordinate: {line!r}", path, lineno) from exc
            continue
        if section == "weights":
            try:
                weights.extend(float(tok) for tok in line.split())
            except ValueError as exc:
                raise InstanceParseError(f"bad weight entry: {line!r}", path, lineno) from exc
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key, value = key.strip().upper(), value.strip()
            headers[key] = value
            if key == "DIMENSION":
                dimension = _read_dimension(path, value)
            continue
        raise InstanceParseError(f"unrecognized line: {line!r}", path, lineno)

    name = headers.get("NAME", path.stem)
    if dimension is None:
        raise InstanceParseError("missing DIMENSION header", path)

    weight_type = headers.get("EDGE_WEIGHT_TYPE", "").upper()
    if weight_type == "EXPLICIT":
        fmt = headers.get("EDGE_WEIGHT_FORMAT", "").upper()
        if fmt != "FULL_MATRIX":
            raise InstanceParseError(
                f"unsupported EDGE_WEIGHT_FORMAT {fmt!r} (only FULL_MATRIX)", path
            )
        if len(weights) != dimension * dimension:
            raise InstanceParseError(
                f"EDGE_WEIGHT_SECTION has {len(weights)} entries, expected {dimension ** 2}",
                path,
                section_line,
            )
        matrix = np.asarray(weights, dtype=np.float64).reshape(dimension, dimension)
        return _as_instance(path, name, matrix, section_line)
    if weight_type == "EUC_2D":
        if len(coords) != dimension:
            raise InstanceParseError(
                f"NODE_COORD_SECTION has {len(coords)} nodes, expected {dimension}",
                path,
                section_line,
            )
        pts = np.asarray(coords, dtype=np.float64)
        # coordinates near float64's limit give inf or nan distances, which
        # TspInstance refuses as non-finite; numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            matrix = np.sqrt((diff**2).sum(axis=2))
        if euclidean_rounding:
            matrix = np.floor(matrix + 0.5)
        return _as_instance(path, name, matrix, section_line)
    raise InstanceParseError(
        f"unsupported EDGE_WEIGHT_TYPE {weight_type!r} (need EXPLICIT or EUC_2D)", path
    )
