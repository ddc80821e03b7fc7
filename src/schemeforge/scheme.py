"""Association schemes: relation reads, intersection numbers, axioms, fusion.

Every scheme reads its classes through one reader, classes(V, U): the
class ids of V / U, that is rel(U, V), for point arrays V and U of which at
most one is not a single point.  A relation, a row and a column are each
one read.  Inputs that are matrices (orbital schemes, complete graphs,
CSV, matrix JSON) keep a dense n x n class matrix, read as matrix[U, V],
and write it to JSON.  Loop and group schemes are homogeneous: the reader
finds the class of V / U from the loop or group, and their JSON is the
recipe in their source.  Intersection numbers are counted from
representative pairs; disagreement between representatives is the
definitive signal that the input partition is not a scheme.  An orbital
scheme (its source records certificate "exact": its classes are the
orbits of a transitive group on pairs) has the same counts at every pair
of a class, so they are read from the pairs (0, y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_RELATION_CAP, DEFAULT_SEED
from .errors import CapExceeded, InvalidFusion, NotAScheme, ParseError
from .sampling import Sampler

REPS_PER_CLASS = 3      # rows read, one pair per class each, of a non-orbital scheme
EXHAUSTIVE_LIMIT = 300  # non-orbital schemes up to this size are checked at all pairs
VERIFY_ROWS = 40        # rows verify_scheme_axioms reads of a scheme above 600 points


def index_dtype(count: int):
    """Smallest unsigned dtype that holds the indices 0..count-1: the class
    ids of a scheme with count classes, or the points of a permutation of
    degree count."""
    if count <= 0xFF:
        return np.uint8
    return np.uint16 if count <= 0xFFFF else np.uint32


def first_members(labels: np.ndarray, count: int) -> np.ndarray:
    """The smallest index holding each label 0..count-1, or len(labels) for
    a label that does not occur, in one O(n) pass with no sort."""
    first = np.full(count, labels.shape[0])
    np.minimum.at(first, labels, np.arange(labels.shape[0]))
    return first


class AssociationScheme:
    """Partition of X x X into classes R_0..R_d with R_0 the diagonal, read
    through classes(V, U); built by from_matrix (dense) or homogeneous."""

    def __init__(self, n, d, valencies, transpose_map, classes, matrix=None, source=None):
        self.n = int(n)
        self.d = int(d)
        self.valencies = np.asarray(valencies, dtype=np.int64)
        self.transpose_map = np.asarray(transpose_map, dtype=np.int64)
        if self.valencies.shape != (self.d + 1,):
            raise ValueError("valencies must have one entry per class")
        if self.transpose_map.shape != (self.d + 1,):
            raise ValueError("transpose map must have one entry per class")
        self._classes = classes
        self._matrix = matrix
        self.source = source

    @classmethod
    def from_matrix(cls, matrix, source=None) -> "AssociationScheme":
        """Dense scheme with rel(x, y) = matrix[x, y] and the transpose of a
        class read at its first member in row 0, as homogeneous does.  The
        entries must be non-negative integer class ids; anything else
        raises ValueError."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"relation matrix must be square, got {matrix.shape}")
        if matrix.dtype.kind not in "iu":
            raise ValueError(f"relation matrix entries must be integer class ids, "
                             f"got {matrix.dtype}")
        if matrix.min() < 0:
            raise ValueError(f"relation matrix has a negative class id {matrix.min()}")
        n = matrix.shape[0]
        d = int(matrix.max())
        matrix = matrix.astype(index_dtype(d + 1), copy=False)
        valencies = np.bincount(matrix[0], minlength=d + 1)
        firsts = first_members(matrix[0], d + 1)
        # a class missing from row 0 (no scheme) is its own transpose
        transpose = np.where(firsts < n, np.append(matrix[:, 0], 0)[firsts], np.arange(d + 1))
        return cls(n, d, valencies, transpose, lambda V, U: matrix[U, V],
                   matrix=matrix, source=source)

    @classmethod
    def homogeneous(cls, class_of, classes, source=None) -> "AssociationScheme":
        """Scheme read through classes(V, U), the class ids of V / U, where
        the point 0 is the identity and class_of is the base row: the
        classes of the points, classes(arange(n), 0).  The transpose of
        class h is the class of 0 / y_h for its first member y_h.  class_of
        must be 1-D and non-negative, put point 0 alone in class 0 and use
        every class 0..d; anything else raises ValueError."""
        class_of = np.asarray(class_of, dtype=np.int64)
        if class_of.ndim != 1 or class_of.size == 0 or class_of.min() < 0:
            raise ValueError("class_of must be a nonempty 1-D array of non-negative ids")
        d = int(class_of.max())
        valencies = np.bincount(class_of, minlength=d + 1)
        if class_of[0] != 0 or valencies[0] != 1 or not valencies.all():
            raise ValueError(f"class_of must put point 0 alone in class 0 "
                             f"and use every class 0..{d}")
        transpose = classes(np.int64(0), first_members(class_of, d + 1))
        return cls(class_of.shape[0], d, valencies, transpose, classes, source=source)

    @property
    def orbital(self) -> bool:
        """True when the source records certificate "exact": the classes are
        then the orbits of a transitive group on pairs (the group itself for
        orbitals, Mlt(L) for proved inner orbits of a loop, G x G for the
        conjugacy classes of G)."""
        return isinstance(self.source, dict) and self.source.get("certificate") == "exact"

    # relation access: every read is one call to the reader

    @property
    def is_dense(self) -> bool:
        return self._matrix is not None

    def classes(self, V, U) -> np.ndarray:
        """Class ids of V / U, that is rel(U, V), for V and U of which at
        most one is an array.  A single point outside 0..n-1 raises
        IndexError; an array side holds points of the scheme (rel_row and
        rel_col pass all of them)."""
        for P in (V, U):
            if np.ndim(P) == 0 and not 0 <= P < self.n:
                raise IndexError(f"point {P} is outside 0..{self.n - 1}")
        return self._classes(V, U)

    def rel(self, x: int, y: int) -> int:
        return int(self.classes(np.int64(y), np.int64(x)))

    def rel_row(self, x: int) -> np.ndarray:
        return self.classes(np.arange(self.n), np.int64(x))

    def rel_col(self, y: int) -> np.ndarray:
        return self.classes(np.int64(y), np.arange(self.n))

    def dense_matrix(self) -> np.ndarray:
        """The n x n class matrix.  A homogeneous scheme builds it row by
        row, and refuses above DEFAULT_RELATION_CAP cells."""
        if self._matrix is not None:
            return self._matrix
        if self.n * self.n > DEFAULT_RELATION_CAP:
            raise CapExceeded(f"{self.n}^2 relation entries exceed the cap "
                              f"{DEFAULT_RELATION_CAP}")
        mat = np.empty((self.n, self.n), dtype=index_dtype(self.d + 1))
        for x in range(self.n):
            mat[x] = self.rel_row(x)
        return mat

    def __repr__(self):
        kind = "dense" if self.is_dense else "homogeneous"
        return f"AssociationScheme(n={self.n}, d={self.d}, {kind})"

    # serialization: a dense scheme writes its matrix, a homogeneous one its recipe

    def to_json(self) -> dict:
        body = {"n": self.n, "d": self.d, "valencies": self.valencies.tolist()}
        if self.is_dense:
            body["relations"] = {"matrix": self._matrix.astype(int).tolist()}
        elif self.source is not None:
            body["relations"] = {"source": _plain(self.source)}
        else:
            raise ValueError("homogeneous scheme without a source recipe cannot be serialized")
        return body

    @classmethod
    def from_json(cls, data: dict) -> "AssociationScheme":
        rel = data["relations"]
        if "matrix" not in rel:
            raise ValueError("only matrix-backed scheme JSON can be loaded here")
        built = cls.from_matrix(json_ints(rel["matrix"], 2, "scheme JSON 'relations.matrix'"))
        n, d, valencies = json_header(data)
        if built.n != n or built.d != d:
            raise ValueError("scheme JSON header disagrees with its matrix")
        if built.valencies.tolist() != valencies:
            raise ValueError("scheme JSON valencies disagree with its matrix")
        return built


def _plain(value):
    """A source recipe with its arrays turned into (nested) lists."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def json_ints(value, ndim: int, what: str) -> np.ndarray:
    """A value read from JSON as an ndim-dimensional integer array; floats,
    booleans, ragged lists and a missing value raise ParseError."""
    try:
        array = np.asarray(value)
        if array.dtype.kind in "iu" and array.ndim == ndim:
            # numpy reads a true or false among integers as 1 or 0
            leaves = [value]
            for _ in range(ndim):
                leaves = [x for row in leaves for x in row]
            if not any(type(x) is bool for x in leaves):
                return array
    except ValueError:      # ragged nesting
        pass
    raise ParseError(f"{what} must be integers in {ndim} dimensions")


def json_header(data: dict) -> list:
    """[n, d, valencies] of a scheme JSON, as Python integers."""
    return [json_ints(data.get(key), ndim, f"scheme JSON {key!r}").tolist()
            for key, ndim in (("n", 0), ("d", 0), ("valencies", 1))]


class IntersectionNumbers:
    """The tensor p_ij^h together with the derived matrices B_i.

    tensor[h, i, j] = p_ij^h, so B_i = tensor[:, i, :] has (B_i)[h][j] = p_ij^h.
    """

    def __init__(self, tensor: np.ndarray, valencies: np.ndarray, n: int):
        self.tensor = tensor
        self.valencies = np.asarray(valencies, dtype=np.int64)
        self.n = int(n)

    @property
    def d(self) -> int:
        return self.tensor.shape[0] - 1

    def p(self, i: int, j: int, h: int) -> int:
        return int(self.tensor[h, i, j])

    def B(self, i: int) -> np.ndarray:
        return self.tensor[:, i, :]

    @property
    def b_matrices(self) -> list[np.ndarray]:
        return [self.B(i) for i in range(self.d + 1)]

    @property
    def commutes(self) -> bool:
        """Exact check that all B_i pairwise commute, as p_ij^h = p_ji^h.

        B_i is the matrix of multiplication by A_i on the basis A_0..A_d of
        the Bose-Mesner algebra, so B_i B_j = sum_h p_ij^h B_h, and the B_h
        are independent (B_h A_0 = A_h): the B_i commute exactly when the
        tensor is symmetric in i and j, an O(d^3) compare."""
        return np.array_equal(self.tensor, self.tensor.transpose(0, 2, 1))


def _pair_counts(row: np.ndarray, col: np.ndarray, d: int) -> np.ndarray:
    """[i, j] = #{z : row[z] = i, col[z] = j} for the row of x and column of y."""
    codes = row.astype(np.intp)
    codes *= d + 1
    codes += col
    return np.bincount(codes, minlength=(d + 1) ** 2).reshape(d + 1, d + 1)


def _record_row(tensor: np.ndarray, x: int, classes: np.ndarray,
                cols: np.ndarray, counts: np.ndarray) -> None:
    """Record the counts of the pairs (x, cols[k]), of classes classes[k],
    in counts[k].  The first column of each class not seen before stores
    its counts as p_ij^h; then every column is checked against the counts
    stored for its class, and the first that disagrees raises NotAScheme."""
    first = first_members(classes, tensor.shape[0])
    seen = np.flatnonzero(first < classes.shape[0])
    new = seen[tensor[seen, 0, 0] < 0]
    tensor[new] = counts[first[new]]
    bad = np.flatnonzero((counts != tensor[classes]).any(axis=(1, 2)))
    if bad.size:
        k = int(bad[0])
        raise NotAScheme(
            f"class {int(classes[k])}: intersection numbers at pair "
            f"({x}, {int(cols[k])}) disagree with an earlier representative")


def intersection_numbers(scheme: AssociationScheme) -> IntersectionNumbers:
    """Count p_ij^h from representative pairs of each class.

    Every representative of a class must give identical counts; a mismatch
    raises NotAScheme naming the offending class and pair.  Non-orbital
    schemes with at most EXHAUSTIVE_LIMIT points are checked over all n^2
    pairs.  Every other scheme is read from its first rows, one pair per
    class in each: the first column of the class in that row.  An orbital
    scheme has the same counts at every pair of a class, so rows 0 and 1
    suffice (a count and its cross-check); others read REPS_PER_CLASS
    rows.  In a scheme every row meets every class, so a row that misses
    one raises NotAScheme too.
    """
    d, n = scheme.d, scheme.n
    tensor = np.full((d + 1, d + 1, d + 1), -1, dtype=np.int64)
    if n <= EXHAUSTIVE_LIMIT and not scheme.orbital:
        mat = scheme.dense_matrix().astype(np.int64)
        span = (d + 1) ** 2
        for x in range(n):
            row = mat[x]
            # codes[z, y] encodes the pair (rel(x,z), rel(z,y)); one bincount per row
            codes = row[:, None] * (d + 1) + mat
            flat = (np.arange(n, dtype=np.int64) * span)[None, :] + codes
            counts = np.bincount(flat.ravel(), minlength=n * span).reshape(n, d + 1, d + 1)
            _record_row(tensor, x, row, np.arange(n), counts)
        return IntersectionNumbers(tensor, scheme.valencies, n)

    quota = 2 if scheme.orbital else REPS_PER_CLASS
    rows = [scheme.rel_row(x) for x in range(min(n, quota))]
    for x, row in enumerate(rows):
        first = first_members(row, d + 1)
        if np.any(first == n):
            met = np.flatnonzero(first < n).tolist()
            raise NotAScheme(f"row {x} meets only classes {met} of 0..{d}")
        counts = np.stack([_pair_counts(row, scheme.rel_col(y), d) for y in first])
        _record_row(tensor, x, np.arange(d + 1), first, counts)
    return IntersectionNumbers(tensor, scheme.valencies, n)


@dataclass
class SchemeReport:
    """Outcome of the axiom verification pass."""

    passed: bool
    failures: list[str] = field(default_factory=list)
    intersection: IntersectionNumbers | None = None

    def __bool__(self):
        return self.passed


def verify_scheme_axioms(scheme: AssociationScheme,
                         seed: int = DEFAULT_SEED) -> SchemeReport:
    """Check diagonal class, row regularity, transpose closure and
    representative independence of the intersection numbers, on every row
    up to 600 points and above that on rows 0, 1, 2 and VERIFY_ROWS - 3
    more, distinct ones drawn by sampling.Sampler(seed)."""
    n, d = scheme.n, scheme.d
    k = scheme.valencies
    failures: list[str] = []

    if k[0] != 1:
        failures.append(f"diagonal class has valency {k[0]}, expected 1")
    if int(k.sum()) != n:
        failures.append(f"valencies sum to {int(k.sum())}, expected n={n}")

    if n <= 600:
        rows = range(n)
    else:
        rows = [0, 1, 2] + sorted(Sampler(seed).sample(range(3, n), VERIFY_ROWS - 3))

    class_reps: list[list[tuple[int, int]]] = [[] for _ in range(d + 1)]
    for x in rows:
        row = scheme.rel_row(x)
        if row[x] != 0:
            failures.append(f"rel({x},{x}) = {int(row[x])}, diagonal must be class 0")
            break
        counts = np.bincount(row.astype(np.int64), minlength=d + 1)
        if counts.shape[0] > d + 1 or not np.array_equal(counts[:d + 1], k):
            failures.append(
                f"row {x} class counts {counts.tolist()} differ from valencies {k.tolist()}")
            break
        first = first_members(row, d + 1)
        for h in np.flatnonzero(first < n).tolist():
            if len(class_reps[h]) < 3:
                class_reps[h].append((x, int(first[h])))

    tm = scheme.transpose_map
    perm_ok = sorted(tm.tolist()) == list(range(d + 1))
    if not perm_ok:
        failures.append(f"transpose map {tm.tolist()} is not a permutation of the classes")
    for i in range(d + 1):
        if perm_ok and k[tm[i]] != k[i]:
            failures.append(f"valency of class {i} differs from its transpose {int(tm[i])}")
        for x, y in class_reps[i]:
            back = scheme.rel(y, x)
            if back != tm[i]:
                failures.append(
                    f"rel({y},{x}) = {back} but transpose of class {i} is {int(tm[i])}")
                break

    inter = None
    if not failures:
        try:
            inter = intersection_numbers(scheme)
        except NotAScheme as exc:
            failures.append(str(exc))

    return SchemeReport(passed=not failures, failures=failures, intersection=inter)


def fuse(scheme: AssociationScheme, cells) -> AssociationScheme:
    """Merge classes along a partition of {0..d}; the result must again be a scheme.

    The fused reader maps the base reader's class ids through the cells,
    and a dense scheme fuses to a dense one.  Cell validation (class 0
    isolated, transpose closure, true partition) and the
    representative-independence check of the fused intersection numbers
    all raise InvalidFusion on failure.
    """
    d = scheme.d
    norm = [tuple(sorted(int(c) for c in cell)) for cell in cells]
    flat = [c for cell in norm for c in cell]
    if sorted(flat) != list(range(d + 1)):
        raise InvalidFusion(f"cells {norm} are not a partition of the classes 0..{d}")
    for cell in norm:
        if 0 in cell and cell != (0,):
            raise InvalidFusion("class 0 must remain a singleton cell")
    cell_sets = {cell: set(cell) for cell in norm}
    tm = scheme.transpose_map
    for cell in norm:
        image = frozenset(int(tm[c]) for c in cell)
        if image not in {frozenset(s) for s in cell_sets.values()}:
            raise InvalidFusion(
                f"cell {cell} maps to {sorted(image)} under transposition, "
                "which is not a cell; fused relation would not be transpose-closed")

    norm.sort(key=lambda cell: cell[0])
    remap = np.zeros(d + 1, dtype=index_dtype(len(norm)))
    for new, cell in enumerate(norm):
        remap[list(cell)] = new
    source = {"kind": "fusion", "cells": [list(c) for c in norm], "base": scheme.source}
    base = scheme.classes
    fused = AssociationScheme(
        scheme.n, len(norm) - 1, [scheme.valencies[list(cell)].sum() for cell in norm],
        [remap[tm[cell[0]]] for cell in norm], lambda V, U: remap[base(V, U)],
        matrix=remap[scheme.dense_matrix()] if scheme.is_dense else None, source=source)

    report = verify_scheme_axioms(fused)
    if not report.passed:
        raise InvalidFusion("fused partition is not a scheme: " + "; ".join(report.failures))
    return fused


def complete_graph_scheme(n: int) -> AssociationScheme:
    """Two-class scheme of the complete graph on n points."""
    if n < 2:
        raise ValueError("complete graph scheme needs at least 2 points")
    mat = np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8)
    return AssociationScheme.from_matrix(mat, source={"kind": "complete-graph", "n": n})


def scheme_to_csv(scheme: AssociationScheme) -> str:
    """Labeled-row CSV of the scheme's dense_matrix()."""
    lines = ["kind,scheme",
             f"n,{scheme.n}",
             f"d,{scheme.d}",
             "valencies," + ",".join(str(int(k)) for k in scheme.valencies)]
    for row in scheme.dense_matrix():
        lines.append("R," + ",".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def read_labeled_rows(text: str, kind: str, parsers: dict,
                      repeated: str | None = None) -> dict[str, list]:
    """Fields of a labeled-row CSV: a "kind,<kind>" line and lines
    "label,fields" whose fields parsers[label] parses.  Returns the parsed
    lines of each label in file order.  Another kind, an unknown label, a
    field that does not parse, a label with no line and a second line of a
    label other than `repeated` raise ParseError."""
    found: dict[str, list] = {label: [] for label in parsers}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        label, _, rest = line.partition(",")
        if label == "kind":
            if rest.strip() != kind:
                raise ParseError(f"unexpected kind {rest.strip()!r}", line=lineno)
        elif label not in parsers:
            raise ParseError(f"unknown row label {label!r}", line=lineno)
        elif found[label] and label != repeated:
            raise ParseError(f"second {label!r} row", line=lineno)
        else:
            try:
                found[label].append(parsers[label](rest))
            except ValueError:
                raise ParseError(f"bad numeric field in {label!r} row", line=lineno) from None
    missing = [label for label, lines in found.items() if not lines]
    if missing:
        raise ParseError(f"{kind} CSV has no {', '.join(missing)} rows")
    return found


def _ints(fields: str) -> list[int]:
    return [int(tok) for tok in fields.split(",")]


def scheme_from_csv(text: str) -> AssociationScheme:
    rows = read_labeled_rows(text, "scheme", {"n": int, "d": int, "valencies": _ints,
                                              "R": _ints}, repeated="R")
    built = AssociationScheme.from_matrix(np.asarray(rows["R"]))
    if [built.n, built.d, built.valencies.tolist()] != [
            rows["n"][0], rows["d"][0], rows["valencies"][0]]:
        raise ParseError("scheme CSV header disagrees with its matrix")
    return built
