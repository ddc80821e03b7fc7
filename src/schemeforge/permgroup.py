"""Permutations on {0..n-1}, small-group enumeration, orbit machinery.

A permutation is its image row: an integer array whose entry p is the image
of point p.  Composition convention: p * q applies p first, then q, so the
image row of p * q is q[p].  All group actions here are right actions,
matching that convention (acting by a matrix product M N means acting by M
first).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CLOSURE_CAP, DEFAULT_RELATION_CAP
from .errors import (CapExceeded, NotEnumerated, NotSubgroup, NotTransitive,
                     ParseError)
from .gf import field_for
from .scheme import AssociationScheme, first_members, index_dtype

CLOSURE_SLICE_BYTES = 1 << 24     # products of one closure frontier slice
MUL_TABLE_LIMIT = 4096            # largest group mul_table tabulates
PAIR_SLICE_IMAGES = 4_000_000     # pair codes gathered per pair-orbit slice


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_generator_line(line: str, degree: int | None = None,
                         lineno: int | None = None) -> "np.ndarray | list[list[int]]":
    """One generator: either an image list '2 0 1' or cycles '(0 1 2)(3 4)'.

    An image list returns its image row.  Cycle lines return the raw cycle
    lists because their degree may only be known once the whole file is read.
    """
    text = line.strip()
    if text.startswith("("):
        tail = _CYCLE_RE.sub("", text).strip()
        if tail:
            raise ParseError(f"stray text {tail!r} outside cycles", line=lineno)
        cycles = []
        seen: set[int] = set()
        for body in _CYCLE_RE.findall(text):
            pts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
            try:
                cyc = [int(p) for p in pts]
            except ValueError:
                raise ParseError(f"non-integer point in cycle {body!r}", line=lineno) from None
            if any(p < 0 for p in cyc):
                raise ParseError("cycle points must be non-negative", line=lineno)
            if seen & set(cyc) or len(set(cyc)) != len(cyc):
                raise ParseError("point repeated across cycles", line=lineno)
            seen |= set(cyc)
            if len(cyc) > 1:
                cycles.append(cyc)
        return cycles
    try:
        images = [int(p) for p in text.split()]
    except ValueError:
        raise ParseError(f"expected an image list or cycles, got {text!r}",
                         line=lineno) from None
    if degree is not None and len(images) != degree:
        raise ParseError(f"image list has length {len(images)}, expected {degree}",
                         line=lineno)
    try:
        return _generator_rows([images])[0]
    except ValueError:
        raise ParseError(f"{images} is not a permutation of 0..{len(images) - 1}",
                         line=lineno) from None


def _cycle_images(cycles, degree: int) -> list[int]:
    """Image row of a product of disjoint cycles on the points 0..degree-1."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return images


def parse_generators(text: str, degree: int | None = None) -> np.ndarray:
    """Parse a generator file: one permutation per line, '#' comments
    allowed.  Returns the (k, degree) image rows."""
    raw: list[tuple[int, object]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        raw.append((lineno, parse_generator_line(body, degree=degree, lineno=lineno)))
    if not raw:
        raise ParseError("no generators found")
    inferred = degree
    if inferred is None:
        inferred = 0
        for _, item in raw:
            if isinstance(item, np.ndarray):
                inferred = max(inferred, item.shape[0])
            else:
                inferred = max(inferred, max((p + 1 for c in item for p in c), default=1))
    gens = []
    for lineno, item in raw:
        if isinstance(item, np.ndarray):
            if item.shape[0] != inferred:
                raise ParseError(
                    f"image list of length {item.shape[0]} in a degree-{inferred} file",
                    line=lineno)
            gens.append(item)
        else:
            top = max((p for c in item for p in c), default=-1)
            if top >= inferred:
                raise ParseError(f"cycle point {top} outside 0..{inferred - 1}", line=lineno)
            gens.append(_cycle_images(item, inferred))
    return _generator_rows(gens)


def load_generators(path, degree: int | None = None) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generators(fh.read(), degree=degree)


class PermutationGroup:
    """Generator rows plus, once `closure` has listed them, the image
    matrix: row k holds the images of the points under element k.  Both
    are read-only arrays in the point dtype.

    The generator rows are checked on construction (`_generator_rows`).
    Only `closure` lists the elements, in canonical order: identity first,
    then breadth-first discovery order.  Its search guarantees the list, so
    nothing checks it again.  Elements are found by walking their base
    images through the tables of `_build_levels`, so a product gathers only
    the base images; rows from outside (`rows_to_indices`) are compared in
    full.
    """

    def __init__(self, generators):
        self.generators = _generator_rows(generators)
        self.degree = self.generators.shape[1]
        self._images_matrix: np.ndarray | None = None
        self._levels: list[tuple[int, np.ndarray]] | None = None
        self._inv_array: np.ndarray | None = None
        self._classes: list[list[int]] | None = None
        self._class_of: np.ndarray | None = None

    @property
    def enumerated(self) -> bool:
        return self._images_matrix is not None

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def elements(self) -> np.ndarray:
        """The (order, degree) image matrix; row k is element k."""
        self.require_enumerated()
        return self._images_matrix

    def require_enumerated(self):
        if self._images_matrix is None:
            raise NotEnumerated("operation requires the enumerated element list; "
                                "build the group with closure()")

    def _lookup_levels(self) -> list[tuple[int, np.ndarray]]:
        if self._levels is None:
            self._levels = _build_levels(self.elements)
        return self._levels

    def rows_to_indices(self, rows) -> np.ndarray:
        """Map image rows (..., degree) back to element indices, shaped like
        rows[..., 0].  Raises ValueError for rows that are not integers, rows
        of another degree or a row that is not an element."""
        rows = np.atleast_1d(rows)
        if rows.dtype.kind not in "iu":
            raise ValueError(f"rows must hold integers, got {rows.dtype}")
        if rows.shape[-1] != self.degree:
            raise ValueError(f"rows act on {rows.shape[-1]} points, "
                             f"the group on {self.degree}")
        # taken mod degree any integer row walks; the full compare rejects strays
        found = _walk(self._lookup_levels(), lambda p: rows[..., p] % self.degree)
        if (found < 0).any() or (self.elements[found] != rows).any():
            raise ValueError("row is not an element of this group")
        return found

    # index-level operations

    def inv_array(self) -> np.ndarray:
        if self._inv_array is None:
            imgs = self.elements
            # e^-1 sends p to the point that e sends to p
            self._inv_array = _walk(self._lookup_levels(),
                                    lambda p: np.argmax(imgs == p, axis=1))
        return self._inv_array

    def mul(self, A, B) -> np.ndarray:
        """Index of A * B for broadcast index arrays A and B: a * b (a
        first) sends p to b[a[p]]."""
        A, B = np.asarray(A), np.asarray(B)
        imgs = self.elements
        return _walk(self._lookup_levels(), lambda p: imgs[B, imgs[A, p]])

    def div(self, V, U) -> np.ndarray:
        """Index of U^-1 * V for broadcast index arrays V and U."""
        return self.mul(self.inv_array()[np.asarray(U)], V)

    def mul_table(self) -> np.ndarray:
        """Index-level multiplication table: table[i, j] = index(e_i * e_j),
        int32.  Raises CapExceeded above MUL_TABLE_LIMIT elements."""
        n = self.order
        if n > MUL_TABLE_LIMIT:
            raise CapExceeded(f"multiplication table for {n} elements exceeds "
                              f"limit {MUL_TABLE_LIMIT}")
        return self.mul(np.arange(n)[:, None], np.arange(n)).astype(np.int32)

    def generator_indices(self) -> list[int]:
        return self.rows_to_indices(self.generators).tolist()

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes as sorted index lists, ordered by (size, minimal index).

        The classes are the connected components of the maps
        x -> C_s[x] = index(s^-1 * x * s) over the generators s, joined by
        min_label_components and put in that order by canonical_labels,
        whose labels class_of_array returns.  No multiplication table is
        built.
        """
        if self._classes is None:
            imgs = self.elements
            levels = self._lookup_levels()
            maps = []
            for s in self.generators:
                back = np.argsort(s)        # the image row of s^-1
                # s^-1 * x * s sends p to s[x[s^-1[p]]]
                maps.append(_walk(levels, lambda p: s[imgs[:, back[p]]]))
            labels, _ = canonical_labels(min_label_components(np.arange(self.order), maps))
            labels.flags.writeable = False
            members = np.split(np.argsort(labels, kind="stable"),
                               np.cumsum(np.bincount(labels))[:-1])
            self._class_of = labels
            self._classes = [m.tolist() for m in members]
        return self._classes

    def class_of_array(self) -> np.ndarray:
        """The class id of each element, a read-only int64 array."""
        self.conjugacy_classes()
        return self._class_of

    def __repr__(self):
        size = self.order if self.enumerated else "?"
        return f"PermutationGroup(degree={self.degree}, order={size})"


def _walk(levels, column):
    """Element index, or -1, of the base images column(p) of base points p."""
    code = 0
    for p, table in levels:
        code = table[code, column(p)]
    return code


def _build_levels(imgs: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The (base point, table) levels of the element lookup.

    The base takes the points in order whose image column splits the rows
    further, and always the first, until every row stands alone.  A level's
    table maps (prefix code, image of its point) to the next code, or -1,
    and its last row is all -1; the last level gives the element index.
    The rows are those of `closure`, distinct by construction, so no row
    is checked here.
    """
    n, deg = imgs.shape
    code = np.zeros(n, dtype=np.intp)
    count = 1
    levels = []
    for p in range(deg):
        keys, nxt = np.unique(code * deg + imgs[:, p], return_inverse=True)
        if levels and keys.shape[0] == count:
            continue
        table = np.full((count + 1, deg), -1, dtype=np.intp)
        count = keys.shape[0]
        table[code, imgs[:, p]] = np.arange(n) if count == n else nxt
        levels.append((p, table))
        code = nxt.reshape(n)
        if count == n:
            break
    return levels


def _generator_rows(generators) -> np.ndarray:
    """The generators as a read-only (k, degree) array of image rows in the
    point dtype.  Raises ValueError for no generators, rows of different
    lengths, or a row that is not a permutation of 0..degree-1, naming the
    first such row."""
    rows = [np.asarray(g) for g in generators]
    if not rows:
        raise ValueError("a permutation group needs at least one generator")
    if any(r.ndim != 1 or r.shape != rows[0].shape for r in rows):
        raise ValueError("generators must be image rows of one length")
    S = np.stack(rows)
    if S.dtype.kind not in "iu":
        raise ValueError("generator rows must hold integers")
    deg = S.shape[1]
    bad = np.flatnonzero((np.sort(S, axis=1) != np.arange(deg)).any(axis=1))
    if bad.size:
        shown = np.array2string(S[bad[0]], separator=", ", threshold=16)
        raise ValueError(f"generator row {bad[0]}, {shown}, is not a permutation "
                         f"of 0..{deg - 1}")
    S = S.astype(index_dtype(deg))
    S.flags.writeable = False
    return S


def closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> PermutationGroup:
    """Closure under right multiplication by the generators.

    Element order is deterministic: the identity, then breadth-first
    discovery order, that of a queue that appends each new x * s for x in
    queue order and s in generator order.

    The search is level-synchronous on image rows in the point dtype.  The
    frontier, the elements first reached at the last level, is a
    (k, degree) array taken in slices whose products fill at most
    CLOSURE_SLICE_BYTES.
    One gather S[:, slice] of the generator rows gives every product x * s
    of a slice, in (x, s) order.  Repeats within the slice are dropped by
    np.unique on void row keys with return_index, which keeps first
    occurrences; rows met before, at an earlier level or slice, are
    dropped by searchsorted in the sorted keys of every element so far.
    Raises CapExceeded once the group passes `cap` elements.

    The search guarantees the list the group keeps: row 0 is the identity,
    no row repeats, every x * s is a row and every row is reached from the
    identity.  The returned group holds these rows as they are.
    """
    group = PermutationGroup(generators)
    S = group.generators
    deg = S.shape[1]
    key = np.dtype((np.void, S.itemsize * deg))
    slice_len = max(1, CLOSURE_SLICE_BYTES // S.nbytes)
    frontier = np.arange(deg, dtype=S.dtype)[None, :]
    levels = [frontier]
    known = frontier.view(key).ravel()      # sorted keys of all elements so far
    total = 1
    while frontier.shape[0]:
        found = []
        for start in range(0, frontier.shape[0], slice_len):
            piece = frontier[start:start + slice_len]
            # products[x, s] = S[s][piece[x]], the image row of x * s
            products = np.ascontiguousarray(S[:, piece].swapaxes(0, 1)).reshape(-1, deg)
            keys, first = np.unique(products.view(key).ravel(), return_index=True)
            at = np.searchsorted(known, keys)
            fresh = known[np.minimum(at, known.shape[0] - 1)] != keys
            total += int(np.count_nonzero(fresh))
            if total > cap:
                raise CapExceeded(f"group closure exceeded the cap of {cap} elements")
            known = np.insert(known, at[fresh], keys[fresh])
            found.append(products[np.sort(first[fresh])])
        frontier = np.concatenate(found)
        levels.append(frontier)
    group._images_matrix = np.concatenate(levels)
    group._images_matrix.flags.writeable = False
    return group


# point and pair orbits


def min_label_components(label: np.ndarray, maps) -> np.ndarray:
    """Smallest index in each connected component of the graph that joins
    every x to image[x] for each index array image in maps, and to
    label[x].

    label[x] must be the smallest point of a set holding x that is already
    known to be joined (so label[label] == label); the identity labelling
    starts from singletons.  Each pass hooks the label of x and that of
    image[x], each onto the smaller of the two, then pointer jumping
    flattens the hooks, until no map joins two labels.
    """
    while True:
        lower = label.copy()
        for image in maps:
            moved = label[image]
            np.minimum.at(lower, label, moved)
            np.minimum.at(lower, moved, label)
        while True:
            jumped = lower[lower]
            if np.array_equal(jumped, lower):
                break
            lower = jumped
        if np.array_equal(lower, label):
            return label
        label = lower


def canonical_labels(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel a partition so class 0 holds index 0 and the other classes
    follow in (size, smallest member) order; returns the labels and the
    class count.

    raw holds non-negative class ids no larger than its length.
    """
    sizes = np.bincount(raw)
    firsts = first_members(raw, sizes.shape[0])
    used = np.flatnonzero(sizes)
    rest = used[used != raw[0]]
    rest = rest[np.lexsort((firsts[rest], sizes[rest]))]
    relabel = np.empty(sizes.shape[0], dtype=np.int64)
    relabel[raw[0]] = 0
    relabel[rest] = np.arange(1, rest.shape[0] + 1)
    return relabel[raw], used.shape[0]


def pair_orbits(gen_arrays: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Orbit ids of the diagonal action on pairs, in first-touch order.

    Returns (orbit_id array of length n*n indexed by u*n+v, orbit count).
    Orbit ids increase with the smallest pair code they contain: a cursor
    scans for the smallest unvisited code and floods its orbit.  The flood
    takes the frontier in slices.  For each pair (u, v) of a slice it
    gathers row u of by_row and row v of by_point, the contiguous (point,
    generator) transpose of gen_arrays, and adds them into the image codes
    u^s * n + v^s.  It drops the codes already visited, then deduplicates
    the rest with orbit_id itself as the stamp array: every candidate
    writes -2 minus its position, and the entries that read back their own
    stamp are the distinct new codes.
    """
    by_point = np.ascontiguousarray(np.asarray(gen_arrays, dtype=np.int64).T)
    by_row = by_point * n
    total = n * n
    orbit_id = np.full(total, -1, dtype=np.int64)
    next_id = 0
    cursor = 0
    chunk = 1 << 16
    # the frontier is expanded in slices so the gather stays bounded even
    # when thousands of generators meet a frontier of n^2 scale
    slice_len = max(1, PAIR_SLICE_IMAGES // by_point.shape[1])
    while cursor < total:
        if orbit_id[cursor] >= 0:
            pos = cursor
            while pos < total:
                seg = orbit_id[pos:pos + chunk]
                hits = np.flatnonzero(seg < 0)
                if hits.size:
                    pos += int(hits[0])
                    break
                pos += seg.shape[0]
            cursor = pos
            if cursor >= total:
                break
        orbit_id[cursor] = next_id
        frontier = np.array([cursor], dtype=np.int64)
        while frontier.size:
            parts = []
            for start in range(0, frontier.size, slice_len):
                u, v = np.divmod(frontier[start:start + slice_len], n)
                imgs = by_row[u]
                imgs += by_point[v]
                imgs = imgs.ravel()
                imgs = imgs[orbit_id[imgs] < 0]
                stamps = -2 - np.arange(imgs.shape[0])
                orbit_id[imgs] = stamps
                new = imgs[orbit_id[imgs] == stamps]
                if new.size:
                    orbit_id[new] = next_id
                    parts.append(new)
            if parts:
                frontier = np.concatenate(parts) if len(parts) > 1 else parts[0]
            else:
                frontier = np.empty(0, dtype=np.int64)
        next_id += 1
    return orbit_id, next_id


def orbitals(group: PermutationGroup, n_points: int | None = None) -> AssociationScheme:
    """Scheme of the orbits of a transitive group on ordered pairs of points."""
    n = group.degree
    if n_points is not None and n_points != n:
        raise ValueError(f"group acts on {n} points, not {n_points}")
    if n * n > DEFAULT_RELATION_CAP:
        raise CapExceeded(f"{n}^2 relation entries exceed the cap {DEFAULT_RELATION_CAP}")
    # transitive when the generator maps join every point to 0
    if min_label_components(np.arange(n), group.generators).any():
        raise NotTransitive("orbital scheme requires a transitive action")
    # orbit ids grow with their smallest pair code, so the canonical order
    # (diagonal first, then size, smallest pair) is the order of (size, id)
    labels, count = canonical_labels(pair_orbits(group.generators, n)[0])
    matrix = labels.reshape(n, n).astype(index_dtype(count))
    # the classes are the orbits of a transitive group on pairs
    return AssociationScheme.from_matrix(matrix, source={"kind": "orbitals",
                                                         "certificate": "exact"})


def group_scheme(group: PermutationGroup) -> AssociationScheme:
    """Scheme of a finite group: (x, y) lies in class i when x^-1 y sits in
    the i-th conjugacy class; it reads the class of group.div(V, U).

    The classes are the orbits of G x G on pairs, (x, y) -> (a^-1 x b,
    a^-1 y b), so the source records certificate "exact" next to the
    generators and class_of.
    """
    class_of = group.class_of_array()
    source = {"kind": "group-scheme",
              "generators": group.generators.tolist(),
              "class_of": class_of.tolist(), "certificate": "exact"}
    return AssociationScheme.homogeneous(
        class_of, lambda V, U: class_of[group.div(V, U)], source=source)


# subgroups, cosets, double cosets


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct entries of values, ascending: a plain np.unique without
    its import of numpy.ma."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.shape, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def is_subgroup(group: PermutationGroup, members) -> bool:
    group.require_enumerated()
    idx = _distinct_sorted(np.fromiter(members, dtype=np.int64))
    if idx.size == 0 or idx[0] != 0:
        return False
    inside = np.zeros(group.order, dtype=bool)
    inside[idx] = True
    return bool(inside[group.mul(idx[:, None], idx[None, :])].all())


def stabilizer(group: PermutationGroup, point: int) -> list[int]:
    if not 0 <= point < group.degree:
        raise ValueError(f"point {point} outside 0..{group.degree - 1}")
    return np.flatnonzero(group.elements[:, point] == point).tolist()


@dataclass
class DoubleCosetDecomposition:
    subgroup: tuple[int, ...]
    parts: list[list[int]]
    representatives: list[int]

    @property
    def sizes(self) -> list[int]:
        return [len(p) for p in self.parts]


def double_cosets(group: PermutationGroup, subgroup) -> DoubleCosetDecomposition:
    """Partition of the group into H g H parts, ordered by (size, min index);
    part 0 is H itself."""
    H = sorted(set(int(h) for h in subgroup))
    if not is_subgroup(group, H):
        raise NotSubgroup("double cosets need a subgroup given by element indices")
    H_arr = np.asarray(H)
    seen = np.zeros(group.order, dtype=bool)
    parts = []
    for g in range(group.order):
        if seen[g]:
            continue
        part = _distinct_sorted(group.mul(group.mul(H_arr, g)[:, None], H_arr[None, :]))
        seen[part] = True
        parts.append(part.tolist())
    parts.sort(key=lambda p: (len(p), p[0]))
    if parts[0] != H:
        raise NotSubgroup("double coset containing the identity is not H itself")
    return DoubleCosetDecomposition(tuple(H), parts, [p[0] for p in parts])


@dataclass
class CosetAction:
    """Right-coset permutation representation of G on H\\G... stored with the
    bookkeeping needed to evaluate permutation characters."""

    parent: PermutationGroup
    subgroup: tuple[int, ...]
    group: PermutationGroup          # generators acting on coset points
    coset_of: np.ndarray             # element index -> coset point
    point_reps: list[int]            # coset point -> minimal element index

    @property
    def n_points(self) -> int:
        return len(self.point_reps)

    def fixed_points(self, element_idx) -> np.ndarray:
        """Coset points fixed by each of the broadcast element indices."""
        moved = self.coset_of[self.parent.mul(self.point_reps, np.asarray(element_idx)[..., None])]
        return np.count_nonzero(moved == np.arange(self.n_points), axis=-1)


def coset_action(group: PermutationGroup, subgroup) -> CosetAction:
    """Action of G on the right cosets Hx, points ordered by minimal element."""
    H = sorted(set(int(h) for h in subgroup))
    if not is_subgroup(group, H):
        raise NotSubgroup("coset action needs a subgroup given by element indices")
    H_arr = np.asarray(H)
    coset_of = np.full(group.order, -1, dtype=np.int64)
    reps = []
    for x in range(group.order):
        if coset_of[x] < 0:
            coset_of[group.mul(H_arr, x)] = len(reps)
            reps.append(x)
    moved = coset_of[group.mul(np.asarray(reps)[None, :],
                               np.asarray(group.generator_indices())[:, None])]
    action = PermutationGroup(moved)
    return CosetAction(group, tuple(H), action, coset_of, reps)


# constructors


def cyclic(n: int) -> PermutationGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    return closure([np.roll(np.arange(n), -1)])


def symmetric(n: int) -> PermutationGroup:
    if n < 2:
        return cyclic(1)
    swap = np.arange(n)
    swap[:2] = 1, 0
    return closure([swap, np.roll(np.arange(n), -1)])


def regular_action(group: PermutationGroup) -> PermutationGroup:
    """Generators of G acting on G itself by right translation."""
    return PermutationGroup(group.mul(np.arange(group.order),
                                      np.asarray(group.generator_indices())[:, None]))


def _transvection_mats(spec):
    xs = spec.exp_t[:spec.r].tolist()      # generator^0 .. generator^(r-1)
    return [(1, x, 0, 1) for x in xs] + [(1, 0, x, 1) for x in xs]   # upper, lower


def _projective_perm(spec, mat) -> np.ndarray:
    """The action of mat on the points [1 : t] (index t) and [0 : 1]
    (index q) of the projective line: [x : y] -> [xa + yc : xb + yd]."""
    a, b, c, d = mat
    q = spec.q
    t = np.arange(q)
    u = np.append(spec.add_t[a, spec.mul_t[t, c]], c)
    v = np.append(spec.add_t[b, spec.mul_t[t, d]], d)
    ratio = spec.mul_t[v, spec.inv_t[u]].astype(np.int64)    # v / u
    return np.where(u == 0, q, ratio)


def _vector_perm(spec, mat) -> np.ndarray:
    """The action of mat on the nonzero vectors (u, v), index u*q + v - 1."""
    a, b, c, d = mat
    q = spec.q
    u, v = np.divmod(np.arange(1, q * q), q)
    nu = spec.add_t[spec.mul_t[u, a], spec.mul_t[v, c]].astype(np.int64)
    nv = spec.add_t[spec.mul_t[u, b], spec.mul_t[v, d]]
    return nu * q + nv - 1


def psl2(q: int, cap: int = DEFAULT_CLOSURE_CAP) -> PermutationGroup:
    """PSL(2, q) acting on the q+1 points of the projective line."""
    spec = field_for(q)
    gens = [_projective_perm(spec, m) for m in _transvection_mats(spec)]
    group = closure(gens, cap=cap)
    expected = q * (q * q - 1) // math.gcd(q - 1, 2)
    if group.order != expected:
        raise RuntimeError(
            f"PSL(2,{q}) closure produced {group.order} elements, expected {expected}")
    return group


def sl2(q: int, cap: int = DEFAULT_CLOSURE_CAP) -> PermutationGroup:
    """SL(2, q) acting on the q^2 - 1 nonzero vectors of its natural module."""
    spec = field_for(q)
    gens = [_vector_perm(spec, m) for m in _transvection_mats(spec)]
    group = closure(gens, cap=cap)
    expected = q * (q * q - 1)
    if group.order != expected:
        raise RuntimeError(
            f"SL(2,{q}) closure produced {group.order} elements, expected {expected}")
    return group
