"""Finite loops: Moufang checks, inner-mapping orbits, and the association
scheme a commutative-by-orbits loop carries.

Elements are integer indices 0..n-1 with the identity at index 0.  A loop
defines its product times and divisions ldiv and rdiv on lifted elements;
LoopStructure derives the index-level mul_vec and divisions from them as
index(op(lift(I), lift(J))).  Only TableLoop holds a table, and checks
that need every product take the n x n grid of mul_vec.  Words of several
products (the sampled Moufang and associativity checks, the per-point
inner maps of a refinement without an invariant) lift each operand once
and turn only the results that are compared or kept back into indices.
For M*(q) a lifted element is its eight digits, so a word pays one unrank
per operand and one rank per result, not one of each per product; for
other loops lifting is the identity.  A round that applies one inner map
to every point goes to the loop's fixed_map_images: M*(q) evaluates the
map, linear in the point's digits, on its 2 q^4 half-basis rows only and
reads each point's image from its half-codes.  blocked runs loop work in
row blocks: BLOCK_PRODUCTS entries for index-level ops and the M*(q)
enumeration, LIFT_BLOCK points for lifted words; M*(q) unranks and reads
its half-code tables in blocks of its own.
The scheme relation is rel(u, v) = class of v / u, where the classes are
the orbits of the inner mapping group Inn(L), the stabilizer of the
identity inside the multiplication group Mlt(L) generated by all left and
right translations.  The scheme is then the orbital scheme of the
transitive group Mlt(L).

Orbits come from a refinement: random inner maps applied to every point
join points into components, and every component lies inside one orbit.
A loop may bound the orbits from above by an invariant partition, a
partition known to be a union of inner orbits.  For the Paige loops M*(q)
that is the trace partition: inner maps fix 1 and preserve the norm
ab - alpha.beta, hence its polar form with 1, the trace a + b (up to sign
for odd q, where elements are taken mod -1).  Each round then applies one
random inner map to all points; once the components refine the invariant
partition with as many classes, both equal the orbit partition, and the
certificate is exact.  A component that crosses two invariant classes, or
a round budget spent short of the count, proves the invariant wrong and
raises CertificationFailed.  Such a loop takes the refinement at every
size.  One without an invariant takes the pair orbits of its translations
up to PAIR_ORBIT_LIMIT points; above that each round gives every point a
random inner map of its own, and a sampled scheme-axioms check certifies
the result once rounds stop merging.  The random inner maps and the
sampled triples of the checks are drawn by sampling.Sampler, the stdlib
random.Random(seed), so a seed fixes them under every numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SEED, MOUFANG_EXHAUSTIVE_LIMIT
from .errors import CapExceeded, CertificationFailed, ParseError
from .permgroup import (PermutationGroup, canonical_labels,
                        min_label_components, pair_orbits)
from .sampling import Sampler
from .scheme import AssociationScheme, verify_scheme_axioms

PAIR_ORBIT_LIMIT = 256      # largest loop the exact pair-orbit policy takes
ROUND_BUDGET = 64           # refinement rounds before the refinement gives up
QUIET_ROUNDS = 3            # rounds in a row without a merge before a sampled check
VERIFY_SEED_OFFSET = 101    # certificate seed offset from the sampling seed
BLOCK_PRODUCTS = 1 << 16    # entries per block of an index-level op or an enumeration
LIFT_BLOCK = 1 << 15        # points per block of a lifted word: checks and refinement


def row_blocks(shape: tuple, block: int) -> list[slice]:
    """Slices along axis 0 of an array of the given shape, each holding at
    most block entries (at least one row)."""
    step = max(1, block // math.prod(shape[1:]))
    return [slice(i, min(i + step, shape[0])) for i in range(0, shape[0], step)]


def blocked(block: int, kernel, *operands):
    """kernel(*operands) over broadcast operands; above block entries, on
    blocks of rows along axis 0 that fill one array (the kernel may add
    trailing axes), so its temporaries stay in cache.  Operands go through
    as given: one that does not vary along axis 0 (a scalar, or a row) goes
    to every block unsliced, and a scalar stays a scalar."""
    shapes = [np.shape(A) for A in operands]
    shape = np.broadcast_shapes(*shapes)
    if math.prod(shape) <= block:
        return kernel(*operands)
    sliced = [len(s) == len(shape) and s[0] > 1 for s in shapes]
    out = None
    for rows in row_blocks(shape, block):
        part = kernel(*(A[rows] if cut else A for A, cut in zip(operands, sliced)))
        if out is None:
            out = np.empty(shape[:1] + part.shape[1:], dtype=part.dtype)
        out[rows] = part
    return out


class LoopStructure:
    """A loop on the indices 0..n-1, given by operations on lifted elements.

    A loop defines times, ldiv and rdiv, the product and divisions on lifted
    elements: ldiv(A, B) solves A * X = B and rdiv(A, B) solves X * B = A.
    lift(I) turns indices into lifted elements and index(A) turns results
    back; both default to the identity, and a loop with a cheaper form
    between products (PaigeLoop: digit rows) defines them.  Equal elements
    have equal indices, so words are compared through index.  Derived here,
    once: mul (python ints) and mul_vec, left_div_vec and right_div_vec
    (broadcast index arrays), each index(op(lift(I), lift(J))) in blocks of
    BLOCK_PRODUCTS entries; right_div_vec(v, u) is v / u.
    """

    n: int

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_vec(i, j))

    def lift(self, I):
        return I

    def times(self, A, B):
        raise NotImplementedError

    def ldiv(self, A, B):
        raise NotImplementedError

    def rdiv(self, A, B):
        raise NotImplementedError

    def index(self, A):
        return A

    def _derived(self, op, I, J) -> np.ndarray:
        return blocked(BLOCK_PRODUCTS,
                       lambda A, B: self.index(op(self.lift(A), self.lift(B))), I, J)

    def mul_vec(self, I, J) -> np.ndarray:
        return self._derived(self.times, I, J)

    def left_div_vec(self, A, B) -> np.ndarray:
        return self._derived(self.ldiv, A, B)

    def right_div_vec(self, A, B) -> np.ndarray:
        return self._derived(self.rdiv, A, B)

    def invariant_partition(self) -> np.ndarray | None:
        """Canonical labels of a partition known to be a union of inner
        orbits, or None; it makes the randomized refinement exact."""
        return None

    def invariant_classes(self, V, U) -> np.ndarray:
        """The invariant_partition() class ids of right_div_vec(V, U), for
        loops whose invariant_partition() is not None: loop_scheme's reader
        on that partition.  At most one of V and U is an array."""
        raise NotImplementedError

    def fixed_map_images(self, word, Z) -> np.ndarray:
        """Indices of word(lift(Z)): one inner map with fixed parameters,
        word, a function of lifted elements, applied to the points Z.  The
        trace-bounded refinement applies one map a round through it, so
        loops whose invariant_partition() is not None define it."""
        raise NotImplementedError

    def scheme_source(self) -> dict:
        """Recipe that rebuilds this loop, kept in the source of its scheme."""
        raise NotImplementedError


class TableLoop(LoopStructure):
    """Loop given by an explicit n x n table over indices 0..n-1."""

    def __init__(self, table):
        report = quasigroup_check(table)
        if not report:
            where = f" at cell {report.cell}" if report.cell is not None else ""
            raise ValueError(f"not a loop table: {report.failure}{where}")
        table = np.asarray(table, dtype=np.int64)
        self.n = table.shape[0]
        self._table = table
        # _ldiv[a, b] = x with a * x = b; _rdiv[a, b] = x with x * b = a
        self._ldiv = np.argsort(table, axis=1)
        self._rdiv = np.argsort(table, axis=0)

    def times(self, I, J):
        return self._table[I, J]

    def ldiv(self, A, B):
        return self._ldiv[A, B]

    def rdiv(self, A, B):
        return self._rdiv[A, B]

    def table(self):
        return self._table

    def scheme_source(self) -> dict:
        """The multiplication table, as an array that to_json turns into
        lists."""
        return {"kind": "loop-scheme", "table": self._table}


@dataclass
class QuasigroupReport:
    """Outcome of quasigroup_check; cell is the first violating (row, col)."""
    passed: bool
    failure: str | None = None
    cell: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.passed


def _first_duplicate(values) -> int | None:
    seen = set()
    for idx, v in enumerate(values.tolist()):
        if v in seen:
            return idx
        seen.add(v)
    return None


def _check_table_cells(table: np.ndarray) -> QuasigroupReport:
    n = table.shape[0]
    bad = (table < 0) | (table >= n)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        return QuasigroupReport(False, f"entry outside 0..{n - 1}",
                                (int(r), int(c)))
    ident = np.arange(n)
    row_bad = (np.sort(table, axis=1) != ident).any(axis=1)
    if row_bad.any():
        r = int(np.flatnonzero(row_bad)[0])
        c = _first_duplicate(table[r])
        return QuasigroupReport(False, "repeated entry in a row", (r, int(c)))
    col_bad = (np.sort(table, axis=0) != ident[:, None]).any(axis=0)
    if col_bad.any():
        c = int(np.flatnonzero(col_bad)[0])
        r = _first_duplicate(table[:, c])
        return QuasigroupReport(False, "repeated entry in a column", (int(r), c))
    if not np.array_equal(table[0], ident):
        c = int(np.flatnonzero(table[0] != ident)[0])
        return QuasigroupReport(False, "row 0 is not the identity", (0, c))
    if not np.array_equal(table[:, 0], ident):
        r = int(np.flatnonzero(table[:, 0] != ident)[0])
        return QuasigroupReport(False, "column 0 is not the identity", (r, 0))
    return QuasigroupReport(True)


def quasigroup_check(table) -> QuasigroupReport:
    """Latin-square property plus the two-sided identity at index 0, of a
    raw n x n table of integers.

    On failure the report carries the first violating cell, scanning
    out-of-range entries, then row duplicates, then column duplicates, then
    the identity row and column.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
        return QuasigroupReport(False, "table must be square and nonempty")
    if table.dtype.kind not in "iu":
        return QuasigroupReport(False, "table must hold integers")
    return _check_table_cells(np.asarray(table, dtype=np.int64))


def parse_loop_table(text: str) -> TableLoop:
    """Loop table file: first line n, then n rows of n indices; '#' comments.

    The table is checked once, by TableLoop; a table that is not a loop
    raises ParseError here, as every other fault of the file does.
    """
    rows: list[tuple[int, list[int]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values = [int(tok) for tok in body.split()]
        except ValueError:
            raise ParseError(f"non-integer token in {body!r}", line=lineno) from None
        rows.append((lineno, values))
    if not rows:
        raise ParseError("empty loop table file")
    header_line, header = rows[0]
    if len(header) != 1 or header[0] < 1:
        raise ParseError("first line must be the order n", line=header_line)
    n = header[0]
    body_rows = rows[1:]
    if len(body_rows) != n:
        raise ParseError(f"expected {n} table rows, found {len(body_rows)}")
    table = np.empty((n, n), dtype=np.int64)
    for r, (lineno, values) in enumerate(body_rows):
        if len(values) != n:
            raise ParseError(f"row has {len(values)} entries, expected {n}", line=lineno)
        if min(values) < 0 or max(values) >= n:
            raise ParseError(f"entry outside 0..{n - 1}", line=lineno)
        table[r] = values
    try:
        return TableLoop(table)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_loop_table(path) -> TableLoop:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_loop_table(fh.read())


def loop_from_group(group: PermutationGroup) -> TableLoop:
    return TableLoop(group.mul_table().astype(np.int64))


def _product_grid(loop: LoopStructure) -> np.ndarray:
    """All n x n products, T[i, j] = i * j, from the loop's mul_vec."""
    Z = np.arange(loop.n)
    return loop.mul_vec(Z[:, None], Z)


# Moufang and associativity checks


def _moufang_identities(m, key, x, y, z):
    """The four equivalent defining identities on one block of triples, in
    turn, as (text, cells where the two sides differ).  m is the product
    and key(w) the value by which two words compare.  Each identity is
    evaluated only when the one before holds, and x*y, y*z and (x*y)*(z*x)
    are evaluated once for all of them: 18 products and 7 keys a triple
    instead of 24 and 8."""
    xy = m(x, y)
    yield ("((x*y)*x)*z = x*(y*(x*z))",
           key(m(m(xy, x), z)) != key(m(x, m(y, m(x, z)))))
    yield ("x*(y*(z*y)) = ((x*y)*z)*y",
           key(m(x, m(y, m(z, y)))) != key(m(m(xy, z), y)))
    yz = m(y, z)
    xy_zx = key(m(xy, m(z, x)))
    yield ("(x*y)*(z*x) = x*((y*z)*x)", xy_zx != key(m(x, m(yz, x))))
    yield ("(x*y)*(z*x) = (x*(y*z))*x", xy_zx != key(m(m(x, yz), x)))


@dataclass
class MoufangReport:
    passed: bool
    mode: str                     # "exhaustive" or "sampled"
    triples_checked: int          # per identity
    counterexample: tuple | None  # (identity text, x, y, z)

    def __bool__(self):
        return self.passed


def _first_violation(loop: LoopStructure, identities, samples: int, seed: int):
    """First triple that breaks one of identities(m, key), as (mode, triples
    checked per identity, (text, x, y, z) or None).

    identities(m, key, X, Y, Z) yields (text, cells where the two sides
    differ) for one block of triples, one identity at a time, and is left
    at the first violation.  Loops of at most MOUFANG_EXHAUSTIVE_LIMIT
    elements are checked at every triple on their product grid, so None is
    then a proof.  Larger ones are checked on seeded random triples in
    blocks of LIFT_BLOCK, each operand lifted once and each compared word
    ranked once.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n = loop.n
    if n <= MOUFANG_EXHAUSTIVE_LIMIT:
        T = _product_grid(loop)
        mode, checked = "exhaustive", n ** 3
        m, key, lift = (lambda a, b: T[a, b]), (lambda w: w), (lambda w: w)
        blocks = [np.ogrid[:n, :n, :n]]
    else:
        mode, checked = "sampled", samples
        m, key, lift = loop.times, loop.index, loop.lift
        rng = Sampler(seed)
        # X, Y and Z drawn in turn for each block, so the stream is fixed by the seed
        takes = (min(LIFT_BLOCK, samples - done) for done in range(0, samples, LIFT_BLOCK))
        blocks = ([rng.indices(n, take) for _ in range(3)] for take in takes)
    for X, Y, Z in blocks:
        for text, bad in identities(m, key, lift(X), lift(Y), lift(Z)):
            if bad.any():
                at = tuple(np.argwhere(bad)[0])
                x, y, z = (int(np.broadcast_to(V, bad.shape)[at]) for V in (X, Y, Z))
                return mode, checked, (text, x, y, z)
    return mode, checked, None


def moufang_check(loop: LoopStructure, samples: int = 100_000,
                  seed: int = DEFAULT_SEED) -> MoufangReport:
    """Check the four Moufang identities, exhaustively for small loops and on
    seeded random triples otherwise; samples below 1 raise ValueError."""
    mode, checked, witness = _first_violation(loop, _moufang_identities, samples, seed)
    return MoufangReport(witness is None, mode, checked, witness)


def _associativity_identity(m, key, x, y, z):
    yield "(x*y)*z = x*(y*z)", key(m(m(x, y), z)) != key(m(x, m(y, z)))


def associativity_counterexample(loop: LoopStructure, samples: int = 20_000,
                                 seed: int = DEFAULT_SEED) -> tuple | None:
    """A triple with (x*y)*z != x*(y*z), or None if none was found.

    Small loops are scanned exhaustively, so None is then a proof of
    associativity; for large loops None only reports a failed search.
    samples below 1 raise ValueError.
    """
    witness = _first_violation(loop, _associativity_identity, samples, seed)[2]
    return None if witness is None else witness[1:]


# inner-mapping orbits


@dataclass
class InnerOrbitReport:
    class_of: np.ndarray
    n_classes: int
    policy: str        # "exact" or "randomized"
    samples: int       # inner-map point applications (randomized only)
    certified: bool    # every returned partition carries a certificate
    certificate: str   # "exact" (proved orbits) or "sampled" (sampled axioms)
    rounds: int        # refinement rounds, each over all n points (randomized only)

    @property
    def class_sizes(self) -> list[int]:
        return np.bincount(self.class_of, minlength=self.n_classes).tolist()


def _inner_orbits_exact(loop: LoopStructure) -> InnerOrbitReport:
    n = loop.n
    if n > PAIR_ORBIT_LIMIT:
        raise CapExceeded(f"the exact policy takes loops of at most {PAIR_ORBIT_LIMIT} "
                          f"elements, this one has {n}; use the randomized policy")
    T = _product_grid(loop)
    # rows of T are the left translations, columns the right ones
    gen_arrays = np.vstack([T, T.T])
    orbit_id, _ = pair_orbits(gen_arrays, n)
    # the orbit of (u, v) meets the fiber {(0, z)} exactly in the inner orbit
    # of v / u, so restricting to pair codes 0..n-1 reads the classes off
    fiber = orbit_id[:n]
    class_of, count = canonical_labels(fiber)
    return InnerOrbitReport(class_of, count, "exact", 0, True, "exact", 0)


def _inner_word(loop: LoopStructure, kind: int, X, Y, P):
    """The lifted images of the lifted points P under T(x), L(x, y) or
    R(x, y) for kind 0, 1 or 2, with x and y lifted as X and Y."""
    t = loop.times
    if kind == 0:
        return loop.ldiv(X, t(P, X))
    XY = t(X, Y)
    if kind == 1:
        return loop.ldiv(XY, t(X, t(Y, P)))
    return loop.rdiv(t(t(P, X), Y), XY)


def _sampled_inner_images(loop: LoopStructure, kind, x, y,
                          Z: np.ndarray) -> np.ndarray:
    """Images of the points Z under T(x), L(x, y) or R(x, y) for kind 0, 1
    or 2.  One map, a scalar kind with scalar x and y, goes to the loop's
    fixed_map_images.  Arrays of kinds, x and y, one entry per point, apply
    a map of its own to each point, on lifted elements in blocks of
    LIFT_BLOCK points, each ranked once."""
    if np.ndim(kind) == 0:
        X, Y = loop.lift(x), loop.lift(y)
        return loop.fixed_map_images(lambda P: _inner_word(loop, kind, X, Y, P), Z)

    def images(kind, x, y, Z):
        W = np.empty(Z.shape, dtype=np.int64)
        for k in range(3):
            mask = kind == k
            lifted = (loop.lift(V[mask]) for V in (x, y, Z))
            W[mask] = loop.index(_inner_word(loop, k, *lifted))
        return W
    return blocked(LIFT_BLOCK, images, kind, x, y, Z)


def _inner_orbits_randomized(loop: LoopStructure, bound: np.ndarray | None,
                             seed: int) -> InnerOrbitReport:
    """Refinement by random inner maps, each round over all n points.

    A round's n point images join components, labelled by their smallest
    point.  With an invariant partition bound (the loop's
    invariant_partition()) a round applies one map (kind T, L or R, uniform
    parameters x, y) to every point, and the loop stops once
    the components refine the invariant with the same class count
    (certificate "exact").  Without one, every point draws its own kind,
    x and y, so a round is n independent samples; after QUIET_ROUNDS
    rounds in a row merge nothing, a sampled scheme-axioms check certifies
    the partition or sends it back to refining (certificate "sampled").
    """
    n = loop.n
    rng = Sampler(seed)
    points = np.arange(n)
    label = points
    count = n
    quiet = checks = 0
    for rounds in range(1, ROUND_BUDGET + 1):
        if bound is not None:
            kind, x, y = rng.randrange(3), rng.randrange(n), rng.randrange(n)
        else:
            kind = rng.indices(3, n)
            x, y = rng.indices(n, 2 * n).reshape(2, n)
        image = _sampled_inner_images(loop, kind, x, y, points)
        label = min_label_components(label, [image])
        merged = count - int(np.count_nonzero(label == points))
        count -= merged
        if bound is not None:
            crossed = np.flatnonzero(bound[label] != bound)
            if crossed.size:
                z = int(crossed[0])
                raise CertificationFailed(
                    f"inner maps join points {int(label[z])} and {z}, which lie "
                    f"in different classes of the invariant partition")
            if count == int(bound.max()) + 1:
                class_of, _ = canonical_labels(label)
                return InnerOrbitReport(class_of, count, "randomized",
                                        rounds * n, True, "exact", rounds)
            continue
        quiet = 0 if merged else quiet + 1
        if quiet < QUIET_ROUNDS:
            continue
        quiet = 0
        class_of, _ = canonical_labels(label)
        candidate = AssociationScheme.homogeneous(
            class_of, lambda V, U: class_of[loop.right_div_vec(V, U)])
        report = verify_scheme_axioms(candidate, seed=seed + VERIFY_SEED_OFFSET + checks)
        checks += 1
        if report.passed:
            return InnerOrbitReport(class_of, count, "randomized", rounds * n,
                                    True, "sampled", rounds)
        # undermerged: the sampled certificate failed, keep refining
    raise CertificationFailed(
        f"inner-orbit refinement reached {count} classes after {ROUND_BUDGET} "
        f"rounds without a certificate")


def inner_orbits(loop: LoopStructure, policy: str = "auto",
                 seed: int = DEFAULT_SEED) -> InnerOrbitReport:
    """Orbits of the inner mapping group on the loop's index set.

    policy "exact" runs a pair-orbit computation under all translations
    (quadratic memory; CapExceeded above PAIR_ORBIT_LIMIT points), and
    "randomized" refines a partition with rounds of random inner maps over
    all points.  "auto" takes the refinement whenever the loop has an
    invariant partition, and otherwise the pair orbits up to
    PAIR_ORBIT_LIMIT points.

    The refinement is exact when the loop has an invariant partition: for
    M*(q) the trace classes, a + b up to sign for odd q, with the identity
    split off.  Inner maps fix 1 and preserve the norm, so each trace class
    is a union of orbits, while joined components lie inside orbits.  Equal
    class counts therefore prove both partitions equal to the orbit
    partition, with no sampling (certificate "exact"), at every q.  A
    component crossing two trace classes, or ROUND_BUDGET rounds without
    reaching their count, raises CertificationFailed.  Loops without an
    invariant (TableLoop) are certified by a sampled scheme-axioms check
    (certificate "sampled").  Both exact routes return the canonical labels
    of the same orbit partition.
    """
    bound = loop.invariant_partition()
    if policy == "auto":
        exact = bound is None and loop.n <= PAIR_ORBIT_LIMIT
        policy = "exact" if exact else "randomized"
    if policy == "exact":
        return _inner_orbits_exact(loop)
    if policy == "randomized":
        return _inner_orbits_randomized(loop, bound, seed)
    raise ValueError(f"unknown inner-orbit policy {policy!r}")


def loop_scheme(loop: LoopStructure, class_of: np.ndarray | None = None,
                seed: int = DEFAULT_SEED) -> AssociationScheme:
    """Homogeneous scheme with rel(u, v) = inner-orbit class of v / u.

    When class_of is the loop's invariant_partition() (for M*(q), the trace
    classes), the scheme reads its classes through loop.invariant_classes,
    which finds the class of v / u without forming it (for M*(q), from the
    polar form of the norm); any other partition, and a loop without an
    invariant, reads class_of at loop.right_div_vec.

    Passing class_of (an array or an InnerOrbitReport) skips the orbit
    computation, inner_orbits(loop, seed=seed), for callers that already
    hold a certified partition.  The source holds the loop's recipe and
    class_of, and a report's certificate.  With an exact certificate the
    classes are the orbits of the transitive group Mlt(L), and
    intersection_numbers reads the scheme from its identity row; a bare
    array gets the representative scan.
    """
    if class_of is None:
        class_of = inner_orbits(loop, seed=seed)
    certificate = None
    if isinstance(class_of, InnerOrbitReport):
        certificate = class_of.certificate
        class_of = class_of.class_of
    class_of = np.asarray(class_of, dtype=np.int64)
    if class_of.shape != (loop.n,):
        raise ValueError("class_of must assign a class to every loop element")
    source = dict(loop.scheme_source(), class_of=class_of.tolist())
    if certificate is not None:
        source["certificate"] = certificate
    bound = loop.invariant_partition()
    on_invariant = bound is not None and np.array_equal(class_of, bound)
    classes = (loop.invariant_classes if on_invariant
               else lambda V, U: class_of[loop.right_div_vec(V, U)])
    return AssociationScheme.homogeneous(class_of, classes, source=source)
