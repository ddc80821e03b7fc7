"""Character tables of commutative association schemes.

The table P = [p_j(i)] is recovered numerically.  The intersection matrices
B_j commute, so a random positive combination M = sum_j c_j B_j has the
shared eigenvectors of the whole family, one per character, and generically
a simple spectrum.  The rows of P are the eigenvectors of M^T, and every
entry p_j(i) is read as a two-sided Rayleigh quotient of B_j^T with the
matching eigenvector of M as left partner, so its error is quadratic in the
eigenvector error.  The coefficients c_j are drawn uniformly from [1, 2] by
sampling.Sampler, the stdlib random.Random(seed), so a seed fixes the
combination under every numpy version.

Multiplicities come from the first orthogonality relation, and all residual
checks are scale-normalized so that tolerances mean the same thing for a
6-point scheme and a 39000-point one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (DEFAULT_SEED, DEFAULT_TOL_COMPARE, DEFAULT_TOL_EIGEN,
                     DEFAULT_TOL_SQUARE)
from .errors import (DegenerateCombination, EigensolverFailure,
                     MismatchWithOrbitalTable, NonCommutative,
                     NonPositiveMultiplicity, NotGroupScheme,
                     NotMultiplicityFree, ParseError, UnsupportedField,
                     UnsupportedQ)
from .gf import factor_prime_power
from .permgroup import (CosetAction, PermutationGroup, coset_action,
                        double_cosets, group_scheme, orbitals)
from .sampling import Sampler
from .scheme import (AssociationScheme, IntersectionNumbers, intersection_numbers,
                     json_ints, read_labeled_rows)

MAX_TRIES = 20      # random combinations tried before EigensolverFailure


class CharacterTable:
    """P = [p_j(i)] with the valencies on row 0 and p_0(i) = 1 down column 0.
    Entries of P must be finite, valencies positive integers, multiplicities
    positive and finite, and n at least 1; anything else raises ValueError."""

    def __init__(self, P, valencies, multiplicities, n):
        self.P = np.asarray(P, dtype=np.complex128)
        k = np.asarray(valencies, dtype=np.float64)
        self.multiplicities = np.asarray(multiplicities, dtype=np.float64)
        self.n = int(n)
        if self.P.ndim != 2 or self.P.shape[0] != self.P.shape[1]:
            raise ValueError("character table must be square")
        if k.shape != (self.P.shape[0],):
            raise ValueError("one valency per column is required")
        if self.multiplicities.shape != (self.P.shape[0],):
            raise ValueError("one multiplicity per row is required")
        if not np.isfinite(self.P).all():
            raise ValueError("entries of P must be finite")
        if not (np.isfinite(k).all() and (k >= 1).all() and (k == np.round(k)).all()):
            raise ValueError(f"valencies must be positive integers, got {k.tolist()}")
        if not (np.isfinite(self.multiplicities).all() and (self.multiplicities > 0).all()):
            raise ValueError(f"multiplicities must be positive and finite, "
                             f"got {self.multiplicities.tolist()}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        self.valencies = k.astype(np.int64)

    @property
    def d(self) -> int:
        return self.P.shape[0] - 1

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "P": [[{"re": float(z.real), "im": float(z.imag)} for z in row]
                  for row in self.P],
            "valencies": [int(k) for k in self.valencies],
            "multiplicities": [float(m) for m in self.multiplicities],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CharacterTable":
        d, n = (int(json_ints(data.get(key), 0, f"character table {key!r}")) for key in "dn")
        try:
            P = np.array([[complex(cell["re"], cell["im"]) for cell in row]
                          for row in data["P"]], dtype=np.complex128)
            valencies = data["valencies"]
            mults = data["multiplicities"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed character table: {exc}") from None
        if P.shape != (d + 1, d + 1):
            raise ParseError(f"P must be {d + 1} x {d + 1}")
        # numpy would read numbers from strings and booleans too
        for key, values in (("valencies", valencies), ("multiplicities", mults)):
            if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
                raise ParseError(f"character table {key!r} must be a list of numbers")
        table = cls(P, valencies, mults, n)
        # the constructor has refused a valency that is no positive integer;
        # left are the integers written as JSON floats (1.0)
        json_ints(valencies, 1, "character table 'valencies'")
        return table

    def __repr__(self):
        return f"CharacterTable(d={self.d}, n={self.n})"


def multiplicities(P, valencies, n) -> np.ndarray:
    """m_i = n / sum_l |p_l(i)|^2 / k_l, from the first orthogonality relation."""
    P = np.asarray(P, dtype=np.complex128)
    k = np.asarray(valencies, dtype=np.float64)
    denom = (np.abs(P) ** 2 / k).sum(axis=1)
    if np.any(denom <= 0):
        raise NonPositiveMultiplicity("a row of P has nonpositive norm")
    m = n / denom
    if np.any(m <= 0):
        raise NonPositiveMultiplicity("derived multiplicities must be positive")
    return m


def _lead_then_lexicographic(P: np.ndarray, lead: int) -> list[int]:
    """Row order of P: row lead (the valency row) first, the rest in
    lexicographic order of their entries rounded to 6 decimals, real and
    imaginary parts interleaved."""
    others = [i for i in range(P.shape[0]) if i != lead]
    parts = np.stack([P[others].real, P[others].imag], axis=2)
    keys = np.round(parts * 10 ** 6).astype(np.int64).reshape(-1, 2 * P.shape[1])
    return [lead] + [others[int(i)] for i in np.lexsort(keys.T[::-1])]


def _intersection_numbers_of(source) -> IntersectionNumbers:
    """The intersection numbers of a scheme, or the given ones."""
    if isinstance(source, AssociationScheme):
        return intersection_numbers(source)
    if isinstance(source, IntersectionNumbers):
        return source
    raise TypeError("expected an AssociationScheme or IntersectionNumbers")


def compute_character_table(source, seed: int = DEFAULT_SEED,
                            tol_eigen: float = DEFAULT_TOL_EIGEN) -> CharacterTable:
    """Character table of a commutative scheme (or of precomputed
    intersection numbers) by simultaneous diagonalization.

    The rows are the eigenvectors of M^T for a random positive combination
    M = sum_j c_j B_j; each entry p_j(i) is read as the two-sided Rayleigh
    quotient of B_j^T on row i, with the matching eigenvector of M as left
    partner.  A try whose spectra do not pair up, or whose table fails
    verify_candidate_table at 10 tol_eigen, is redrawn with a fresh
    combination, so every returned table passes that check; raises
    EigensolverFailure after MAX_TRIES."""
    inter = _intersection_numbers_of(source)
    if not inter.commutes:
        raise NonCommutative("intersection matrices do not commute; "
                             "the scheme is not commutative")
    k = inter.valencies.astype(np.float64)
    n = inter.n
    d1 = k.shape[0]
    B = inter.tensor.transpose(1, 0, 2).astype(np.float64, order="C")  # B[j] = B_j
    Bt = B.transpose(0, 2, 1).copy()
    rng = Sampler(seed)
    last_error = "no attempts made"
    for _ in range(MAX_TRIES):
        try:
            c = np.array([rng.uniform(1.0, 2.0) for _ in range(d1)])
            M = np.tensordot(c, B, axes=1)
            eigvals, V = np.linalg.eig(M)
            W = _rayleigh_rows(M, Bt, eigvals, V, d1)
            m = multiplicities(W, inter.valencies, n)
            perron = int(np.argmin(np.abs(W - k[None, :]).max(axis=1)))
            rows = _lead_then_lexicographic(W, perron)
            P = W[rows]
            P[:, 0] = 1.0
            table = CharacterTable(P, inter.valencies, m[rows], n)
            report = verify_candidate_table(table, inter, tol=10 * tol_eigen)
            if not report.passed:
                raise DegenerateCombination("; ".join(report.messages))
            return table
        except DegenerateCombination as exc:
            last_error = str(exc)
    raise EigensolverFailure(
        f"no usable random combination after {MAX_TRIES} tries: {last_error}")


def _max_eigen_residual(tensor: np.ndarray, k: np.ndarray, W: np.ndarray) -> float:
    """max over rows i, classes j of |B_j^T w_i - p_j(i) w_i| / (k_j |w_i|),
    with B_j = tensor[:, j, :]."""
    images = W @ tensor.transpose(1, 0, 2)          # [j, i] holds (B_j^T w_i)
    resid = np.linalg.norm(images - W.T[:, :, None] * W, axis=2)
    norms = np.linalg.norm(W, axis=1)
    return float((resid / (np.maximum(k, 1.0)[:, None] * norms)).max())


def _rayleigh_rows(M: np.ndarray, Bt: np.ndarray, eigvals: np.ndarray,
                   V: np.ndarray, d1: int) -> np.ndarray:
    """Table rows from two-sided Rayleigh quotients.

    The rows of P are the eigenvectors of the transposed combination, with
    the eigenvectors of M itself acting as their left partners.  Quotients
    (z^T B_j^T w) / (z^T w) have error quadratic in the eigenvector error,
    so entries stay accurate however far they dwarf the eigenvector noise
    floor."""
    evalsT, WT = np.linalg.eig(M.T)
    pairing = np.abs(evalsT[:, None] - eigvals[None, :]).argmin(axis=1)
    if sorted(pairing.tolist()) != list(range(d1)):
        raise DegenerateCombination("left and right spectra did not pair up")
    Z = V[:, pairing]
    denom = (Z * WT).sum(axis=0)
    if np.abs(denom).min() < 1e-8 * np.abs(Z).max() * np.abs(WT).max():
        raise DegenerateCombination("ill-conditioned eigenvector pairing")
    W = np.empty((d1, d1), dtype=np.complex128)
    for j in range(d1):
        W[:, j] = (Z * (Bt[j] @ WT)).sum(axis=0) / denom
    return W


@dataclass
class OrthogonalityReport:
    passed: bool
    max_residual: float | None      # None when never computed

    def __bool__(self):
        return self.passed


def verify_orthogonality(table: CharacterTable,
                         tol: float = DEFAULT_TOL_COMPARE) -> OrthogonalityReport:
    """Both orthogonality relations with scale-normalized residuals.

    First relation: sum_l p_l(i) conj(p_l(j)) / k_l = (n / m_i) delta_ij,
    normalized by n / sqrt(m_i m_j).  Second: sum_l m_l p_i(l) conj(p_j(l))
    = n k_i delta_ij, normalized by n sqrt(k_i k_j)."""
    P = table.P
    k = table.valencies.astype(np.float64)
    m = table.multiplicities
    n = table.n
    G1 = (P / k[None, :]) @ P.conj().T
    R1 = G1 - np.diag(n / m)
    scale1 = n / np.sqrt(np.outer(m, m))
    r1 = float(np.abs(R1 / scale1).max())
    G2 = (P.T * m[None, :]) @ P.conj()
    R2 = G2 - n * np.diag(k)
    scale2 = n * np.sqrt(np.outer(k, k))
    r2 = float(np.abs(R2 / scale2).max())
    worst = max(r1, r2)
    return OrthogonalityReport(worst <= tol, worst)


@dataclass
class CandidateReport:
    passed: bool
    checks: dict
    max_eigen_residual: float | None   # None when never computed
    orthogonality: OrthogonalityReport
    messages: list = field(default_factory=list)

    def __bool__(self):
        return self.passed


def verify_candidate_table(table: CharacterTable, source=None,
                           tol: float = DEFAULT_TOL_COMPARE) -> CandidateReport:
    """Certify a claimed character table: column 0 all ones, row 0 equal to
    the valencies entry by entry, multiplicities positive and summing to n,
    and both orthogonality relations with the multiplicities the table
    itself carries (so rows and multiplicities cannot be paired wrongly).

    Given a scheme or its intersection numbers as source, the table must
    also match its order and valencies, and every row must be an
    eigenvector of every B_j^T with eigenvalue p_j(i).  Without one the
    eigen relations are not checked and max_eigen_residual is None."""
    checks: dict[str, bool] = {}
    messages: list[str] = []
    P = table.P
    k = table.valencies.astype(np.float64)
    if source is not None:
        inter = _intersection_numbers_of(source)
        checks["shape"] = (table.n == inter.n
                           and np.array_equal(table.valencies, inter.valencies))
        if not checks["shape"]:
            messages.append("table shape, order, or valencies do not match the scheme")
            # the residuals are never computed: None, which JSON writes as null
            return CandidateReport(False, checks, None, OrthogonalityReport(False, None),
                                   messages)
    col0 = float(np.abs(P[:, 0] - 1.0).max())
    checks["unit_column"] = col0 <= tol
    if not checks["unit_column"]:
        messages.append(f"column 0 deviates from 1 by {col0:.2e}")
    row0 = float((np.abs(P[0] - k) / np.maximum(k, 1.0)).max())
    checks["valency_row"] = row0 <= tol
    if not checks["valency_row"]:
        messages.append(f"row 0 deviates from the valencies by {row0:.2e} (relative)")
    eig_res = None
    if source is not None:
        eig_res = _max_eigen_residual(inter.tensor, k, P)
        checks["eigen_relations"] = eig_res <= tol
        if not checks["eigen_relations"]:
            messages.append(f"eigen relation residual {eig_res:.2e} above {tol:.0e}")
    mpos = bool(np.all(table.multiplicities > 0))
    msum = float(abs(table.multiplicities.sum() - table.n))
    checks["multiplicities"] = mpos and msum <= tol * table.n
    if not checks["multiplicities"]:
        messages.append("multiplicities are nonpositive or do not sum to n")
    ortho = verify_orthogonality(table, tol=tol)
    checks["orthogonality"] = ortho.passed
    if not ortho.passed:
        messages.append(f"orthogonality residual {ortho.max_residual:.2e} above {tol:.0e}")
    passed = all(checks.values())
    return CandidateReport(passed, checks, eig_res, ortho, messages)


# closed forms for q = 2^r


def _require_even_prime_power(q: int) -> None:
    try:
        p, _ = factor_prime_power(q)
    except UnsupportedField as exc:
        raise UnsupportedQ(str(exc)) from None
    if p != 2:
        raise UnsupportedQ(f"closed form requires q = 2^r, got q = {q}")


def _snap_near_integers(values: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Round entries that sit within tol of an integer; the closed forms
    produce exact integers polluted only by cosine rounding."""
    rounded = np.round(values.real)
    close = (np.abs(values.real - rounded) < tol) & (np.abs(values.imag) < tol)
    out = values.copy()
    out[close] = rounded[close]
    return out


def _valency_row(q: int, s: int) -> list:
    """(1, s^2 - 1, then q/2 entries s^2 - s, then (q-2)/2 entries s^2 + s)."""
    return [1, s * s - 1] + [s * s - s] * (q // 2) + [s * s + s] * ((q - 2) // 2)


def _closed_form_table(P: np.ndarray, n: int) -> CharacterTable:
    valencies = np.real(P[0]).round().astype(np.int64)
    return CharacterTable(P, valencies,
                          _snap_near_integers(multiplicities(P, valencies, n)), n)


def closed_form_psl2(q: int) -> CharacterTable:
    """Reference character table of the 2-transitive PSL(2, q) group scheme,
    q = 2^r.  Rows and columns: 0, 1, then q/2 of type a, then (q-2)/2 of
    type b.  Valencies (1, q^2-1, q^2-q ..., q^2+q ...); second row
    (1, 0, -q+1, q+1); a-rows (1, -q-1, a_kl, 0); b-rows (1, q-1, 0, b_mn),
    with a_kl = -2q cos(2 pi kl / (q+1)) and b_mn = 2q cos(2 pi mn / (q-1))."""
    _require_even_prime_power(q)
    na, nb = q // 2, (q - 2) // 2
    P = np.zeros((2 + na + nb, 2 + na + nb), dtype=np.complex128)
    P[0] = _valency_row(q, q)
    P[1:, 0] = 1.0
    P[1, 2:2 + na] = -q + 1
    P[1, 2 + na:] = q + 1
    P[2:2 + na, 1] = -q - 1
    P[2 + na:, 1] = q - 1
    for k in range(1, na + 1):
        for l in range(1, na + 1):
            P[1 + k, 1 + l] = -2.0 * q * math.cos(2.0 * math.pi * k * l / (q + 1))
    for m in range(1, nb + 1):
        for l in range(1, nb + 1):
            P[1 + na + m, 1 + na + l] = 2.0 * q * math.cos(2.0 * math.pi * m * l / (q - 1))
    return _closed_form_table(_snap_near_integers(P), q * (q * q - 1))


def closed_form_mstar(q: int) -> CharacterTable:
    """Reference character table of the simple Moufang loop scheme, q = 2^r:
    the q^2-dilation of closed_form_psl2(q).  Off row 0 it is q^2 times
    PSL(2, q)'s table, plus q^2 - 1 on column 1, with column 0 kept at 1.
    Row 0 is PSL(2, q)'s valency rule at s = q^3 in place of q:
    (1, q^6-1, then q/2 entries q^6-q^3, then (q-2)/2 entries q^6+q^3)."""
    P = q * q * closed_form_psl2(q).P
    P[1:, 1] += q * q - 1
    P[:, 0] = 1.0
    P[0] = _valency_row(q, q ** 3)
    return _closed_form_table(P, q ** 3 * (q ** 4 - 1))


# transfer to group character tables


@dataclass
class GroupCharacterTable:
    """Ordinary character table recovered from a group scheme: T[i, j] is
    the value of the i-th irreducible character on the j-th conjugacy
    class, with degrees down column 0 and the trivial character on row 0."""

    T: np.ndarray
    class_sizes: np.ndarray
    degrees: np.ndarray
    order: int

    def column_orthogonality_residual(self) -> float:
        # sum_i T[i,j] conj(T[i,j']) = delta |G| / k_j
        T, k, n = self.T, self.class_sizes.astype(np.float64), float(self.order)
        G = T.conj().T @ T
        expected = np.diag(n / k)
        scale = n / np.sqrt(np.outer(k, k))
        return float(np.abs((G - expected) / scale).max())

    def row_orthogonality_residual(self) -> float:
        # sum_j k_j T[i,j] conj(T[i',j]) = delta |G|
        T, k, n = self.T, self.class_sizes.astype(np.float64), float(self.order)
        G = (T * k[None, :]) @ T.conj().T
        return float(np.abs(G - n * np.eye(T.shape[0])).max() / n)

    def verify(self, tol: float = DEFAULT_TOL_COMPARE) -> bool:
        return (self.column_orthogonality_residual() <= tol
                and self.row_orthogonality_residual() <= tol)


def transfer_to_group_table(table: CharacterTable) -> GroupCharacterTable:
    """T = diag(f) P diag(1/k) with f_i = sqrt(m_i).

    Requires every multiplicity to be a perfect square within DEFAULT_TOL_SQUARE;
    schemes whose relations do not come from conjugacy classes of a group
    fail that test and are rejected."""
    m = table.multiplicities
    f = np.sqrt(m).round()
    bad = np.abs(f * f - m).max()
    if bad > DEFAULT_TOL_SQUARE:
        raise NotGroupScheme(
            f"multiplicities are not perfect squares (worst deviation {bad:.2e}); "
            "the scheme does not come from a group")
    k = table.valencies.astype(np.float64)
    T = (table.P / k[None, :]) * f[:, None]
    return GroupCharacterTable(T, table.valencies.copy(), f.astype(np.int64),
                               table.n)


def group_character_table(group: PermutationGroup, seed: int = DEFAULT_SEED,
                          tol_eigen: float = DEFAULT_TOL_EIGEN) -> GroupCharacterTable:
    """Irreducible characters of a finite group via its conjugacy scheme."""
    table = compute_character_table(group_scheme(group), seed=seed,
                                    tol_eigen=tol_eigen)
    return transfer_to_group_table(table)


# induced trivial characters and double coset parameters


def permutation_character(action: CosetAction) -> np.ndarray:
    """Fixed-point counts of the coset action on conjugacy class
    representatives, i.e. the character of the induced trivial character."""
    reps = [c[0] for c in action.parent.conjugacy_classes()]
    return action.fixed_points(reps).astype(np.float64)


def _constituent_multiplicities(group: PermutationGroup,
                                gct: GroupCharacterTable,
                                theta: np.ndarray) -> np.ndarray:
    """Multiplicity of each irreducible character of gct in the character
    theta, as integers; EigensolverFailure when they are not integral
    within 1e-6."""
    sizes = np.array([len(c) for c in group.conjugacy_classes()],
                     dtype=np.float64)
    raw = (gct.T.conj() * sizes[None, :]) @ theta / group.order
    rounded = np.round(raw.real)
    if np.abs(raw.imag).max() > 1e-6 or np.abs(raw.real - rounded).max() > 1e-6:
        raise EigensolverFailure("constituent multiplicities are not integral")
    return rounded.astype(np.int64)


@dataclass
class GelfandReport:
    passed: bool
    multiplicities: list

    def __bool__(self):
        return self.passed


def gelfand_check(group: PermutationGroup, subgroup,
                  seed: int = DEFAULT_SEED) -> GelfandReport:
    """Whether the induced trivial character is multiplicity-free."""
    action = coset_action(group, subgroup)
    gct = group_character_table(group, seed=seed)
    ints = _constituent_multiplicities(group, gct, permutation_character(action))
    return GelfandReport(bool(np.all((ints == 0) | (ints == 1))), ints.tolist())


@dataclass
class DoubleCosetTable:
    table: CharacterTable
    constituents: list          # rows of the group table that appear
    theta: np.ndarray           # permutation character values
    part_sizes: list
    orbital_match: "MatchResult"


def double_coset_table(group: PermutationGroup, subgroup,
                       seed: int = DEFAULT_SEED,
                       tol: float = DEFAULT_TOL_COMPARE,
                       tol_eigen: float = DEFAULT_TOL_EIGEN) -> DoubleCosetTable:
    """Character table of the coset scheme from group characters alone:
    p_j(i) = (1/|H|) sum_k |H g_j H meet C_k| rho_i(c_k), rho_i running over
    the constituents of the induced trivial character.

    The result is cross-checked against the table computed from the orbital
    scheme of the coset action; disagreement raises MismatchWithOrbitalTable."""
    H = sorted(set(int(h) for h in subgroup))
    action = coset_action(group, H)
    gct = group_character_table(group, seed=seed, tol_eigen=tol_eigen)
    theta = permutation_character(action)
    ints = _constituent_multiplicities(group, gct, theta)
    if np.any(ints > 1):
        raise NotMultiplicityFree(
            "the induced trivial character has a repeated constituent; "
            f"multiplicities {ints.tolist()}")
    selection = np.flatnonzero(ints == 1).tolist()
    dc = double_cosets(group, H)
    if len(selection) != len(dc.parts):
        raise NotMultiplicityFree(
            f"{len(selection)} constituents against {len(dc.parts)} double "
            "cosets; the coset scheme cannot be commutative")
    class_of = group.class_of_array()
    n_classes = len(group.conjugacy_classes())
    counts = np.stack([
        np.bincount(class_of[np.asarray(part)], minlength=n_classes)
        for part in dc.parts]).astype(np.float64)
    h_size = len(H)
    rows = gct.T[selection]                       # characters as rows
    P = (rows @ counts.T) / h_size
    # the trivial character gives the valency row
    perm = _lead_then_lexicographic(P, int(np.argmin(np.abs(rows - 1.0).max(axis=1))))
    P = P[perm]
    valencies = np.array([len(p) // h_size for p in dc.parts], dtype=np.int64)
    mults = gct.degrees[selection][perm].astype(np.float64)
    table = CharacterTable(P, valencies, mults, action.n_points)
    orbital_table = compute_character_table(orbitals(action.group), seed=seed,
                                            tol_eigen=tol_eigen)
    match = compare_tables(table, orbital_table, tol=tol)
    if not match.matched:
        gap = ("no matching within tol" if match.max_diff is None
               else f"best deviation {match.max_diff:.2e}")
        raise MismatchWithOrbitalTable(
            f"double-coset table disagrees with the orbital-scheme table ({gap})")
    return DoubleCosetTable(table, [int(selection[i]) for i in perm], theta,
                            dc.sizes, match)


# table comparison up to simultaneous row and column permutation


@dataclass
class MatchResult:
    matched: bool
    row_perm: np.ndarray | None   # P1[i, j] ~ P2[row_perm[i], col_perm[j]]
    col_perm: np.ndarray | None
    max_diff: float | None

    def __bool__(self):
        return self.matched


def compare_tables(t1: CharacterTable, t2: CharacterTable,
                   tol: float = DEFAULT_TOL_COMPARE) -> MatchResult:
    """Match two tables up to row and column permutation.

    Columns may only map to columns of equal valency; paired rows must agree
    entrywise within tol and carry multiplicities within tol * n of each
    other.  Rows are paired depth first: pairing row i of t1 with row r of
    t2 keeps only the column images on which both rows agree, and a pairing
    that leaves some column without an image is abandoned.  P is
    invertible, so once every row is paired each column has exactly one
    image.  Rows go most constrained first, by the number of rows of t2
    each one fits on its own; a row that fits none rejects the match at once.

    On success max_diff is the largest entrywise deviation under the
    returned permutations.  When some row of t1 fits no row of t2 it is the
    largest, over rows of t1, of the deviation from the closest row of t2
    under that row's own best column map: a finite lower bound on the
    deviation of every matching.  It is None when no finite bound is
    known: for tables of different order, size or valencies, and when
    every row fits on its own but no matching within tol exists."""
    k1, k2 = t1.valencies, t2.valencies
    if t1.d != t2.d or t1.n != t2.n or sorted(k1.tolist()) != sorted(k2.tolist()):
        return MatchResult(False, None, None, None)
    d1 = t1.d + 1
    P1, P2 = t1.P, t2.P
    same_k = k1[:, None] == k2[None, :]
    # row_gap[i, r]: deviation of row i from row r under the column map
    # that suits these two rows best
    row_gap = np.empty((d1, d1))
    for i in range(d1):
        gap = np.abs(P1[i][None, :, None] - P2[:, None, :])
        gap[:, ~same_k] = np.inf
        row_gap[i] = gap.min(axis=2).max(axis=1)
    mdiff = np.abs(t1.multiplicities[:, None] - t2.multiplicities[None, :])
    fits = (row_gap <= tol) & (mdiff <= tol * max(t1.n, 1))
    if not fits.any(axis=1).all():
        return MatchResult(False, None, None, float(row_gap.min(axis=1).max()))
    order = np.argsort(fits.sum(axis=1), kind="stable").tolist()
    sigma = np.full(d1, -1, dtype=np.int64)
    used = np.zeros(d1, dtype=bool)

    def pair(depth: int, images: np.ndarray) -> np.ndarray | None:
        if depth == d1:
            bijective = ((images.sum(axis=0) == 1).all()
                         and (images.sum(axis=1) == 1).all())
            return images.argmax(axis=1) if bijective else None
        i = order[depth]
        for r in np.flatnonzero(fits[i] & ~used).tolist():
            narrowed = images & (np.abs(P1[i][:, None] - P2[r][None, :]) <= tol)
            if not narrowed.any(axis=1).all():
                continue
            sigma[i], used[r] = r, True
            tau = pair(depth + 1, narrowed)
            if tau is not None:
                return tau
            used[r] = False
        return None

    tau = pair(0, same_k)
    if tau is None:
        return MatchResult(False, None, None, None)
    worst = float(np.abs(P1 - P2[sigma][:, tau]).max())
    return MatchResult(True, sigma, tau, worst)


# plain-text, CSV and LaTeX renderings of a table


IMAG_CUTOFF = 1e-12


def format_complex(z: complex, digits: int | None = None) -> str:
    """Render a+bi, dropping the imaginary part when |b| < 1e-12.

    With digits=None the shortest round-tripping float repr is used, which
    keeps CSV exports importable to full precision."""
    re, im = float(z.real), float(z.imag)

    def num(x: float) -> str:
        return repr(x) if digits is None else f"{x:.{digits}g}"

    if abs(im) < IMAG_CUTOFF:
        return num(re)
    sign = "+" if im >= 0 else "-"
    return f"{num(re)}{sign}{num(abs(im))}i"


def parse_complex(cell: str) -> complex:
    text = cell.strip()
    try:
        if text.endswith("i"):
            return complex(text[:-1].replace(" ", "") + "j")
        return complex(float(text))
    except ValueError:
        raise ParseError(f"bad complex entry {cell!r}") from None


def table_to_csv(table: CharacterTable) -> str:
    """Labeled-row CSV; every numeric field round-trips exactly."""
    lines = ["kind,character-table",
             f"n,{table.n}",
             "valencies," + ",".join(str(int(k)) for k in table.valencies),
             "multiplicities," + ",".join(repr(float(m))
                                          for m in table.multiplicities)]
    for row in table.P:
        lines.append("P," + ",".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def table_from_csv(text: str) -> CharacterTable:
    rows = read_labeled_rows(text, "character-table", {
        "n": int, "valencies": lambda f: [int(tok) for tok in f.split(",")],
        "multiplicities": lambda f: [float(tok) for tok in f.split(",")],
        "P": lambda f: [parse_complex(tok) for tok in f.split(",")]}, repeated="P")
    P = rows["P"]
    if any(len(r) != len(P) for r in P):
        raise ParseError("table CSV P rows do not form a square matrix")
    return CharacterTable(np.array(P, dtype=np.complex128), rows["valencies"][0],
                          rows["multiplicities"][0], rows["n"][0])


def table_to_latex(table: CharacterTable, digits: int = 6) -> str:
    """LaTeX array, valency row first, one character per row."""
    cols = "c" * (table.d + 1)
    lines = [r"\left(\begin{array}{" + cols + "}"]
    body = []
    for row in table.P:
        cells = [format_complex(z, digits).replace("i", r"\,i")
                 for z in row]
        body.append(" & ".join(cells))
    lines.append(" \\\\\n".join(body))
    lines.append(r"\end{array}\right)")
    return "\n".join(lines) + "\n"


def table_to_text(table: CharacterTable, digits: int = 6) -> str:
    """Aligned plain-text table: the valency row first, then each character."""
    cells = [[format_complex(z, digits) for z in row] for row in table.P]
    widths = [max(len(cells[i][j]) for i in range(len(cells)))
              for j in range(len(cells))]
    lines = [f"character table: n={table.n}, d={table.d}"]
    for i, row in enumerate(cells):
        tag = "k" if i == 0 else f"{i}"
        lines.append(f"  {tag:>2}  " + "  ".join(c.rjust(w)
                                                 for c, w in zip(row, widths)))
    lines.append("  m   " + "  ".join(f"{m:.6g}"
                                      for m in table.multiplicities))
    return "\n".join(lines) + "\n"
