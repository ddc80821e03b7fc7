"""Exception taxonomy shared across the package."""

from __future__ import annotations


class SchemeForgeError(Exception):
    """Base class for every domain error raised by this package."""


# finite field arithmetic

class UnsupportedField(SchemeForgeError):
    """Requested field order is not a supported prime power."""


# Zorn matrices and Paige loops

class CapExceeded(SchemeForgeError):
    """An enumeration would exceed the configured size cap."""


# permutation groups

class NotTransitive(SchemeForgeError):
    """Orbital computation requires a transitive action."""


class NotEnumerated(SchemeForgeError):
    """Operation needs the full element list of the group."""


class NotSubgroup(SchemeForgeError):
    """Supplied element subset is not closed under the group product."""


# loop machinery

class CertificationFailed(SchemeForgeError):
    """Randomized orbit computation failed to certify within its round budget."""


# association schemes

class NotAScheme(SchemeForgeError):
    """Intersection numbers depend on the representative pair."""


class InvalidFusion(SchemeForgeError):
    """Class partition does not induce a valid fused scheme."""


# character tables

class NonCommutative(SchemeForgeError):
    """Intersection matrices do not commute; no common eigenbasis exists."""


class DegenerateCombination(SchemeForgeError):
    """A random combination is unusable (close eigenvalues, a large residual);
    compute_character_table draws another, and raises EigensolverFailure
    when none is usable."""


class EigensolverFailure(SchemeForgeError):
    """Eigen decomposition did not meet the residual tolerance."""


class NonPositiveMultiplicity(SchemeForgeError):
    """Derived multiplicities are not all real and positive."""


class NotGroupScheme(SchemeForgeError):
    """Multiplicities are not perfect squares; table has no group transfer."""


class NotMultiplicityFree(SchemeForgeError):
    """Permutation character has a constituent with multiplicity above one."""


class MismatchWithOrbitalTable(SchemeForgeError):
    """Double-coset table disagrees with the orbital-scheme table."""


class UnsupportedQ(SchemeForgeError):
    """Closed form is only defined for the stated family of field orders."""


# ingestion

class ParseError(SchemeForgeError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
