"""Simple binary matroids as point sets in PG(n-1, 2), plus the text format.

A matroid here is just its ground set: a set of nonzero vectors of
GF(2)^n with no repeats, encoded as a bitmask.  Isomorphism means an
invertible linear map carrying one set onto the other.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import FormatError, TheoremViolation
from .gf2 import (
    MAX_DIM,
    Flat,
    LinearMap,
    TranslateWalk,
    Translates,
    canonical_form_bits,
    coset_leaders,
    identity_map,
    linear_system_solve,
    mask_points,
    rref,
    span_members,
    stabilizer,
    xor_translate,
)

# The tags of the classes that census enumerates and samples.
CLASS_TAGS = ("i4tf_nonaffine", "i4tf_affine", "ai4")


class _MatroidFields(NamedTuple):
    n: int
    bits: int


class Matroid(_MatroidFields):
    """Point set of a simple binary matroid, bit p set iff p is an element.

    The fields live in a NamedTuple base, since a NamedTuple's own body
    may not define __new__; the instance __dict__ holds the cached
    properties.
    """

    def __new__(cls, n: int, bits: int) -> Matroid:
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if bits & 1:
            raise ValueError("zero is never an element")
        if not 0 <= bits < (1 << (1 << n)):
            raise ValueError("element out of range for dimension")
        return super().__new__(cls, n, bits)

    @cached_property
    def points(self) -> tuple[int, ...]:
        return tuple(mask_points(self.bits))

    @cached_property
    def translates(self) -> Translates:
        """E + v for each v, each made on first use and kept; the searches
        in detect share it."""
        return Translates(self.bits, self.n)

    @cached_property
    def _affine_witness(self) -> int | None:
        # Solved on first use and kept: check's affine, odd-circuit and
        # chi answers each need it.  Read it through affine_witness.
        if self.bits == 0:
            return 1
        pts = self.points
        w, _ = linear_system_solve(pts, [1] * len(pts), self.n)
        return w

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def contains(self, p: int) -> bool:
        return (self.bits >> p) & 1 == 1

    def __repr__(self) -> str:
        pts = ",".join(str(p) for p in self.points)
        return f"Matroid(n={self.n}, {{{pts}}})"


def from_points(n: int, points: Iterable[int]) -> Matroid:
    bits = 0
    for p in points:
        if not 1 <= p < (1 << n):
            raise ValueError(f"point {p} out of range for dimension {n}")
        if (bits >> p) & 1:
            raise ValueError(f"duplicate point {p}")
        bits |= 1 << p
    return Matroid(n, bits)


def complement(m: Matroid) -> Matroid:
    full = (1 << (1 << m.n)) - 2
    return Matroid(m.n, m.bits ^ full)


def apply_map(g: LinearMap, m: Matroid) -> Matroid:
    """Relabel m by an invertible map on its own space."""
    if g.n_from != m.n or not g.is_invertible():
        raise ValueError("need an invertible map on the matroid's space")
    return Matroid(g.n_to, g.apply_mask(m.bits))


def canonical_form(
    m: Matroid, known: set[tuple[int, ...]] | None = None
) -> tuple[Matroid, LinearMap]:
    """Least isomorphic copy of m, and a map g with apply_map(g, m) equal
    to it.  known is canonical_form_bits's set of forms found at m.n."""
    bits, g = canonical_form_bits(m.n, m.bits, known)
    return Matroid(m.n, bits), g


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _decimal(tok: str) -> int | None:
    # int() alone would also take a sign, spaces, underscores and
    # non-ASCII digits; past its digit limit it raises ValueError.
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def parse_bmat(text: str) -> Matroid:
    """Parse the two line matroid format.

    Line 1: "BMAT1 dim=<n>".  Line 2: either "points=<decimal points,
    one ASCII space between two>" or "bits=<hex, least significant nibble
    first>".
    """
    lines = text.split("\n")
    if len(lines) == 3 and lines[2] == "":
        lines = lines[:2]
    if len(lines) != 2:
        raise FormatError("expected exactly two lines")
    head = lines[0]
    if not head.startswith("BMAT1 dim="):
        raise FormatError(f"bad header: {head!r}")
    n = _decimal(head[len("BMAT1 dim="):])
    if n is None:
        raise FormatError(f"bad dimension in header: {head!r}")
    if not 1 <= n <= MAX_DIM:
        raise FormatError(f"dimension must be between 1 and {MAX_DIM}")
    body = lines[1]
    if body.startswith("points="):
        payload = body[len("points="):]
        bits = 0
        if payload:
            # str.split() would also take runs of spaces, tabs and Unicode
            # spaces; an empty token is a doubled, leading or trailing space.
            for tok in payload.split(" "):
                p = _decimal(tok)
                if p is None:
                    raise FormatError(f"bad point: {tok!r}")
                if not 1 <= p < (1 << n):
                    raise FormatError(f"point {p} out of range for dim {n}")
                if (bits >> p) & 1:
                    raise FormatError(f"duplicate point {p}")
                bits |= 1 << p
    elif body.startswith("bits="):
        payload = body[len("bits="):]
        if not payload:
            raise FormatError("empty bits payload")
        # int() alone would also take a sign, spaces and underscores.
        if not set(payload) <= _HEX_DIGITS:
            raise FormatError(f"bad hex payload: {payload!r}")
        bits = int(payload[::-1], 16)
        if bits & 1:
            raise FormatError("zero is never an element")
        if bits >= (1 << (1 << n)):
            raise FormatError("element out of range for dimension")
    else:
        raise FormatError(f"bad body line: {body!r}")
    return Matroid(n, bits)


def serialize_bmat(m: Matroid) -> str:
    pts = " ".join(str(p) for p in m.points)
    return f"BMAT1 dim={m.n}\npoints={pts}\n"


class RestrictionResult(NamedTuple):
    matroid: Matroid
    embed: LinearMap
    rank_deficient: bool


def induced_restriction(m: Matroid, flat: Flat) -> tuple[Matroid, LinearMap]:
    """Restriction of m to a flat, in the flat's own coordinates.

    Returns the small matroid and the embedding that maps its space back
    into m's space (basis vectors go to the flat's reduced basis).
    """
    if flat.dim < 1:
        raise ValueError("need a flat of dimension at least 1")
    # images[q] is the image of q; it doubles once per basis vector.
    images = [0]
    for b in flat.basis:
        images += [p ^ b for p in images]
    bits = 0
    for q, p in enumerate(images):
        if (m.bits >> p) & 1:
            bits |= 1 << q
    return Matroid(flat.dim, bits), LinearMap(flat.dim, m.n, flat.basis)


def restrict_to_closure(m: Matroid) -> RestrictionResult:
    """Cut m down to the span of its elements (dimension at least 1)."""
    basis = rref(m.points)
    if len(basis) == m.n:
        return RestrictionResult(m, identity_map(m.n), False)
    if m.bits == 0:
        return RestrictionResult(
            Matroid(1, 0), LinearMap(1, m.n, (1,)), m.n > 1
        )
    flat = Flat(len(basis), basis, span_members(basis))
    small, embed = induced_restriction(m, flat)
    return RestrictionResult(small, embed, True)


def affine_witness(m: Matroid) -> int | None:
    """Least functional w with <w, e> = 1 for every element, or None.

    Such a w exists exactly when E lies in an affine hyperplane, i.e. when
    the two color classes 0 and {E} work.  An empty E gets witness 1.
    The system is solved once per Matroid.
    """
    return m._affine_witness


def is_affine(m: Matroid) -> bool:
    return affine_witness(m) is not None


def sumset(a_mask: int, b_mask: int) -> int:
    """All nonzero pairwise sums {a ^ b} of two point sets."""
    out = 0
    for a in mask_points(a_mask):
        out |= xor_translate(b_mask, a)
    return out & ~1


class StabilizerResult(NamedTuple):
    flat: Flat
    translates: tuple[int, ...]


def stabilizer_flat(m: Matroid) -> StabilizerResult:
    """Largest flat U with E a union of U-cosets, plus coset representatives.

    U is W = {w : T + w = T} without 0, for the tile T: E, or E with 0
    when |E| is odd, whose W is that of the complement.  T is a union of
    W-cosets, represented by their least points in ascending order.
    Raises TheoremViolation unless the points off U are exactly the
    pairwise sums between E and its complement.
    """
    n = m.n
    full = (1 << (1 << n)) - 2
    tile = m.bits if m.size % 2 == 0 else m.bits | 1
    members = stabilizer(TranslateWalk(tile, n), n) ^ 1
    basis = rref(mask_points(members))
    flat = Flat(len(basis), basis, members)
    if sumset(m.bits, m.bits ^ full) != full ^ members:
        raise TheoremViolation("cross sums do not match the stabilizer flat")
    return StabilizerResult(flat, tuple(mask_points(tile & coset_leaders(basis, n))))
