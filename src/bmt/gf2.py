"""GF(2) linear algebra on int-encoded vectors and point sets.

A vector in GF(2)^n is an int in [0, 2^n); bit i is the coefficient of the
i-th unit vector.  The nonzero vectors 1..2^n-1 are the points of the
projective geometry PG(n-1, 2).  A set of points is an int bitmask whose
bit p is set iff point p belongs to the set; bit 0 is never set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable


def parity(x: int) -> int:
    return x.bit_count() & 1


def dot(w: int, x: int) -> int:
    """Standard bilinear form <w, x> over GF(2)."""
    return (w & x).bit_count() & 1


def mask_points(mask: int) -> list[int]:
    """Set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def points_mask(points: Iterable[int]) -> int:
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


def _eliminate(rows: Iterable[int]) -> dict[int, int]:
    """Gauss-Jordan elimination of int rows: leading bit -> reduced row.

    Every row has a distinct leading bit and that bit is clear in all the
    others.  Callers that carry an augmented part put it in the low bits,
    below the coefficients.
    """
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                v ^= pivots[lead]
            else:
                pivots[lead] = v
                break
    for lead in sorted(pivots):
        v = pivots[lead]
        for other in list(pivots):
            if other != lead and (pivots[other] >> lead) & 1:
                pivots[other] ^= v
    return pivots


def rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced basis of the span, as an ascending tuple.

    Every basis vector has a distinct leading bit and that bit is clear in
    all the others, so equal subspaces always reduce to the same tuple.
    """
    return tuple(sorted(_eliminate(vectors).values()))


def rank(vectors: Iterable[int]) -> int:
    return len(rref(vectors))


def span_members(basis: Iterable[int]) -> int:
    """Bitmask of the nonzero vectors spanned by basis."""
    members = [0]
    for v in basis:
        members += [s ^ v for s in members]
    mask = 0
    for s in members:
        mask |= 1 << s
    return mask & ~1


@dataclass(frozen=True)
class Flat:
    """A linear subspace, kept as dimension, reduced basis, point bitmask."""

    dim: int
    basis: tuple[int, ...]
    members: int

    def contains(self, p: int) -> bool:
        return (self.members >> p) & 1 == 1

    @property
    def size(self) -> int:
        """Number of projective points, 2^dim - 1."""
        return self.members.bit_count()

    def points(self) -> list[int]:
        return mask_points(self.members)


EMPTY_FLAT = Flat(0, (), 0)


def closure(points: Iterable[int], n: int) -> Flat:
    """Smallest flat of PG(n-1, 2) containing the given points."""
    pts = list(points)
    top = 1 << n
    for p in pts:
        if not 1 <= p < top:
            raise ValueError(f"point {p} out of range for dimension {n}")
    basis = rref(pts)
    return Flat(len(basis), basis, span_members(basis))


def functional_kernel(w: int, n: int) -> Flat:
    """The hyperplane {x : <w, x> = 0} of PG(n-1, 2), for w != 0."""
    if not 1 <= w < (1 << n):
        raise ValueError(f"functional {w} out of range for dimension {n}")
    pbit = (w & -w).bit_length() - 1
    vecs = []
    for i in range(n):
        if i == pbit:
            continue
        v = 1 << i
        if (w >> i) & 1:
            v |= 1 << pbit
        vecs.append(v)
    basis = rref(vecs)
    return Flat(n - 1, basis, span_members(basis))


def hyperplane_functional(members: int, n: int) -> int:
    """Functional w whose kernel is the given dim n-1 flat bitmask.

    w is determined by which unit vectors lie inside the flat.
    """
    w = 0
    for i in range(n):
        if not (members >> (1 << i)) & 1:
            w |= 1 << i
    return w


def linear_system_solve(
    rows: Iterable[int], rhs: Iterable[int], n: int
) -> tuple[int | None, tuple[int, ...]]:
    """Solve <row_i, x> = rhs_i over GF(2)^n.

    Returns (least solution or None, reduced kernel basis).  The kernel
    basis is returned even when the system is inconsistent.
    """
    # Each row carries its right-hand side in bit 0, so a pivot there is
    # a row reduced to 0 = 1.
    reduced = _eliminate((row << 1) | (b & 1) for row, b in zip(rows, rhs))
    inconsistent = 0 in reduced
    pivots = {lead - 1: (v >> 1, v & 1) for lead, v in reduced.items() if lead}
    # Kernel: one free vector per non-pivot bit.
    kernel = []
    for i in range(n):
        if i in pivots:
            continue
        v = 1 << i
        for lead, (pv, _) in pivots.items():
            if (pv >> i) & 1:
                v |= 1 << lead
        kernel.append(v)
    kbasis = rref(kernel)
    if inconsistent:
        return None, kbasis
    x = 0
    for lead, (_, t) in pivots.items():
        if t:
            x |= 1 << lead
    # Reduce to the least element of the solution coset.
    for k in sorted(kbasis, reverse=True):
        if (x >> (k.bit_length() - 1)) & 1:
            x ^= k
    return x, kbasis


@dataclass(frozen=True)
class LinearMap:
    """Linear map GF(2)^n_from -> GF(2)^n_to; images[i] is the image of 1<<i."""

    n_from: int
    n_to: int
    images: tuple[int, ...]

    def apply(self, x: int) -> int:
        y = 0
        while x:
            low = x & -x
            x ^= low
            y ^= self.images[low.bit_length() - 1]
        return y

    def apply_mask(self, mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << self.apply(low.bit_length() - 1)
        return out

    def is_invertible(self) -> bool:
        return self.n_from == self.n_to and rank(self.images) == self.n_from


def identity_map(n: int) -> LinearMap:
    return LinearMap(n, n, tuple(1 << i for i in range(n)))


def compose(g: LinearMap, h: LinearMap) -> LinearMap:
    """g after h."""
    if h.n_to != g.n_from:
        raise ValueError("dimension mismatch in composition")
    return LinearMap(h.n_from, g.n_to, tuple(g.apply(im) for im in h.images))


def invert(m: LinearMap) -> LinearMap:
    if m.n_from != m.n_to:
        raise ValueError("only square maps can be inverted")
    n = m.n_from
    # Row i is (images[i] | e_i); reducing the images to the unit vectors
    # turns the low n bits into the inverse's images.
    reduced = _eliminate((im << n) | (1 << i) for i, im in enumerate(m.images))
    if any(lead < n for lead in reduced):
        raise ValueError("map is singular")
    low = (1 << n) - 1
    return LinearMap(n, n, tuple(reduced[n + i] & low for i in range(n)))


def random_invertible_map(n: int, rng: random.Random | int) -> LinearMap:
    if isinstance(rng, int):
        rng = random.Random(rng)
    while True:
        images = tuple(rng.getrandbits(n) for _ in range(n))
        m = LinearMap(n, n, images)
        if m.is_invertible():
            return m


def canonical_form_bits(n: int, bits: int) -> tuple[int, LinearMap]:
    """Least image of the point set under any invertible map, with a map
    achieving it.

    Point sets are ordered by their membership sequence at points 1, 2, ...;
    whichever set contains the first point where they differ comes first.
    The search enumerates preimage bases depth first and keeps only choices
    that are optimal block by block; a node whose next block already loses
    to the best leaf builds no child.  Equivalent branches are pruned with
    automorphisms harvested from equally good leaves, at most 240, each a
    list of 2^n images.  A node closes its candidates under those that fix
    its basis pointwise, which, being linear, fix its span.  It keeps that
    list incrementally: a child inherits the ones that also fix its new
    basis vector, and a node tests only the automorphisms harvested since
    it last looked, against its basis alone.
    """
    full = (1 << (1 << n)) - 2
    if bits == 0 or bits == full:
        return bits, identity_map(n)
    size = 1 << n

    best_blocks: list[int] | None = None
    best_hp: list[int] | None = None
    best_images: list[int] | None = None
    auts: list[list[int]] = []
    aut_keys: set[tuple[int, ...]] = set()
    aut_cap = 240

    def dfs(
        images: list[int],
        hp: list[int],
        rows: list[int],
        spanmask: int,
        blocks: list[int],
        fixing: list[list[int]],
        seen: int,
    ) -> None:
        # hp[q] is the image of q under the chosen preimages; rows[v] holds
        # the absence bits of v ^ hp[q], q = 0 most significant, so rows[u]
        # is the next block if u is chosen and smaller rows compare first.
        # fixing holds the automorphisms among auts[:seen] that fix images.
        nonlocal best_blocks, best_hp, best_images
        depth = len(images)
        if depth == n:
            # Past the parent's cutoff, a leaf that is not better ties.
            if best_blocks is None or blocks < best_blocks:
                best_blocks = list(blocks)
                best_hp = hp[:]
                best_images = images[:]
            elif len(auts) < aut_cap:
                phi = [0] * size
                for q in range(1, size):
                    phi[best_hp[q]] = hp[q]
                key = tuple(phi[1 << i] for i in range(n))
                if key not in aut_keys:
                    aut_keys.add(key)
                    auts.append(phi)
            return
        us = [u for u in range(1, size) if not (spanmask >> u) & 1]
        min_bv = min(rows[u] for u in us)
        blocks.append(min_bv)
        # A child only reaches leaves whose blocks start with these, so
        # the test keeps its answer through the loop below.
        if best_blocks is not None and blocks > best_blocks[: depth + 1]:
            blocks.pop()
            return
        cands = [u for u in us if rows[u] == min_bv]
        width = len(hp)
        covered = 0
        for u in cands:
            if (covered >> u) & 1:
                continue
            fixing += [
                phi for phi in auts[seen:] if all(phi[x] == x for x in images)
            ]
            seen = len(auts)
            block = [u ^ x for x in hp]
            sm = spanmask
            for y in block:
                sm |= 1 << y
            images.append(u)
            child = [(r << width) | rows[v ^ u] for v, r in enumerate(rows)]
            stab = [phi for phi in fixing if phi[u] == u]
            dfs(images, hp + block, child, sm, blocks, stab, seen)
            images.pop()
            covered |= 1 << u
            if fixing:
                frontier = [u]
                while frontier:
                    x = frontier.pop()
                    for phi in fixing:
                        y = phi[x]
                        if not (covered >> y) & 1:
                            covered |= 1 << y
                            frontier.append(y)
        blocks.pop()

    dfs([], [0], [((bits >> v) & 1) ^ 1 for v in range(size)], 0, [], [], 0)
    assert best_hp is not None and best_images is not None
    canon = 0
    for q in range(1, size):
        if (bits >> best_hp[q]) & 1:
            canon |= 1 << q
    return canon, invert(LinearMap(n, n, tuple(best_images)))
