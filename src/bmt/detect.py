"""Witness searches and invariants: triangles, induced independent sets,
induced odd circuits, critical number, and recognizers for the special
shapes the decomposition bottoms out on.

Every search scans candidates in ascending point order, so results are
deterministic for a given input.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from .errors import TheoremViolation
from .gf2 import (
    Flat,
    LinearMap,
    TranslateWalk,
    Translates,
    _LOW,
    coordinate_masks,
    coset_leaders,
    functional_kernel,
    mask_points,
    points_mask,
    rank,
    rref,
    span_members,
    stabilizer,
)
from .matroid import Matroid, affine_witness, is_affine, xor_translate

__all__ = [
    "Witness",
    "affine_witness",
    "is_affine",
    "find_triangle",
    "find_induced_is",
    "find_ai4_violation",
    "find_induced_odd_circuit",
    "i4tf_witness",
    "critical_number",
    "find_doubling_element",
    "recognize_sag",
]


class Witness(NamedTuple):
    """Checkable evidence that a point set fails some freeness property."""

    kind: str
    points: tuple[int, ...]
    param: int | None = None

    def verify(self, m: Matroid) -> bool:
        pts = self.points
        if len(set(pts)) != len(pts) or not all(m.contains(p) for p in pts):
            return False
        if self.kind == "triangle":
            return len(pts) == 3 and pts[0] ^ pts[1] ^ pts[2] == 0
        if self.kind in ("induced_is", "odd_circuit"):
            # k independent points, or an odd circuit: k points of rank
            # k - 1 that sum to 0, k odd.  Either way the points' span
            # meets E in exactly those points.
            k = len(pts)
            circuit = self.kind == "odd_circuit"
            basis = rref(pts)
            if self.param != k or len(basis) != (k - 1 if circuit else k):
                return False
            if circuit and (k % 2 == 0 or functools.reduce(operator.xor, pts, 0)):
                return False
            return span_members(basis) & m.bits == points_mask(pts)
        if self.kind == "ai4_violation":
            if len(pts) != 4 or rank(pts) != 4:
                return False
            total = pts[0] ^ pts[1] ^ pts[2] ^ pts[3]
            return not any(m.contains(total ^ p) for p in pts)
        return False

    def checked(self, m: Matroid) -> Witness:
        """Self, once verify(m) holds; a witness that fails it is a bug in
        the search that produced it and raises TheoremViolation."""
        if not self.verify(m):
            raise TheoremViolation(f"{self.kind} witness {self.points} fails to verify")
        return self


def find_triangle(m: Matroid) -> Witness | None:
    """First pair of elements, in lex order, whose sum is also an element.

    The first pair of a triangle is its two least points, so the witness
    lists the triangle in ascending order.  The partners b of a are the
    points of E and E + a, read off one translate and cut to b > a.
    """
    bits = m.bits
    for a in m.points:
        pair = bits & xor_translate(bits, a) & ~((2 << a) - 1)
        if pair:
            b = (pair & -pair).bit_length() - 1
            return Witness("triangle", (a, b, a ^ b))
    return None


# Pattern tables over all independent 4-subsets of the ambient geometry, in
# lex order, as per-point bitsets over that list: "need"[p] holds the quads
# containing p, "span"[p] the quads whose span holds p outside the quad,
# "trip"[p] the quads with a triple sum equal to p.  "quads" packs the
# quads four bytes each.
_TABLE_DIMS = (4, 5)


@functools.cache
def _quad_tables(n: int) -> dict:
    top = 1 << n
    quads = bytearray()
    sums = bytearray()  # the other eleven span points, triple sums first
    for p1 in range(1, top):
        for p2 in range(p1 + 1, top):
            a = p1 ^ p2
            s2 = (1 << p1) | (1 << p2) | (1 << a)
            for p3 in range(p2 + 1, top):
                if (s2 >> p3) & 1:
                    continue
                b, c, t3 = p1 ^ p3, p2 ^ p3, a ^ p3
                s3 = s2 | (1 << p3) | (1 << b) | (1 << c) | (1 << t3)
                for p4 in range(p3 + 1, top):
                    if (s3 >> p4) & 1:
                        continue
                    t = t3 ^ p4
                    quads += bytes((p1, p2, p3, p4))
                    sums += bytes((
                        t ^ p1, t ^ p2, t ^ p3, t3,
                        a, b, c, p1 ^ p4, p2 ^ p4, p3 ^ p4, t,
                    ))

    # planes[j] maps each byte to its bit j as "1" or "0".
    planes = [bytes(48 + (x >> j & 1) for x in range(256)) for j in range(n)]

    def by_point(recs: bytearray, width: int, cols: range) -> list[int]:
        # Column k of the records holds one point per quad.  Translated by
        # planes[j], it gives bit plane j: the binary digits of the quads
        # whose point there has bit j set; reversed, quad i lands on bit i.
        # Splitting the quads on each plane in turn, by doubling, leaves
        # at index p the quads with p there.
        out = [0] * top
        for k in cols:
            col = recs[k::width]
            split = [(1 << len(col)) - 1]
            for digits in planes:
                plane = int(col.translate(digits)[::-1], 2)
                split = [q & ~plane for q in split] + [q & plane for q in split]
            out = [o | q for o, q in zip(out, split)]
        return out

    trip = by_point(sums, 11, range(4))
    return {
        "need": by_point(quads, 4, range(4)),
        "span": [t | q for t, q in zip(trip, by_point(sums, 11, range(4, 11)))],
        "trip": trip,
        "quads": bytes(quads),
    }


def _first_quad(m: Matroid, avoid: str) -> tuple[int, ...] | None:
    # Least quad inside E with all its `avoid` points off E, at the lowest
    # clear bit of `bad`.  With no such quad that bit lies past the last
    # quad and the slice is empty.
    table = _quad_tables(m.n)
    bad = 0
    for p in range(1, 1 << m.n):
        bad |= table[avoid][p] if (m.bits >> p) & 1 else table["need"][p]
    i = (~bad & (bad + 1)).bit_length() - 1
    return tuple(table["quads"][4 * i : 4 * i + 4]) or None


def _doubling_group(t: Translates | TranslateWalk) -> tuple[int, int]:
    # W = {w : E + w = E} read from E's translates, as a point set with 0,
    # and the least point of each W-coset.  Every map x -> x + L(x), with
    # L linear into W and zero on W, fixes E.  The searches pass a walk,
    # so that their shared table keeps only the translates they read.
    wmask = stabilizer(t, t.n)
    return wmask, coset_leaders(rref(mask_points(wmask ^ 1)), t.n)


def find_induced_is(m: Matroid, s: int) -> Witness | None:
    """Least s elements that are independent and span no other element.

    None when s > n, since no s points of an n-dimensional space are
    independent; s < 2 raises ValueError.

    A DFS over ascending choices: it meets s-sets in lex order, so the
    first witness it finds is the least one.  A node keeps the elements y
    above its last choice with y + v off E for every v in the span of the
    choices; E + v is entry v of E's translates table.

    Each choice but the last is the least point of its coset of
    W = {w : E + w = E}, and the least witness is still found first.
    Take a candidate x off span + W.  Some map x -> x + L(x), L linear
    into W and zero on W and on the choices, fixes E and the choices and
    carries x to any point of x + W, so unless x is the least point
    there, each witness through x has a lex smaller image that is also a
    witness.  A candidate x on span + W is a choice c plus some w != 0
    in W, and no witness goes through it: a later element z puts
    z + w = z + c + x in the span and on E, so the set would be closed
    under + w, and such a set of three or more elements is dependent.
    With W = {0} every candidate is a least point.
    """
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    if s > m.n:
        return None
    if s == 4 and m.n in _TABLE_DIMS:
        quad = _first_quad(m, "span")
        return Witness("induced_is", quad, 4) if quad else None
    t = m.translates
    _, leaders = _doubling_group(TranslateWalk(m.bits, m.n))
    chosen: list[int] = []

    # allowed: the elements above the last choice that may join; span:
    # the span of the choices, 0 first.
    def rec(allowed: int, span: list[int]) -> bool:
        depth = len(chosen)
        cands = allowed & leaders
        while cands:
            low = cands & -cands
            cands ^= low
            allowed &= -(low << 1)
            if allowed.bit_count() < s - 1 - depth:
                return False
            x = low.bit_length() - 1
            excluded = 0
            for v in span:
                excluded |= t[v ^ x]
            rest = allowed & ~excluded
            if depth == s - 2:
                if rest:
                    chosen.extend((x, (rest & -rest).bit_length() - 1))
                    return True
                continue
            chosen.append(x)
            if rec(rest, span + [v ^ x for v in span]):
                return True
            chosen.pop()
        return False

    if rec(m.bits, [0]):
        return Witness("induced_is", tuple(chosen), s)
    return None


def find_ai4_violation(m: Matroid) -> Witness | None:
    """Least independent 4-subset of E with all four triple sums off E.

    A DFS over ascending choices, so the first violation it finds is the
    least one.  It prunes with W = {w : E + w = E} as find_induced_is
    does, except that a candidate on span + W can lie in a violation
    (a, b, c and a + b + w, with a + b on E), and no map that fixes the
    choices moves it.  So a node branches on the candidates in span + W
    and on the least point of each W-coset.
    """
    if m.n < 4:
        return None
    if m.n in _TABLE_DIMS:
        quad = _first_quad(m, "trip")
        return Witness("ai4_violation", quad) if quad else None
    t = m.translates
    wmask, leaders = _doubling_group(TranslateWalk(m.bits, m.n))
    chosen: list[int] = []

    # Choosing x after p1 (and p2) drops the candidates y that would put
    # the triple sum p1 ^ x ^ y (and p2 ^ x ^ y) on E, those in
    # E + (p ^ x), along with the span.  spanw is span + W, 0 included.
    # A child whose allowed set holds only least points gets its parent's
    # spanw: below it, cands is allowed whatever spanw holds.
    def rec(allowed: int, spanmask: int, spanw: int) -> bool:
        depth = len(chosen)
        cands = allowed & (leaders | spanw)
        while cands:
            low = cands & -cands
            cands ^= low
            allowed &= -(low << 1)
            if allowed.bit_count() < 3 - depth:
                return False
            x = low.bit_length() - 1
            nspan = spanmask | xor_translate(spanmask, x)
            drop = nspan
            for p in chosen:
                drop |= t[p ^ x]
            rest = allowed & ~drop
            if depth == 2:
                if rest:
                    chosen.extend((x, (rest & -rest).bit_length() - 1))
                    return True
                continue
            chosen.append(x)
            below = spanw | xor_translate(spanw, x) if rest & ~leaders else spanw
            if rec(rest, nspan, below):
                return True
            chosen.pop()
        return False

    if rec(m.bits, 1, wmask):
        return Witness("ai4_violation", tuple(chosen))
    return None


def i4tf_witness(m: Matroid) -> Witness | None:
    """Membership test for the triangle free, induced-I4 free class.

    Returns a triangle or an induced independent 4-subset when m is not a
    member, None when it is.  Triangles are checked first; below dimension
    4 there is no induced I4 to find.
    """
    return find_triangle(m) or find_induced_is(m, 4)


def find_induced_odd_circuit(m: Matroid) -> Witness | None:
    """Smallest induced odd circuit.

    None when E is affine: with <w, e> = 1 on every element, a circuit,
    whose points sum to 0, has an even number of points.  Otherwise sizes
    run over the odd k from 3 up to n + 1, which is as far as an induced
    circuit can go in dimension n.
    """
    if affine_witness(m) is not None:
        return None
    for k in range(3, m.n + 2, 2):
        w = _circuit_search(m, k)
        if w is not None:
            return w
    return None


def _circuit_search(m: Matroid, k: int) -> Witness | None:
    # Choose k-2 elements as find_induced_is does, then a last one x whose
    # translate of the span, 0 included, holds exactly two elements: x and
    # x ^ xorsum, which closes the circuit.  The visit order is not lex
    # order over the sorted witness, so the pruning of find_induced_is
    # does not apply.
    e = m.bits
    t = m.translates
    chosen: list[int] = []

    def rec(allowed: int, span: list[int], xorsum: int) -> int | None:
        depth = len(chosen)
        if depth == k - 2:
            top = chosen[-1] + 1
            cands = (e >> top << top) & t[xorsum]
            spanmask = points_mask(span)
            closed = 1 | 1 << xorsum
            while cands:
                low = cands & -cands
                cands ^= low
                x = low.bit_length() - 1
                if t[x] & spanmask == closed:
                    chosen.append(x)
                    return xorsum ^ x
            return None
        while allowed.bit_count() >= k - 2 - depth:
            low = allowed & -allowed
            allowed ^= low
            x = low.bit_length() - 1
            excluded = 0
            for v in span:
                excluded |= t[v ^ x]
            chosen.append(x)
            got = rec(allowed & ~excluded, span + [v ^ x for v in span], xorsum ^ x)
            if got is not None:
                return got
            chosen.pop()
        return None

    closing = rec(e, [0], 0)
    if closing is None:
        return None
    return Witness("odd_circuit", tuple(sorted(chosen + [closing])), k)


def critical_number(m: Matroid) -> int:
    """Least c such that some flat of codimension c misses every element.

    c = 1 exactly when E has an affine witness.  Otherwise c = 2 exactly
    when E & ker w1, for some w1, has an affine witness w2: then E,
    ker w1 and ker w2 share no point.  The masks E & ker w1 run over w1
    in Gray-code order, each made from the last by one XOR: flipping bit
    i of w1 flips <w1, p> on the points p with bit i set.  The w2 with
    <w2, p> = 1 on a set of points are an AND of masks over functionals,
    and the AND stops once it is empty.  Past that, no flat of
    codimension 2 misses E, and the flat search stops at the first one of
    codimension 3.
    """
    if m.bits == 0:
        return 0
    if affine_witness(m) is not None:
        return 1
    e, n = m.bits, m.n
    # Read as a set of functionals w, hi[i] is the w with bit i set, so the
    # w with <w, p> = 1 are the XOR of hi[i] over the bits i of p.
    full = (1 << (1 << n)) - 1
    hi = coordinate_masks(n)
    s = e
    for k in range(1, 1 << n):
        s ^= e & hi[(k & -k).bit_length() - 1]
        rest, ws = s, full
        while rest and ws:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            h = 0
            while p:
                bit = p & -p
                p ^= bit
                h ^= hi[bit.bit_length() - 1]
            ws &= h
        if ws:
            return 2
    return n - _largest_flat_dim(e, n, n - 3)


def _largest_flat_dim(e: int, n: int, target: int) -> int:
    # Largest d <= target with a d-dimensional subspace S that misses E.
    # A DFS over reduced echelon bases in ascending order reaches each S
    # once.  A node's candidates lie above its last choice, have no bit at
    # its pivots (so each is the least point of its coset of S), and are
    # off E + S, so that the new coset misses E.  The new cosets of a
    # subspace k dimensions up have 2^k - 1 such least points, all still
    # candidates, which bounds k.
    best = 0

    def rec(cands: int, depth: int, bad: int) -> None:
        nonlocal best
        best = max(best, depth)
        while cands and best < target:
            if depth + (cands.bit_count() + 1).bit_length() - 1 <= best:
                return
            low = cands & -cands
            cands ^= low
            x = low.bit_length() - 1
            nbad = bad | xor_translate(bad, x)
            rec(cands & _LOW[x.bit_length() - 1] & ~nbad, depth + 1, nbad)

    rec(((1 << (1 << n)) - 2) & ~e, 0, e)
    return best


def find_doubling_element(m: Matroid) -> tuple[int, Flat] | None:
    """Least nonelement w with w + E = E, plus a hyperplane missing w."""
    ws = stabilizer(TranslateWalk(m.bits, m.n), m.n) & ~1
    if not ws:
        return None
    w = (ws & -ws).bit_length() - 1
    return w, functional_kernel(w & -w, m.n)


def recognize_sag(m: Matroid) -> tuple[int, LinearMap] | None:
    """Detect a relabeled series extension of an affine geometry.

    Returns (parameter, map g) with the replayed shape mapping onto m
    under g, or None.  The pair read off is the lex-least a < b of E with
    y = a + b off E and F = (E - a - b) + y a flat of dimension n - 2; g
    takes F's reduced basis, then y and a.

    Then E + y = F | {a, b}, so E meets E + y in exactly {a, b}, and one
    Gray-code pass over y, each translate made from the last by one delta
    swap, finds every candidate.  E need not be checked to span: with
    S = F | {0}, a in S would put b = a + y in S + y, which is y and
    E - a - b, and a in S + y would put a there.  So a is off span(F, y)
    and the images form a basis.

    Nor is g replayed here: g sends e_(n-2) + v, for v a nonzero point
    of the first n - 2 coordinates, to y + (a point of F), which covers
    F + y = E - a - b; it sends e_(n-1) to a and e_(n-1) + e_(n-2) to b.
    So g(sag(n - 1)) = E.  The decomposer's certificate replay is the one
    comparison: a core with doublings is a union of cosets of their span,
    so its tower replays to it exactly when g maps sag(n - 1) onto the
    stripped set m.
    """
    n = m.n
    if n < 4 or m.size != (1 << (n - 2)) + 1:
        return None
    bits = m.bits
    cands = []
    t = bits
    for k in range(1, 1 << n):
        # y = k ^ (k >> 1) differs from the last y in bit i, the lowest
        # set bit of k.
        i = (k & -k).bit_length() - 1
        s = 1 << i
        low = _LOW[i]
        t = ((t >> s) & low) | ((t & low) << s)
        if t & 1:
            continue
        pair = t & bits
        if pair.bit_count() != 2:
            continue
        fmask = t ^ pair
        # A flat holds the sum of its two least points: one bit test that
        # turns away most candidates before the translations below.  It
        # reads only F's points below 64: all of them up to n = 6, and
        # beyond, at least 15 of a flat's, which meets the space below 64
        # in dimension 4 or more.  A candidate with fewer than two points
        # there goes on to the translations.
        word = fmask & 0xFFFF_FFFF_FFFF_FFFF
        tail = word & (word - 1)
        p, q = (word & -word).bit_length() - 1, (tail & -tail).bit_length() - 1
        if tail and not word >> (p ^ q) & 1:
            continue
        # F | {0} is a flat exactly when translation by each point of a
        # set spanning it fixes it: each step takes the least point off
        # the span so far.  Most candidates fail at the first point.
        flat = fmask | 1
        span = 1
        rest = fmask
        while rest:
            p = (rest & -rest).bit_length() - 1
            if xor_translate(flat, p) != flat:
                break
            span |= xor_translate(span, p)
            rest = fmask & ~span
        else:
            a = (pair & -pair).bit_length() - 1
            cands.append((a, pair.bit_length() - 1, fmask))
    if not cands:
        return None
    a, b, fmask = min(cands)
    return n - 1, LinearMap(n, n, rref(mask_points(fmask)) + (a ^ b, a))
