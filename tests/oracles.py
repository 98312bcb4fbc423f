"""Brute force reference implementations the tests compare against.

Everything here is recomputed from first principles with itertools and
plain integer arithmetic.  Nothing imports library internals, so a
disagreement points at the library, not at a shared helper.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache


def points_of(bits: int) -> list[int]:
    out = []
    p = 0
    while bits:
        if bits & 1 and p > 0:
            out.append(p)
        bits >>= 1
        p += 1
    return out


def xor_span(vectors) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {v ^ s for s in span}
    return span


def brute_rank(vectors) -> int:
    span = {0}
    r = 0
    for v in vectors:
        if v not in span:
            span |= {v ^ s for s in span}
            r += 1
    return r


def independent(vectors) -> bool:
    vectors = list(vectors)
    return brute_rank(vectors) == len(vectors)


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def hyperplanes(n: int):
    """(w, kernel point mask) for every functional w != 0, ascending."""
    for w in range(1, 1 << n):
        yield w, sum(1 << p for p in range(1, 1 << n) if parity(w & p) == 0)


def brute_transvections(bits: int, n: int, w: int) -> int:
    """Mask of the functionals f != 0 with <f, w> = 0 whose transvection
    y -> y + <f, y> w maps the point set onto itself, by trying every f."""
    pts = points_of(bits)
    out = 0
    for f in range(1, 1 << n):
        if parity(f & w):
            continue
        image = {p ^ w if parity(f & p) else p for p in pts}
        if image == set(pts):
            out |= 1 << f
    return out


def brute_translate(mask: int, x: int) -> int:
    """Image of a bit set under p -> p ^ x, one set bit at a time."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= 1 << ((low.bit_length() - 1) ^ x)
    return out


def map_point(images, p: int) -> int:
    out = 0
    i = 0
    while p:
        if p & 1:
            out ^= images[i]
        p >>= 1
        i += 1
    return out


def map_bits(images, bits: int) -> int:
    out = 0
    for p in points_of(bits):
        out |= 1 << map_point(images, p)
    return out


@lru_cache(maxsize=None)
def gl_images(n: int) -> tuple[tuple[int, ...], ...]:
    """All invertible image tuples (images of 1, 2, 4, ...) for GF(2)^n."""
    out = []

    def rec(chosen, span):
        if len(chosen) == n:
            out.append(tuple(chosen))
            return
        for v in range(1, 1 << n):
            if v not in span:
                rec(chosen + [v], span | {v ^ s for s in span})

    rec([], {0})
    return tuple(out)


def presence_key(bits: int, n: int) -> tuple[int, ...]:
    # Absence sequence over points 1..2^n-1; lex-least favors presence
    # at the small points.
    return tuple(0 if (bits >> p) & 1 else 1 for p in range(1, 1 << n))


def brute_canonical(bits: int, n: int) -> int:
    best = None
    best_bits = bits
    for images in gl_images(n):
        mb = map_bits(images, bits)
        key = presence_key(mb, n)
        if best is None or key < best:
            best = key
            best_bits = mb
    return best_bits


def brute_triangle(bits: int) -> tuple[int, int, int] | None:
    pts = points_of(bits)
    for a, b in itertools.combinations(pts, 2):
        if (bits >> (a ^ b)) & 1:
            return tuple(sorted((a, b, a ^ b)))
    return None


def brute_induced_is(bits: int, s: int) -> tuple[int, ...] | None:
    """Some s-subset of E that is independent and spans no other element."""
    pts = points_of(bits)
    for combo in itertools.combinations(pts, s):
        if not independent(combo):
            continue
        extra = xor_span(combo) - {0} - set(combo)
        if all(not (bits >> q) & 1 for q in extra):
            return combo
    return None


def brute_ai4_violation(bits: int) -> tuple[int, ...] | None:
    """Independent 4-subset of E with all four triple sums off E."""
    pts = points_of(bits)
    for combo in itertools.combinations(pts, 4):
        if not independent(combo):
            continue
        total = combo[0] ^ combo[1] ^ combo[2] ^ combo[3]
        if all(not (bits >> (total ^ x)) & 1 for x in combo):
            return combo
    return None


def brute_affine_w(bits: int, n: int) -> int | None:
    """Least functional evaluating to 1 on every element, if any."""
    pts = points_of(bits)
    for w in range(1, 1 << n):
        if all(parity(w & p) for p in pts):
            return w
    return None


def brute_induced_odd_circuit(bits: int, n: int) -> tuple[int, ...] | None:
    """Smallest odd k-subset with zero sum, rank k-1, spanning no other element."""
    pts = points_of(bits)
    kmax = n + 1 if (n + 1) % 2 else n
    for k in range(3, max(kmax, 3) + 1, 2):
        for combo in itertools.combinations(pts, k):
            x = 0
            for v in combo:
                x ^= v
            if x != 0:
                continue
            if brute_rank(combo) != k - 1:
                continue
            extra = xor_span(combo) - {0} - set(combo)
            if all(not (bits >> q) & 1 for q in extra):
                return combo
    return None


def brute_recognize_sag(bits: int, n: int) -> tuple[int, tuple[int, ...]] | None:
    """(n - 1, images) for the first pair a < b of E, in lex order, with
    a + b off E and (E - {a, b}) + (a + b), plus 0, closed under sums:
    a subspace of dimension n - 2, by its size.  The images are that
    subspace's reduced basis, then a + b and a.  None if no pair passes
    or E is not 2^(n-2) + 1 points, n >= 4.
    """
    pts = points_of(bits)
    if n < 4 or len(pts) != (1 << (n - 2)) + 1:
        return None
    for a, b in itertools.combinations(pts, 2):
        y = a ^ b
        if (bits >> y) & 1:
            continue
        sub = {p ^ y for p in pts if p not in (a, b)} | {0}
        if not all(u ^ v in sub for u in sub for v in sub):
            continue
        # The reduced basis: per leading bit, the member with that leading
        # bit and no other leading bit set.
        leads = {v.bit_length() - 1 for v in sub if v}
        basis = sorted(
            v for v in sub
            if v and not any((v >> q) & 1 for q in leads - {v.bit_length() - 1})
        )
        return n - 1, tuple(basis) + (y, a)
    return None


def brute_critical(bits: int, n: int) -> int:
    """Least number of functionals whose supports cover every element."""
    pts = points_of(bits)
    if not pts:
        return 0
    for c in range(1, n + 1):
        for ws in itertools.combinations(range(1, 1 << n), c):
            if all(any(parity(w & p) for w in ws) for p in pts):
                return c
    raise AssertionError("cover search exhausted")


@lru_cache(maxsize=None)
def all_subspaces(n: int) -> tuple[int, ...]:
    """Every subspace of GF(2)^n, each once, as a mask of its points with
    0 included: 374 at n = 5, 2 825 at n = 6."""
    seen = {1}
    frontier = [1]
    while frontier:
        grown = []
        for s in frontier:
            members = [p for p in range(1 << n) if (s >> p) & 1]
            for x in range(1, 1 << n):
                if not (s >> x) & 1:
                    t = s
                    for v in members:
                        t |= 1 << (v ^ x)
                    if t not in seen:
                        seen.add(t)
                        grown.append(t)
        frontier = grown
    return tuple(sorted(seen))


def brute_largest_avoiding_subspace(bits: int, n: int) -> int:
    """Largest dimension of a subspace that holds no element."""
    return max(
        s.bit_count().bit_length() - 1 for s in all_subspaces(n) if not s & bits
    )


def random_bits(rng: random.Random, n: int) -> int:
    return rng.getrandbits(1 << n) & ~1 & ((1 << (1 << n)) - 1)


def random_affine_bits(rng: random.Random, n: int) -> int:
    w = rng.randrange(1, 1 << n)
    bits = 0
    for p in range(1, 1 << n):
        if parity(w & p) and rng.random() < 0.5:
            bits |= 1 << p
    return bits


def random_gl(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        images = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        if independent(images):
            return images
