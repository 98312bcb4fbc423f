"""GF(2) linear algebra on int-encoded vectors and point sets.

A vector in GF(2)^n is an int in [0, 2^n); bit i is the coefficient of the
i-th unit vector.  The nonzero vectors 1..2^n-1 are the points of the
projective geometry PG(n-1, 2).  A set of points is an int bitmask whose
bit p is set iff point p belongs to the set; bit 0 is never set.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple


# Largest dimension any parsed input may ask for: a point set is a
# 2^n-bit int and several scans run over all 2^n points.  The translation
# masks below span 2^MAX_DIM positions.
MAX_DIM = 16


def _low_masks() -> tuple[int, ...]:
    # Mask i holds the positions p < 2^MAX_DIM with bit i of p clear: a
    # block of 2^i ones, doubled out to the full width.
    out = []
    for i in range(MAX_DIM):
        mask = (1 << (1 << i)) - 1
        for k in range(i + 1, MAX_DIM):
            mask |= mask << (1 << k)
        out.append(mask)
    return tuple(out)


_LOW = _low_masks()


def xor_translate(mask: int, x: int) -> int:
    """Image of a point set under translation by x (x itself may be 0).

    Translation permutes bit positions, p -> p ^ x.  Each set bit s = 2^i
    of x is one delta swap of the adjacent s-blocks of positions.
    """
    while x:
        s = x & -x
        x ^= s
        low = _LOW[s.bit_length() - 1]
        mask = ((mask >> s) & low) | ((mask & low) << s)
    return mask


def translate_list(mask: int, n: int) -> list[int]:
    """Every translate of a point set of GF(2)^n: entry v is
    xor_translate(mask, v).

    Built by doubling: the entries 2^i..2^(i+1)-1 are those below 2^i, each
    moved by one delta swap by 2^i.
    """
    out = [mask]
    for i in range(n):
        s = 1 << i
        low = _LOW[i]
        out += [((m >> s) & low) | ((m & low) << s) for m in out]
    return out


class Translates(dict):
    """The translates of a point set E of GF(2)^n: entry v is E + v,
    xor_translate(E, v).

    An entry is made on first use from entry v - 2^i, 2^i the top bit of
    v, by one delta swap, so a search builds only the translates it
    reads.  All 2^n of them take 2^(2n-3) bytes, 512 MB at MAX_DIM.
    """

    __slots__ = ("n",)

    def __init__(self, mask: int, n: int) -> None:
        super().__init__(((0, mask),))
        self.n = n

    def __missing__(self, v: int) -> int:
        s = 1 << (v.bit_length() - 1)
        self[v] = out = xor_translate(self[v ^ s], s)
        return out


def stabilizer(table: Translates | list[int], n: int) -> int:
    """Point set of W = {w : E + w = E}, 0 included, read off a table of
    the translates of E, a Translates table or a translate_list.

    w is in W exactly when e + w is on E for every point e of E, that is
    when w is in every E + e; the scan stops once only 0 is left.  A
    w != 0 in W pairs the points of E, so an odd E has W = {0}.
    """
    mask = table[0]
    if mask.bit_count() & 1:
        return 1
    acc = (1 << (1 << n)) - 1
    while mask and acc != 1:
        low = mask & -mask
        mask ^= low
        acc &= table[low.bit_length() - 1]
    return acc


def coordinate_masks(n: int) -> list[int]:
    """Mask i, for i < n, holds the points of GF(2)^n with bit i set."""
    full = (1 << (1 << n)) - 1
    return [full ^ (low & full) for low in _LOW[:n]]


def kernel_list(n: int) -> list[int]:
    """Entry f is the kernel {x : <f, x> = 0} of the functional f of
    GF(2)^n, 0 left out, so entry 0 holds every point; by symmetry entry x
    is also the set of functionals f != 0 that vanish at x.  Built by
    doubling, as translate_list is: entry f + 2^i is entry f with the
    points that have bit i set flipped.
    """
    out = [(1 << (1 << n)) - 2]
    for hi in coordinate_masks(n):
        out += [k ^ hi for k in out]
    return out


class Transvections(dict):
    """The transvections that fix a point set E: entry w != 0 is the set
    of functionals f != 0 with f(w) = 0 whose map y -> y + f(y) w sends E
    onto E.

    The map moves a point e of E exactly when f(e) = 1, to e + w.  So it
    sends E into E, and being a bijection onto E, exactly when f vanishes
    on E - (E + w), the points e with e + w off E.  The entry is the
    kernel of w cut by the kernel of each of those points, made on first
    use; the cutting stops once no functional is left.  table gives the
    translates of E (Translates or translate_list), kernels a kernel_list.
    """

    __slots__ = ("table", "kernels")

    def __init__(self, table: Translates | list[int], kernels: list[int]) -> None:
        super().__init__()
        self.table = table
        self.kernels = kernels

    def __missing__(self, w: int) -> int:
        kernels = self.kernels
        out = kernels[w]
        moved = self.table[0] & ~self.table[w]
        while moved and out:
            low = moved & -moved
            moved ^= low
            out &= kernels[low.bit_length() - 1]
        self[w] = out
        return out


def coset_leaders(basis: Iterable[int], n: int) -> int:
    """Point set of the v < 2^n least in their coset v + span(basis).

    basis must be reduced (rref); the least point of a coset is the one
    with every pivot bit clear.
    """
    mask = (1 << (1 << n)) - 1
    for b in basis:
        mask &= _LOW[b.bit_length() - 1]
    return mask


def parity(x: int) -> int:
    return x.bit_count() & 1


def mask_points(mask: int) -> list[int]:
    """Set bits of mask, ascending."""
    if mask < 0:
        # mask & -mask never clears the sign: the loop would not end.
        raise ValueError("a point set mask is never negative")
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
    """Bitmask of the nonzero vectors spanned by basis, built by doubling."""
    mask = 1
    for v in basis:
        mask |= xor_translate(mask, v)
    return mask & ~1


class Flat(NamedTuple):
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
    # Already reduced: vector i leads with bit i, and only pbit is shared.
    return Flat(n - 1, tuple(vecs), span_members(vecs))


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


class LinearMap(NamedTuple):
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
    that are optimal block by block.  A node at depth d has fixed the images
    h_q of the points q < 2^d.  Its column q is the translate E + h_q, the
    vectors v with v ^ h_q in the set, read from one flat list of all 2^n
    translates of E (translate_list), and the next block of a candidate v
    reads down the columns, bit q set when v is not in column q.  The
    least block and the candidates giving it come from refining the
    candidates one column at a time: keep those in the column if there
    are any, else emit a 1 bit.  While a node's blocks tie the best leaf's,
    each 1 bit is compared as it is produced, and the node returns at its
    first larger bit.

    The list is built whole, by doubling, before the search starts.  A
    search reads most of the translates anyway (a lazily filled table
    ended up holding 50-100% of them on the census forms and 64-81% on
    the d10 and d12 towers), and a list entry made in bulk costs one delta
    swap, where a lazily made one costs a dict miss, a __missing__ call
    and an xor_translate call.

    A child's images are its parent's and their sums with its last vector
    u, so the first half of its columns are its parent's and the second
    half are the entries at h_q ^ u.  The first half of a child's block is
    thus the least pattern over the parent's columns among the vectors off
    the child's span S + {0, u}, S the parent's span, and the parent works
    it out once for all its children before it descends.  Let C be the
    parent's least-block candidates, all off S.  A child u keeps the
    parent's block as its first half exactly when some v in C lies off S
    and off the coset u + S.  If C meets two or more cosets of S, every
    child keeps it, with the candidates of C off its span; no child loses
    there, since a best leaf whose blocks so far equal the parent's has a
    first half no smaller, the least pattern over fewer vectors.  If C
    lies in one coset c + S, every child has the span S + {0, c} and the
    same first half, refined once over the vectors off that span.  When
    that first half is larger than the best leaf's, the parent returns
    without calling any child; a new best leaf can only come from below
    the parent and carries the same first half, so one comparison does.
    A child then refines only its second half.  A node at depth n - 1 has
    fixed every block, so its children, the leaves, carry its blocks and
    have nothing to refine: it compares each with the best leaf in its own
    loop, with no call per leaf.

    Equivalent branches are pruned with the automorphisms of the set that
    leaves tying the best leaf give, as in McKay and Piperno's canonical
    labelling search ("Practical graph isomorphism, II", 2014).  A tying
    leaf's map phi sends the best leaf's images to its own, so it fixes
    E, it fixes the basis vectors the two paths share, those above the
    first depth k where they differ, and it sends the child b of node k on
    the best leaf's path to the child u on this one.  phi carries the
    subtree under b, already searched, onto the subtree under u, leaf for
    leaf with equal blocks, so the subtree under u holds no leaf smaller
    than the best.  The tie therefore returns k: every deeper node returns
    at once without trying its remaining candidates, and node k resumes
    its loop.  Each tie keeps its map, a list of 2^n images, gathered
    through the inverse of the best leaf's images.  A node closes its
    candidates under the kept maps that fix its basis pointwise, which,
    being linear, fix its span, and stops once every candidate is covered.
    It keeps that list incrementally: a child inherits the ones that also
    fix its new basis vector, and a node adds the maps harvested since it
    last looked.  It looks right after each child that did not send the
    search above it, so each of those maps came from a tie with k at
    least its depth, whose path shares the node's basis with the best
    leaf's, or from a probe (below) at the node or under it; either way
    the map fixes that basis, and no map needs testing.  Node k thus
    closes its candidates under the map that sent the search back to it.

    Transvections that fix the set prune before any tie.  For w != 0 and
    a functional f with f(w) = 0, the map t(y) = y + f(y) w is linear and
    its own inverse.  It moves a point e exactly when f(e) = 1, to e + w,
    so it maps E onto E exactly when f also vanishes on D_w = E - (E + w),
    the points e of E with e + w off E; Transvections gives those f for
    each w.  Let S be the span of a node's basis, and v, u two of its
    candidates, with w = v + u.  If one such f also vanishes on S and has
    f(v) = 1, t fixes S pointwise and sends v to u, so like a tying
    leaf's map it carries the subtree under the child v onto the subtree
    under the child u.  Before it descends into u, a node probes each
    child v it has searched with one AND of three functional masks: those
    vanishing on S (ann, which a child gets as its parent's cut by the
    kernel of its vector), those for w, and those with f(v) = 1.  On a
    hit it skips u and keeps t with the tie maps, so that the closure
    carries u's orbit further.  Keeping t is sound: it fixes S pointwise,
    and the nodes that read it from the maps harvested since they last
    looked are this node and its ancestors, whose spans lie in S, so t
    fixes each one's basis.

    The translations that fix the set are the case D_w = {}, and they
    prune whole cosets at once.  Let W = {w : E + w = E}, read off the
    list of translates by stabilizer; a second flat list, of the
    translates of W, gives each coset u + W.
    Let u be a candidate of a node with span S, so u is off S.  For w in
    W with u + w off S, take f zero on S and on w, with f(u) = 1; it
    exists since u is off S + {0, w}.  Then t fixes S pointwise, maps E
    onto E and sends u to u + w.  So every candidate in u + W is in u's
    orbit, and the closure covers all of u + W for each point it covers;
    with W = {0} (every odd E) that is u alone.  The probe finds the same
    maps, but one candidate at a time.  No pruning here changes the
    answer: a pruned branch is the image of an earlier sibling under a
    map fixing E and the basis, so that sibling already holds an equal
    leaf earlier in depth first order, and the first least leaf of the
    unpruned search is always visited.  Forms and maps are the same as
    without any pruning.
    """
    size = 1 << n
    full = (1 << size) - 2
    if bits == 0 or bits == full:
        return bits, identity_map(n)
    # Entry v is the column E + v, entry v of cosets the coset v + W of
    # W = {w : E + w = E}, and entry f of kernels the kernel of f.
    table = translate_list(bits, n)
    cosets = translate_list(stabilizer(table, n), n)
    kernels = kernel_list(n)
    transvections = Transvections(table, kernels)

    best_blocks: list[int] | None = None
    # best_pos[h] is the point q that the best leaf sends to h.
    best_pos: list[int] | None = None
    auts: list[list[int]] = []
    # The least block of each node on the current path.
    blocks: list[int] = []

    def bound(depth: int) -> int:
        # Blocks before this one are never worse than the best leaf's.  On
        # a tie this block may not exceed the best leaf's.
        if best_blocks is not None and blocks == best_blocks[:depth]:
            return best_blocks[depth]
        return (1 << (1 << depth)) - 1

    def dfs(
        last: int,
        hps: list[int],
        spanmask: int,
        ann: int,
        fixing: list[list[int]],
        cands: int,
        block: int,
    ) -> int:
        # last is the vector this node adds to its parent's basis, 0 at the
        # root.  hps are the parent's images hp[q] of the points q under
        # the chosen preimages, [0] for the root; column q is table[hp[q]],
        # the v with v ^ hp[q] in the set.  block and cands are this node's
        # first half, from its parent: the least pattern over the parent's
        # columns among the vectors off the span, and the vectors giving
        # it (at the root, no bits and every vector).  ann is the set of
        # functionals that vanish on the span, and fixing holds the kept
        # automorphisms that fix the node's basis.  The return value
        # is the depth at which the search resumes: a node above it
        # returns at once.
        nonlocal best_blocks, best_pos
        depth = len(blocks)
        seen = len(auts)
        # The second half of the columns are the translates by the last
        # vector of the first half's; the root's one column is E itself.
        # Only a 1 bit can push a tying block over the bound.
        top = bound(depth)
        shift = len(hps)
        for h in hps:
            shift -= 1
            if present := cands & table[h ^ last]:
                cands = present
                block <<= 1
            else:
                block = (block << 1) | 1
                if block > top >> shift:
                    return depth
        blocks.append(block)
        hp = hps + [h ^ last for h in hps] if depth else hps
        leaves = depth + 1 == n
        if not leaves:
            c = (cands & -cands).bit_length() - 1
            sm = spanmask | xor_translate(spanmask | 1, c)
            one_coset = not cands & ~sm
            if one_coset:
                # The candidates lie in one coset of the span: every child
                # has the span sm and this first half.
                kids = full & ~sm
                first = 0
                top = bound(depth + 1)
                shift = 2 << depth
                for h in hp:
                    shift -= 1
                    if present := kids & table[h]:
                        kids = present
                        first <<= 1
                    else:
                        first = (first << 1) | 1
                        if first > top >> shift:
                            blocks.pop()
                            return depth
        back = depth
        covered = 0
        # (v, the functionals in ann with f(v) = 1) for each child v that
        # this node has searched.
        searched: list[tuple[int, int]] = []
        while rest := cands & ~covered:
            u = (rest & -rest).bit_length() - 1
            if leaves:
                leaf = hp + [h ^ u for h in hp]
                # Past the cutoff, a leaf that is not better ties.
                if best_blocks is None or blocks < best_blocks:
                    best_blocks = blocks[:]
                    best_pos = [0] * size
                    for q, x in enumerate(leaf):
                        best_pos[x] = q
                    back = n
                else:
                    auts.append(list(map(leaf.__getitem__, best_pos)))
                    # A tie resumes the search where its path leaves the
                    # best leaf's.
                    back = 0
                    while best_pos[leaf[1 << back]] == 1 << back:
                        back += 1
            else:
                for v, moves in searched:
                    # A transvection fixing E and the span that sends v
                    # to u carries v's subtree onto u's: keep it, skip u.
                    w = u ^ v
                    if fs := transvections[w] & moves:
                        f = (fs & -fs).bit_length() - 1
                        auts.append(
                            [y ^ w * ((f & y).bit_count() & 1) for y in range(size)]
                        )
                        break
                else:
                    stab = [phi for phi in fixing if phi[u] == u]
                    if not one_coset:
                        # The first child, c, has the mask of the coset test.
                        if u != c:
                            sm = spanmask | xor_translate(spanmask | 1, u)
                        kids, first = cands & ~sm, block
                    kid_ann = ann & kernels[u]
                    back = dfs(u, hp, sm, kid_ann, stab, kids, first)
                    searched.append((u, ann ^ kid_ann))
            if back < depth:
                break
            fixing += auts[seen:]
            seen = len(auts)
            covered |= cosets[u]
            if fixing:
                frontier = [u]
                while frontier and cands & ~covered:
                    x = frontier.pop()
                    for phi in fixing:
                        y = phi[x]
                        if not (covered >> y) & 1:
                            covered |= cosets[y]
                            frontier.append(y)
        blocks.pop()
        return back

    dfs(0, [0], 0, full, [], full, 0)
    assert best_pos is not None
    canon = 0
    for x in mask_points(bits):
        canon |= 1 << best_pos[x]
    return canon, LinearMap(n, n, tuple(best_pos[1 << i] for i in range(n)))
