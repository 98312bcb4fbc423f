"""Decomposition into replayable build certificates.

Every member of the triangle free, induced-I4 free class is taken apart
step by step, each step undoing one dimension raising operation, until a
one dimensional base or a recognized series extended affine geometry
remains.  The reverse order of the undone steps plus an explicit
coordinate map form a Certificate; callers replay it and compare bits.

A parallel decomposer handles the larger class defined by the size 4
freeness condition, undoing the alpha and beta operations instead.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import TheoremViolation
from .gf2 import (
    Flat,
    LinearMap,
    closure,
    coordinate_masks,
    functional_kernel,
    linear_system_solve,
    mask_points,
    span_members,
)
from .matroid import (
    Matroid,
    RestrictionResult,
    affine_witness,
    induced_restriction,
    restrict_to_closure,
    xor_translate,
)
from .construct import Certificate, expand0, expand1, sag
from .detect import (
    Witness,
    find_ai4_violation,
    find_doubling_element,
    find_induced_is,
    find_triangle,
    recognize_sag,
)

__all__ = [
    "SpecialHyperplane",
    "AffineStep",
    "StripResult",
    "AffineChain",
    "DoubledSag",
    "NotMember",
    "DecompositionResult",
    "find_special_hyperplane",
    "decompose_affine_step",
    "strip_doublings",
    "decompose_i4tf",
    "decompose_ai4",
]


class SpecialHyperplane(NamedTuple):
    flat: Flat
    case: str
    functional: int


def find_special_hyperplane(m: Matroid) -> SpecialHyperplane:
    """First hyperplane comparable with E by inclusion or disjointness.

    Scans functionals in ascending order; for each kernel H reports the
    first holding relation among: E inside H, complement inside H, E
    disjoint from H, H inside E.  Inputs satisfying the size 4 freeness
    condition always have one; exhaustion is a falsification signal.
    Each kernel is a point mask made from the last one by one XOR; only
    the returned one is built as a Flat with a reduced basis.
    """
    n = m.n
    full = (1 << (1 << n)) - 2
    comp = m.bits ^ full
    # From w - 1 to w, bits 0..t flip, t the lowest set bit of w, and so
    # do the points with an odd number of bits 0..t set: prefix[t].
    prefix = coordinate_masks(n)
    for t in range(1, n):
        prefix[t] ^= prefix[t - 1]
    members = full
    for w in range(1, 1 << n):
        members ^= prefix[(w & -w).bit_length() - 1]
        if m.bits & ~members == 0:
            case = "e_subset_h"
        elif comp & ~members == 0:
            case = "complement_subset_h"
        elif m.bits & members == 0:
            case = "e_disjoint_h"
        elif members & ~m.bits == 0:
            case = "h_subset_e"
        else:
            continue
        return SpecialHyperplane(functional_kernel(w, n), case, w)
    raise TheoremViolation("no hyperplane compares with the point set")


class AffineStep(NamedTuple):
    """One undone expansion: the inner matroid in its flat's coordinates.

    For an undone 1-expansion, new_point is the removed element (ambient
    coordinates) and witness_functional cuts out, in inner coordinates,
    the hyperplane whose translate was removed alongside it.
    """

    tag: str
    inner: Matroid
    embed: LinearMap
    new_point: int | None = None
    witness_functional: int | None = None


def decompose_affine_step(m: Matroid) -> AffineStep:
    """Undo one expansion of an affine member with at least one element.

    An affine input that is not a member may fail a step that the theorem
    guarantees for members; it then raises ValueError naming an induced
    I4 it holds.  An affine set has no triangle, so only the induced-I4
    search runs.
    """
    if m.n < 2 or m.bits == 0:
        raise ValueError("need dimension at least 2 and a nonempty point set")
    phi = affine_witness(m)
    if phi is None:
        raise ValueError("need an affine input")
    try:
        return _undo_expansion(m, phi)
    except TheoremViolation:
        # Only a failed step pays for the membership test.
        w = find_induced_is(m, 4)
        if w is None:
            raise
        raise ValueError(f"need a class member; {w.kind} witness {w.points}") from None


def _undo_expansion(m: Matroid, phi: int) -> AffineStep:
    n = m.n
    hw = functional_kernel(phi, n)
    z = (m.bits & -m.bits).bit_length() - 1
    f_bits = xor_translate(m.bits ^ (1 << z), z)
    # F = E + z minus 0 lies in hw: <phi, e + z> = 1 + 1 for e, z on E.
    f_small, emb0 = induced_restriction(Matroid(n, f_bits), hw)
    sh = find_special_hyperplane(f_small)
    case, hprime = sh.case, closure([emb0.apply(b) for b in sh.flat.basis], n)

    if case == "e_disjoint_h":
        # The scan tests complement_subset_h first, so the translated set
        # is a proper part of hw minus H': it spans hw only if the theorem
        # fails.  Otherwise it spans a smaller flat; drop to that case.
        # F lies in hw, so the kernel holds phi, and only phi at rank n - 1.
        f_pts = mask_points(f_bits)
        _, kernel = linear_system_solve(f_pts, [0] * len(f_pts), n)
        if len(kernel) == 1:
            raise TheoremViolation("disjoint case without an affine geometry")
        psi = next(p for p in mask_points(span_members(kernel)) if p != phi)
        case = "e_subset_h"
        hprime = closure(linear_system_solve((phi, psi), (0, 0), n)[1], n)

    if case == "e_subset_h":
        # F lies in H' (after the reroute, in hw and ker psi): E is in hpp.
        hpp = closure(list(hprime.basis) + [z], n)
        inner, emb = induced_restriction(m, hpp)
        return AffineStep("expand0", inner, emb)

    if case == "complement_subset_h":
        rest = hw.members & ~hprime.members
        w0 = (rest & -rest).bit_length() - 1
        x = z ^ w0
        hpp = closure(list(hprime.basis) + [z], n)
    else:
        rest = f_bits & ~hprime.members
        w0 = (rest & -rest).bit_length() - 1
        x = z
        hpp = closure(list(hprime.basis) + [z ^ w0], n)

    layer = (1 << x) | xor_translate(hprime.members, x)
    if m.bits & ~hpp.members != layer:
        raise TheoremViolation("removed layer does not match the case")
    inner, emb = induced_restriction(m, hpp)
    # Inner unit vector i is hpp.basis[i]; func is 1 on those off H'.
    func = sum(1 << i for i, b in enumerate(hpp.basis) if not (hprime.members >> b) & 1)
    return AffineStep("expand1", inner, emb, x, func)


def _align_images(
    raw0: Matroid, g0_images: tuple[int, ...], func: int
) -> tuple[int, ...]:
    # Replay translates the kernel of raw0's least affine witness, but the
    # removed layer sits over the kernel of func pulled back through the
    # current images.  A transvection fixing raw0 pointwise carries one
    # kernel onto the other; compose it in.
    d = raw0.n
    pulled = 0
    for i in range(d):
        if (func & g0_images[i]).bit_count() & 1:
            pulled |= 1 << i
    target = affine_witness(raw0)
    if pulled == target:
        return g0_images
    u = pulled ^ target
    t = next(
        v
        for v in range(1, 1 << d)
        if (pulled & v).bit_count() & 1 and (target & v).bit_count() & 1
    )
    gmap = LinearMap(d, d, g0_images)
    composed = []
    for i in range(d):
        v = 1 << i
        if (u & v).bit_count() & 1:
            v ^= t
        composed.append(gmap.apply(v))
    return tuple(composed)


def _extend_basis(vectors: list[int], count: int) -> tuple[int, ...]:
    # Appends the least point off the span of vectors until it holds
    # count of them.
    have = span_members(vectors) | 1
    p = 1
    while len(vectors) < count:
        while (have >> p) & 1:
            p += 1
        vectors.append(p)
        if len(vectors) < count:
            have |= xor_translate(have, p)
    return tuple(vectors)


def _affine_chain(m: Matroid) -> tuple[Matroid, tuple[str, ...], tuple[int, ...], Matroid]:
    # Returns (base, steps, images, raw) where raw is the fold of steps
    # over base and LinearMap(images) carries raw onto m.
    # Never empty above dimension 1: an expand1 step would empty only an
    # affine flat, whose translate the scan files under e_subset_h.
    if m.n == 1:
        return m, (), (1,), m
    step = _undo_expansion(m, affine_witness(m))
    base, steps0, images0, raw0 = _affine_chain(step.inner)
    if step.tag == "expand0":
        lifted = _extend_basis([step.embed.apply(p) for p in images0], m.n)
        return base, steps0 + ("expand0",), lifted, expand0(raw0)
    aligned = _align_images(raw0, images0, step.witness_functional)
    lifted = tuple(step.embed.apply(p) for p in aligned)
    images = lifted + (step.new_point,)
    return base, steps0 + ("expand1",), images, expand1(raw0)


class StripResult(NamedTuple):
    count: int
    core: Matroid
    trail: tuple[tuple[int, LinearMap], ...]


def strip_doublings(m: Matroid) -> StripResult:
    """Peel translation-stable layers until none remains.

    Each round removes the least nonelement whose translate fixes E and
    restricts to a hyperplane missing it.  The trail records, outermost
    first, the removed element and the restriction embedding.
    """
    trail: list[tuple[int, LinearMap]] = []
    cur = m
    while cur.n > 1:
        found = find_doubling_element(cur)
        if found is None:
            break
        w, h = found
        inner, emb = induced_restriction(cur, h)
        trail.append((w, emb))
        cur = inner
    return StripResult(len(trail), cur, tuple(trail))


class AffineChain(NamedTuple):
    certificate: Certificate


class DoubledSag(NamedTuple):
    certificate: Certificate
    doublings: int
    sag_param: int


class NotMember(NamedTuple):
    witness: Witness


class DecompositionResult(NamedTuple):
    outcome: AffineChain | DoubledSag | NotMember
    restriction: RestrictionResult


def decompose_i4tf(m: Matroid) -> DecompositionResult:
    """Membership with evidence: a certificate or a refuting witness.

    Members decompose either into an expansion chain from a one
    dimensional base, or into doublings of a series extended affine
    geometry.  The chain certificate replays to the input itself; the
    doubling certificate replays to the restriction onto the span of E,
    reported alongside.  Non-members yield a triangle or an induced
    independent 4-set, verified against m before it is returned.

    The triangle search runs once, and a triangle it finds is the witness.
    Any other set is certified first: the class is exactly the sets that
    replay from a chain or a tower, so a replayed certificate proves
    membership and the induced-I4 search runs only when certification
    fails.  If that search finds nothing either, the decomposer's
    TheoremViolation is raised.
    """
    rest = restrict_to_closure(m)
    w = find_triangle(m)
    if w is None:
        try:
            return DecompositionResult(_certify(m, rest), rest)
        except TheoremViolation:
            w = find_induced_is(m, 4)
            if w is None:
                raise
    return DecompositionResult(NotMember(w.checked(m)), rest)


def _certify(m: Matroid, rest: RestrictionResult) -> AffineChain | DoubledSag:
    # Raises TheoremViolation where a step the theorem guarantees for
    # members fails, or the certificate does not replay.
    core = rest.matroid
    if affine_witness(core) is not None:
        base, steps, images, _ = _affine_chain(core)
        if core.n < m.n:
            steps = steps + ("expand0",) * (m.n - core.n)
            images = _extend_basis([rest.embed.apply(p) for p in images], m.n)
        cert = Certificate(base, steps, LinearMap(m.n, m.n, images))
        if cert.replay() != m:
            raise TheoremViolation("expansion chain fails to replay")
        return AffineChain(cert)
    strip = strip_doublings(core)
    rec = recognize_sag(strip.core)
    if rec is None:
        raise TheoremViolation(
            "non-affine member is not a doubled series extension"
        )
    par, gmap = rec
    images = tuple(gmap.images)
    for wpt, emb in reversed(strip.trail):
        images = tuple(emb.apply(p) for p in images) + (wpt,)
    cert = Certificate(
        sag(par), ("double",) * strip.count, LinearMap(core.n, core.n, images)
    )
    if cert.replay() != core:
        raise TheoremViolation("doubling tower fails to replay")
    return DoubledSag(cert, strip.count, par)


# The layer operation each special hyperplane case undoes.
_LAYER_STEP = {
    "e_subset_h": "alpha0",
    "complement_subset_h": "alpha1",
    "e_disjoint_h": "beta0",
    "h_subset_e": "beta1",
}


def decompose_ai4(m: Matroid) -> Certificate | Witness:
    """Certificate over the four layer operations, or a violating 4-set.

    The certificate is replayed and the 4-set verified before either is
    returned.
    """
    w = find_ai4_violation(m)
    if w is not None:
        return w.checked(m)
    trail: list[tuple[str, LinearMap, int | None]] = []
    cur = m
    while cur.n > 1:
        sh = find_special_hyperplane(cur)
        tag = _LAYER_STEP[sh.case]
        if tag.startswith("alpha"):
            w0 = None
            cur, emb = induced_restriction(cur, sh.flat)
        else:
            # In the disjoint case off is all of E.  off + w0 lies in H.
            off = cur.bits & ~sh.flat.members
            w0 = (off & -off).bit_length() - 1
            shifted = xor_translate(off ^ (1 << w0), w0)
            cur, emb = induced_restriction(Matroid(cur.n, shifted), sh.flat)
        trail.append((tag, emb, w0))
    steps: list[str] = []
    images: tuple[int, ...] = (1,)
    for tag, emb, w0 in reversed(trail):
        lifted = [emb.apply(p) for p in images]
        images = _extend_basis(lifted, len(lifted) + 1) if w0 is None else (*lifted, w0)
        steps.append(tag)
    cert = Certificate(cur, tuple(steps), LinearMap(m.n, m.n, images))
    if cert.replay() != m:
        raise TheoremViolation("layer tower fails to replay")
    return cert
