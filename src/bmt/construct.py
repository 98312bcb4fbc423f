"""Named generators, the dimension raising operations, and build certificates.

Every operation here takes a matroid in dimension n and returns one in
dimension n+1, with the new coordinate's unit vector at 2^n.  A build
certificate is a base matroid, a sequence of operation names, and a final
relabeling map; replaying it reconstructs a matroid exactly.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import FormatError
from .gf2 import LinearMap, functional_kernel
from .matroid import MAX_DIM, Matroid, affine_witness


def pg(n: int) -> Matroid:
    """All points of PG(n-1, 2)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return Matroid(n, (1 << (1 << n)) - 2)


def ag(n: int) -> Matroid:
    """Affine geometry AG(n-1, 2): the points with top coordinate 1."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    half = 1 << (n - 1)
    return Matroid(n, ((1 << half) - 1) << half)


def units(n: int) -> Matroid:
    """The n unit vectors; a free (fully independent) point set."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    bits = 0
    for i in range(n):
        bits |= 1 << (1 << i)
    return Matroid(n, bits)


def circuit(k: int) -> Matroid:
    """The k element circuit: k-1 unit vectors plus their sum, in dim k-1."""
    if k < 3 or k % 2 == 0:
        raise ValueError("circuits here are odd, with at least three elements")
    m = units(k - 1)
    return Matroid(k - 1, m.bits | (1 << ((1 << (k - 1)) - 1)))


def sag(m: int) -> Matroid:
    """Series extension of AG(m-1, 2), in dimension m+1.

    One affine point is replaced by a pair in series through the new
    coordinate, leaving 2^(m-1) + 1 elements.
    """
    if m < 3:
        raise ValueError("parameter must be at least 3")
    # The affine points half + 1 .. 2 half - 1, and for half the series
    # pair 2 half, 3 half, whose sum it is.
    half = 1 << (m - 1)
    bits = (((1 << (half - 1)) - 1) << (half + 1)) | (1 << 2 * half) | (1 << 3 * half)
    return Matroid(m + 1, bits)


def double(m: Matroid) -> Matroid:
    """Union of E and its translate by the new coordinate w = 2^n."""
    return Matroid(m.n + 1, m.bits | (m.bits << (1 << m.n)))


def expand0(m: Matroid) -> Matroid:
    """Same elements one dimension up.  Defined only for affine inputs."""
    if affine_witness(m) is None:
        raise ValueError("0-expansion needs an affine input")
    return Matroid(m.n + 1, m.bits)


def expand1(m: Matroid) -> Matroid:
    """Adjoin x = 2^n and x + H, H the kernel of the least affine witness."""
    w = affine_witness(m)
    if w is None:
        raise ValueError("1-expansion needs an affine input")
    shift = 1 << m.n
    kernel = functional_kernel(w, m.n)
    bits = m.bits | (1 << shift) | (kernel.members << shift)
    return Matroid(m.n + 1, bits)


def alpha0(m: Matroid) -> Matroid:
    """Same elements one dimension up, no requirement on the input."""
    return Matroid(m.n + 1, m.bits)


def alpha1(m: Matroid) -> Matroid:
    """Adjoin the whole new affine layer x + GF(2)^n, x = 2^n."""
    shift = 1 << m.n
    return Matroid(m.n + 1, m.bits | (((1 << shift) - 1) << shift))


def beta0(m: Matroid) -> Matroid:
    """Translate E by x = 2^n and adjoin x itself."""
    shift = 1 << m.n
    return Matroid(m.n + 1, (m.bits << shift) | (1 << shift))


def beta1(m: Matroid) -> Matroid:
    """All old points, plus x = 2^n, plus the translate x + E."""
    shift = 1 << m.n
    full = (1 << shift) - 2
    return Matroid(m.n + 1, full | (1 << shift) | (m.bits << shift))


STEP_OPS = {
    "double": double,
    "expand0": expand0,
    "expand1": expand1,
    "alpha0": alpha0,
    "alpha1": alpha1,
    "beta0": beta0,
    "beta1": beta1,
}


class _CertificateFields(NamedTuple):
    base: Matroid
    steps: tuple[str, ...]
    cmap: LinearMap


class Certificate(_CertificateFields):
    """Replayable construction: base matroid, operation names, relabeling.

    The base is either one dimensional (empty or a single point) or a
    canonical series extended affine geometry.  The fields live in a
    NamedTuple base, since a NamedTuple's own body may not define __new__.
    """

    __slots__ = ()

    def __new__(cls, base: Matroid, steps: tuple[str, ...], cmap: LinearMap) -> Certificate:
        if base.n > 1 and base != sag(base.n - 1):
            raise ValueError("base must be one dimensional or a canonical sag")
        return super().__new__(cls, base, steps, cmap)

    def replay(self) -> Matroid:
        m = self.base
        for step in self.steps:
            op = STEP_OPS.get(step)
            if op is None:
                raise FormatError(f"unknown step {step!r}")
            try:
                m = op(m)
            except ValueError as exc:
                raise FormatError(f"step {step!r} not applicable: {exc}") from None
        if self.cmap.n_from != m.n or not self.cmap.is_invertible():
            raise FormatError("certificate map does not fit the construction")
        return Matroid(m.n, self.cmap.apply_mask(m.bits))

    def to_json(self) -> str:
        if self.base.n == 1:
            bobj: dict = {"kind": "onedim", "points": list(self.base.points)}
        else:
            bobj = {"kind": "sag", "n": self.base.n - 1}
        obj = {
            "base": bobj,
            "steps": list(self.steps),
            "map": list(self.cmap.images),
        }
        return json.dumps(obj)


def certificate_from_json(text: str) -> Certificate:
    # Besides JSONDecodeError, json.loads raises ValueError on an integer
    # past the int-to-string digit limit and RecursionError on deep nesting.
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"bad certificate JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("certificate must be a JSON object")
    bobj = obj.get("base")
    steps = obj.get("steps")
    images = obj.get("map")
    if not isinstance(bobj, dict) or not isinstance(bobj.get("kind"), str):
        raise FormatError("certificate base must give a kind")
    kind = bobj["kind"]
    if kind == "onedim":
        pts = bobj.get("points")
        # True and 1.0 compare equal to 1 but are no point.
        if not isinstance(pts, list) or not all(type(p) is int and p == 1 for p in pts):
            raise FormatError("onedim base points must be a sublist of [1]")
        if len(pts) > 1:
            raise FormatError("duplicate base point")
        base_dim = 1
    elif kind == "sag":
        mm = bobj.get("n")
        if not isinstance(mm, int) or isinstance(mm, bool) or mm < 3:
            raise FormatError("sag base needs an integer n of at least 3")
        base_dim = mm + 1
    else:
        raise FormatError(f"unknown base kind {kind!r}")
    if not isinstance(steps, list) or not all(isinstance(s, str) for s in steps):
        raise FormatError("certificate steps must be a list of strings")
    for s in steps:
        if s not in STEP_OPS:
            raise FormatError(f"unknown step {s!r}")
    dim = base_dim + len(steps)
    if dim > MAX_DIM:
        raise FormatError(f"certificate dimension {dim} exceeds {MAX_DIM}")
    base = Matroid(1, 2 if pts else 0) if kind == "onedim" else sag(mm)
    if not isinstance(images, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in images
    ):
        raise FormatError("certificate map must be a list of ints")
    if len(images) != dim:
        raise FormatError("certificate map has the wrong length")
    if not all(0 <= v < (1 << dim) for v in images):
        raise FormatError("certificate map image out of range")
    cmap = LinearMap(dim, dim, tuple(images))
    return Certificate(base, tuple(steps), cmap)
