"""Arcs over the integer line and the functor actions on them.

An arc is an ordered pair of integers ``(t, u)`` with ``t < u``, pictured as
a semicircle over the number line.  For a fixed modulus ``n >= 1`` the
admissible arcs (``u - t >= 2`` and ``u - t congruent to 1 mod n``) index the
indecomposable objects of the n-cluster category of the infinity-gon; the
whole package is built on the two predicates defined here, admissibility and
crossing.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _EXPORTS
from .errors import DegeneratePair, NonAdmissible

__all__ = [*_EXPORTS["arcs"], "require_admissible"]


class _ModelParamsBase(NamedTuple):
    n: int


class ModelParams(_ModelParamsBase):
    """The integer n >= 1 fixing which arcs are admissible."""

    __slots__ = ()

    def __new__(cls, n: int) -> "ModelParams":
        if type(n) is not int or n < 1:  # bool included
            raise ValueError(f"modulus must be a positive integer, got {n!r}")
        return tuple.__new__(cls, (n,))


class _ArcBase(NamedTuple):
    t: int
    u: int


class Arc(_ArcBase):
    """Ordered pair of ``int`` endpoints ``t < u`` (a ``bool`` is refused); use
    :func:`normalize` for unordered input."""

    __slots__ = ()

    def __new__(cls, t: int, u: int) -> "Arc":
        if type(t) is not int or type(u) is not int:  # bool included
            raise ValueError(f"arc endpoints must be integers, got ({t!r}, {u!r})")
        if t < u:
            return tuple.__new__(cls, (t, u))
        if t == u:
            raise DegeneratePair(f"degenerate pair ({t}, {u})")
        raise ValueError(f"arc endpoints out of order: ({t}, {u}); use normalize()")

    def __repr__(self) -> str:  # compact, matches the on-paper notation
        return f"({self.t},{self.u})"


def normalize(t: int, u: int) -> Arc:
    """Build the arc with endpoints {t, u}, whichever order they arrive in."""
    if t == u:
        raise DegeneratePair(f"degenerate pair ({t}, {u})")
    return Arc(t, u) if t < u else Arc(u, t)


def is_admissible(a: Arc, p: ModelParams) -> bool:
    """True iff ``u - t >= 2`` and ``u - t`` is congruent to 1 mod n."""
    d, n = a.u - a.t, p.n
    return d >= 2 and d % n == 1 % n


def require_admissible(a: Arc, p: ModelParams) -> None:
    if not is_admissible(a, p):
        raise NonAdmissible(f"{a} is not admissible for n={p.n}")


def shift(a: Arc, k: int) -> Arc:
    """k-th power of the suspension: (t, u) -> (t - k, u - k)."""
    return Arc(a.t - k, a.u - k)


def serre(a: Arc, p: ModelParams) -> Arc:
    """Serre functor, the (n+1)-st shift: (t, u) -> (t - n - 1, u - n - 1)."""
    return shift(a, p.n + 1)


def tau(a: Arc, p: ModelParams) -> Arc:
    """AR translate, the n-th shift: (t, u) -> (t - n, u - n)."""
    return shift(a, p.n)


def component(a: Arc, p: ModelParams) -> int:
    """Index in [0, n) of the AR-quiver component containing ``a``.

    Components are the residue classes of the right endpoint; the shift acts
    on them cyclically (component drops by one per shift step) and the AR
    translate fixes them.
    """
    require_admissible(a, p)
    return a.u % p.n


def cross(a: Arc, b: Arc) -> bool:
    """Strict interleaving of endpoints; shared endpoints never cross."""
    return (a.t < b.t < a.u < b.u) or (b.t < a.t < b.u < a.u)
