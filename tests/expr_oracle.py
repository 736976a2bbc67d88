"""Reference node methods and power runtime for cnfopt.expr.

``Expr`` below is the node class as cnfopt declared it before its three
methods became iterative: the same fields, with the methods that
``dataclasses`` generates, which recurse over the children.  ``mirror``
copies a cnfopt tree into it.  Tests require ``a == b``, ``hash(a)`` and
``repr(a)`` to equal what the mirrors give.

``checked_pow`` is the power helper that compiled code called for every
power above 3 before integer powers got a helper of their own.  Tests
require that helper and the general one to equal it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from cnfopt.expr import DomainError


@dataclass(frozen=True)
class Expr:
    kind: str
    value: float = 0.0
    block: str = ""
    index: int = 0
    children: tuple = ()
    pos: tuple | None = field(default=None, compare=False, repr=False)


def mirror(e, memo=None):
    """The tree ``e`` as reference nodes; a subtree shared in ``e`` is
    shared in the mirror, so identity shortcuts stay where they were."""
    memo = {} if memo is None else memo
    if id(e) not in memo:
        kids = tuple(mirror(c, memo) for c in e.children)
        memo[id(e)] = Expr(e.kind, e.value, e.block, e.index, kids, e.pos)
    return memo[id(e)]


def checked_pow(v, expo, loc):
    if v == 0.0 and expo < 0:
        raise DomainError(f"zero raised to negative power {loc}")
    if expo == int(expo):
        k = int(expo)
        try:
            return v**k
        except OverflowError:
            return math.inf if (v > 0 or k % 2 == 0) else -math.inf
    if v < 0.0:
        raise DomainError(f"fractional power {expo!r} of negative base {v!r} {loc}")
    try:
        return v**expo
    except OverflowError:
        return math.inf
