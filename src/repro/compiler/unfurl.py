"""Unfurling: turning tensor accesses into looplet nests.

At each forall, every access whose *leading* unconsumed index is the
forall's index is unfurled: the tensor's level produces a looplet nest
(under the access's declared protocol), the Section 8 index modifiers
wrap it (shift for ``offset``, truncate+shift for ``window``, a
missing-padded pipeline for ``permit``), and the access is replaced in
the expression tree by an :class:`Unfurled` leaf tagged with the index.

When lowering later reaches a leaf payload, :func:`payload_to_expr`
turns it back into either a scalar load (element level reached) or a
new Access on the child fiber, to be unfurled by an inner forall.
"""

from repro.cin.nodes import Access, OffsetExpr, PermitExpr, WindowExpr
from repro.formats.level import FiberSlice, FillFiber
from repro.ir import build
from repro.ir.nodes import Expr, Extent, Literal, Var
from repro.ir.ops import MISSING
from repro.looplets import (
    Phase,
    Pipeline,
    Run,
    is_looplet,
    shift_looplet,
    truncate,
)
from repro.tensors.tensor import Tensor
from repro.util.errors import DimensionError, LoweringError


class Unfurled(Expr):
    """A looplet standing where an access used to be.

    ``index`` names the forall this node belongs to; ``rest`` and
    ``protocols`` describe the access's remaining (inner) modes.
    """

    __slots__ = ("looplet", "index", "rest", "protocols")

    def __init__(self, looplet, index, rest=(), protocols=()):
        self.looplet = looplet
        self.index = index
        self.rest = tuple(rest)
        self.protocols = tuple(protocols)

    def key(self):
        return ("unfurled", id(self))

    def children(self):
        return ()

    def rebuild(self, children):
        return self

    def with_looplet(self, looplet):
        return Unfurled(looplet, self.index, self.rest, self.protocols)

    def __repr__(self):
        return "Unfurled(%r @ %s)" % (self.looplet, self.index)


def leading_base(idx):
    """The plain Var at the bottom of an index-modifier chain, if any."""
    while isinstance(idx, (OffsetExpr, WindowExpr, PermitExpr)):
        idx = idx.base
    return idx if isinstance(idx, Var) else None


def access_leads_with(access, index_name):
    base = leading_base(access.idxs[0]) if access.idxs else None
    return base is not None and base.name == index_name


def unfurl_access(ctx, access, index_name, ext=None):
    """Unfurl one access at the forall binding ``index_name``, whose
    loop runs over ``ext``."""
    looplet, domain = _unfurl_core(ctx, access)
    looplet, domain = _apply_modifiers(ctx, looplet, domain, access.idxs[0])
    _check_domain(ext, domain)
    return Unfurled(looplet, index_name, access.idxs[1:],
                    access.protocols[1:])


def _check_domain(ext, domain):
    """Reject a static loop extent that leaves the access's static
    domain, as the reference interpreter does at the first index
    outside it: a kernel would read out of bounds.  A ``permit`` in the
    chain leaves no domain to leave."""
    if ext is None or domain is None:
        return
    ends = (ext.start, ext.stop, domain.start, domain.stop)
    if not all(isinstance(end, Literal) for end in ends):
        return
    start, stop, lo, hi = (end.value for end in ends)
    if start >= stop or (lo <= start and stop <= hi):
        return
    first = start if not lo <= start < hi else hi
    raise DimensionError(
        "index %r out of bounds for domain [%r, %r) (use permit for "
        "padded accesses)" % (first, lo, hi))


def _unfurl_core(ctx, access):
    """Unfurl the tensor/fiber behind an access, before modifiers."""
    proto = access.protocols[0]
    target = access.tensor
    if isinstance(target, Tensor):
        if target.ndim == 0:
            raise LoweringError("cannot iterate a 0-dimensional tensor")
        level = target.levels[0]
        looplet = level.unfurl(ctx, Literal(0), proto)
        domain = Extent(0, level.shape)
    elif isinstance(target, (FiberSlice, FillFiber)):
        looplet = target.unfurl(ctx, proto)
        shape = getattr(target.level, "shape", None)
        domain = Extent(0, shape if shape is not None else 0)
    elif hasattr(target, "unfurl_root"):
        # User-defined looplet formats (repro.formats.custom).
        looplet = target.unfurl_root(ctx, proto)
        domain = Extent(0, target.shape[0])
    else:
        raise LoweringError("cannot unfurl %r" % (target,))
    return looplet, domain


def _apply_modifiers(ctx, looplet, domain, idx):
    """Wrap ``looplet`` with the access's index modifiers, outermost
    modifier first (closest to the tensor)."""
    chain = []
    node = idx
    while isinstance(node, (OffsetExpr, WindowExpr, PermitExpr)):
        chain.append(node)
        node = node.base
    if not isinstance(node, Var):
        raise LoweringError(
            "opaque index expression %r; use a sieve to express scatters"
            % (idx,))
    for modifier in chain:
        if isinstance(modifier, PermitExpr):
            looplet, domain = _apply_permit(looplet, domain)
        elif isinstance(modifier, OffsetExpr):
            looplet, domain = _apply_offset(looplet, domain, modifier.delta)
        else:
            looplet, domain = _apply_window(looplet, domain,
                                            modifier.lo, modifier.hi)
    return looplet, domain


def _apply_permit(looplet, domain):
    wrapped = Pipeline([
        Phase(Run(Literal(MISSING)), stride=domain.start),
        Phase(looplet, stride=domain.stop),
        Phase(Run(Literal(MISSING))),
    ])
    # The permitted access is valid everywhere; the caller's loop extent
    # bounds it in practice.
    return wrapped, None


def _apply_offset(looplet, domain, delta):
    shifted = shift_looplet(looplet, delta)
    if domain is None:
        return shifted, None
    return shifted, Extent(build.plus(domain.start, delta),
                           build.plus(domain.stop, delta))


def _apply_window(looplet, domain, lo, hi):
    if domain is None:
        raise LoweringError("cannot window an unbounded (permit) access")
    clipped = truncate(looplet, Extent(lo, hi), domain)
    shifted = shift_looplet(clipped, build.negate(lo))
    return shifted, Extent(0, build.minus(hi, lo))


def payload_to_expr(ctx, payload, unfurled):
    """Convert a leaf payload back into an expression.

    Terminal payloads become scalar loads; deeper fibers become fresh
    Access nodes carrying the unfurled access's remaining indices.
    """
    if is_looplet(payload):
        raise LoweringError("payload is still a looplet: %r" % (payload,))
    if isinstance(payload, (FiberSlice, FillFiber)):
        if unfurled.rest:
            return Access(payload, unfurled.rest, unfurled.protocols)
        if not payload.is_scalar():
            raise LoweringError(
                "access consumed all indices but the fiber is not "
                "terminal: %r" % (payload,))
        return payload.scalar(ctx)
    if isinstance(payload, Expr):
        if unfurled.rest:
            if payload == Literal(MISSING):
                # A[missing] is missing at every deeper mode (Sec. 8).
                return payload
            raise LoweringError(
                "scalar payload %r cannot satisfy remaining indices %r"
                % (payload, unfurled.rest))
        return payload
    raise LoweringError("unrecognized payload %r" % (payload,))
