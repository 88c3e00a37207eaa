"""Static analysis over CIN programs.

Collects tensors, infers loop extents from tensor dimensions, finds
result (output) tensors, validates the program shape before lowering,
and computes *structural keys* — the program's identity up to the data
it binds, used by the kernel cache to reuse compiled artifacts across
structurally-identical programs.
"""

from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    Multi,
    OffsetExpr,
    Pass,
    PermitExpr,
    Sieve,
    Where,
    WindowExpr,
    collect_accesses,
    stmt_children,
    walk_stmts,
)
import collections
import hashlib
import operator

from repro.ir import build
from repro.ir.nodes import Call, Extent, Literal, Var
from repro.util.errors import DimensionError, ReproError


def program_tensors(stmt):
    """All distinct tensors in the program, in first-use order."""
    seen = []
    for access in collect_accesses(stmt):
        if not any(access.tensor is tensor for tensor in seen):
            seen.append(access.tensor)
    return seen


def output_tensors(stmt):
    """Tensors written by assignments, in first-write order."""
    seen = []
    for node in walk_stmts(stmt):
        if isinstance(node, Assign):
            tensor = node.lhs.tensor
            if not any(tensor is t for t in seen):
                seen.append(tensor)
    return seen


def forall_indices(stmt):
    """Names of all forall-bound indices, outermost first."""
    return [node.index.name for node in walk_stmts(stmt)
            if isinstance(node, Forall)]


def _dimension_candidate(idx, dim):
    """The loop extent implied by using ``idx`` on a mode of size ``dim``.

    Returns ``(base_name, Extent)`` or ``None`` when the modifier chain
    makes the extent unbounded (permit) or shifted (offset).
    """
    if isinstance(idx, Var):
        return idx.name, Extent(0, dim)
    if isinstance(idx, WindowExpr) and isinstance(idx.base, Var):
        return idx.base.name, Extent(0, build.minus(idx.hi, idx.lo))
    if isinstance(idx, (OffsetExpr, PermitExpr)):
        return None
    return None


def infer_extents(stmt):
    """Map each forall index to its extent.

    Explicit extents on the forall win; otherwise every access using the
    index contributes a candidate from the corresponding mode dimension,
    and all candidates must agree.
    """
    explicit = {}
    for node in walk_stmts(stmt):
        if isinstance(node, Forall) and node.ext is not None:
            explicit[node.index.name] = node.ext

    candidates = {}
    for access in collect_accesses(stmt):
        shape = getattr(access.tensor, "shape", None)
        if shape is None:
            continue
        if len(shape) != len(access.idxs):
            raise DimensionError(
                "access %r has %d indices but the tensor has %d modes"
                % (access, len(access.idxs), len(shape)))
        for mode, idx in enumerate(access.idxs):
            candidate = _dimension_candidate(idx, shape[mode])
            if candidate is None:
                continue
            name, ext = candidate
            candidates.setdefault(name, []).append(ext)

    extents = dict(explicit)
    for name in forall_indices(stmt):
        if name in extents:
            continue
        options = candidates.get(name, [])
        if not options:
            raise DimensionError(
                "cannot infer an extent for index %r; give the forall an "
                "explicit extent" % name)
        first = options[0]
        for other in options[1:]:
            if _statically_conflicting(first, other):
                raise DimensionError(
                    "conflicting extents for index %r: %r vs %r"
                    % (name, first, other))
        extents[name] = first
    return extents


def _statically_conflicting(a, b):
    if a == b:
        return False
    both_static = all(isinstance(e, Literal)
                      for e in (a.start, a.stop, b.start, b.stop))
    return both_static


# --------------------------------------------------------------------------
# Structural keys (the kernel cache's notion of program identity)
# --------------------------------------------------------------------------
def tensor_signature(tensor):
    """The format signature of any tensor-protocol object.

    Objects without a ``format_signature`` method are opaque: they are
    keyed by identity, so they only ever match themselves.
    """
    try:
        fn = tensor.format_signature
    except AttributeError:
        return ("opaque", id(tensor))
    return fn()


def tensor_binding_buffers(tensor):
    """The canonical role -> buffer mapping for kernel (re)binding."""
    try:
        fn = tensor.kernel_buffers
    except AttributeError:
        return {}
    return fn()


def tensor_pins(tensor):
    """One read of any tensor-protocol object: ``(format_signature(),
    *kernel_buffers().values())``, by ``kernel_pins()`` where defined.
    A kernel parameter names its buffer by position in it."""
    try:
        read = tensor.kernel_pins
    except AttributeError:
        return (tensor_signature(tensor),
                *tensor_binding_buffers(tensor).values())
    return read()


def structural_key(stmt):
    """A hashable key identifying the program up to the data it binds.

    The CIN tree is hashed with every tensor replaced by its *slot*
    (position in first-use order) and its :func:`tensor_signature` —
    level nesting, shapes, fill, and dtype, but never the backing
    arrays.  Two programs with equal structural keys lower to the same
    emitted code, so one compiled kernel serves both once rebound
    (the premise of :class:`repro.compiler.kernel.KernelCache`).

    Buffer *aliasing* between slots is part of the key: when two slots
    share a backing array the compiler collapses them into a single
    kernel parameter, so the sharing pattern must match for a cached
    kernel to be rebindable.
    """
    return program_walk(stmt).key


#: What one walk over a program finds (:func:`program_walk`): the
#: :func:`structural_key`, the kernel's slots (:func:`program_tensors`),
#: the slot of each of :func:`output_tensors`, each slot's
#: :func:`tensor_pins` and the slots' :func:`buffer_alias_groups`.
ProgramWalk = collections.namedtuple(
    "ProgramWalk", "key tensors output_slots pins alias_groups")


def program_walk(stmt):
    """One pass over ``stmt`` that yields everything a compile reads
    from the program tree, as a :class:`ProgramWalk`: the structural
    key, the tensors in slot order, the output slots, and each
    tensor's :func:`tensor_pins` — read once per tensor, for the key's
    signatures and alias groups and for the kernel's bind.

    The key numbers every tensor it meets; the slots count only the
    tensors that assignments and sieves access.  The two orders agree
    unless a ``pass`` or a forall extent names a tensor first.
    """
    numbered = {}   # id(tensor) -> key slot
    keyed = []      # tensors in key-slot order
    slots = {}      # id(tensor) -> kernel slot
    tensors = []    # tensors in kernel-slot order
    outputs = []

    def number(tensor):
        ident = id(tensor)
        slot = numbered.get(ident)
        if slot is None:
            slot = numbered[ident] = len(keyed)
            keyed.append(tensor)
        return slot

    def expr_key(expr, accessed):
        if isinstance(expr, Access):
            tensor = expr.tensor
            if accessed and id(tensor) not in slots:
                slots[id(tensor)] = len(tensors)
                tensors.append(tensor)
            return (("access", number(tensor), expr.protocols)
                    + tuple([expr_key(idx, accessed)
                             for idx in expr.idxs]))
        children = expr.children()
        if not children:
            # Leaves (Literal, Var) have data-independent keys already.
            return expr.key()
        if isinstance(expr, Call):
            head = ("call", expr.op.name)
        else:
            head = (type(expr).__name__,)
        return head + tuple([expr_key(child, accessed)
                             for child in children])

    def stmt_key(stmt):
        if isinstance(stmt, Assign):
            lhs = expr_key(stmt.lhs, True)
            slot = slots[id(stmt.lhs.tensor)]
            if slot not in outputs:
                outputs.append(slot)
            return ("assign", None if stmt.op is None else stmt.op.name,
                    lhs, expr_key(stmt.rhs, True))
        if isinstance(stmt, Forall):
            ext = stmt.ext
            return ("forall", stmt.index.name,
                    None if ext is None else
                    ("extent", expr_key(ext.start, False),
                     expr_key(ext.stop, False)),
                    stmt_key(stmt.body))
        if isinstance(stmt, Sieve):
            return ("sieve", expr_key(stmt.cond, True),
                    stmt_key(stmt.body))
        if isinstance(stmt, Where):
            return ("where", stmt_key(stmt.consumer),
                    stmt_key(stmt.producer))
        if isinstance(stmt, Multi):
            return ("multi",) + tuple([stmt_key(child)
                                       for child in stmt.stmts])
        if isinstance(stmt, Pass):
            return ("pass",) + tuple([number(tensor)
                                      for tensor in stmt.tensors])
        raise ReproError("cannot key statement %r" % (stmt,))

    body = stmt_key(stmt)
    pins = [tensor_pins(tensor) for tensor in keyed]
    groups = _alias_groups(pins)
    key = ("cin", body, tuple([read[0] for read in pins]), groups)
    if len(keyed) != len(tensors) or any(map(operator.is_not, keyed,
                                             tensors)):
        by_id = dict(zip(map(id, keyed), pins))
        pins = [by_id[id(tensor)] for tensor in tensors]
        groups = _alias_groups(pins)
    return ProgramWalk(key, tensors, tuple(outputs), pins, groups)


def structural_digest(key, length=12):
    """A short, stable hex digest of a structural key (or any nested
    key tuple), for log lines, error messages, and store keys.

    Structural keys are deeply nested tuples — far too long to print —
    but operators debugging a batch failure or a cache anomaly need a
    stable handle to correlate kernels across processes and log lines.
    ``length`` widens the digest for consumers that address content by
    it (the persistent kernel store uses 40 hex chars); the default 12
    keeps log lines short.  Returns ``"?"`` for ``None`` so message
    formatting never branches.
    """
    if key is None:
        return "?"
    payload = repr(key).encode("utf-8")
    return hashlib.sha1(payload).hexdigest()[:length]


def buffer_alias_groups(tensors):
    """Groups of ``(slot, position in its tensor_pins)`` pairs whose
    buffers are one object."""
    return _alias_groups(list(map(tensor_pins, tensors)))


def _alias_groups(pins):
    """:func:`buffer_alias_groups` over each slot's read pins."""
    ids = [id(buf) for read in pins for buf in read[1:]]
    if len(set(ids)) == len(ids):
        return ()
    owners = {}
    for slot, read in enumerate(pins):
        for position, buf in enumerate(read[1:], 1):
            owners.setdefault(id(buf), []).append((slot, position))
    return tuple(tuple(group) for group in owners.values()
                 if len(group) > 1)


def check_program(stmt):
    """Validate program shape; raises on malformed programs."""
    names_in_scope = []
    _check(stmt, names_in_scope)


def _check(stmt, names_in_scope):
    if isinstance(stmt, Forall):
        if stmt.index.name in names_in_scope:
            raise ReproError("index %r bound twice" % stmt.index.name)
        names_in_scope.append(stmt.index.name)
        _check(stmt.body, names_in_scope)
        names_in_scope.pop()
        return
    if isinstance(stmt, Assign):
        for idx in stmt.lhs.idxs:
            if not isinstance(idx, Var):
                raise ReproError(
                    "assignment targets must use plain indices, got %r"
                    % (idx,))
        return
    if isinstance(stmt, Sieve):
        _check(stmt.body, names_in_scope)
        return
    for child in stmt_children(stmt):
        _check(child, names_in_scope)


__all__ = [
    "ProgramWalk",
    "buffer_alias_groups",
    "check_program",
    "forall_indices",
    "infer_extents",
    "output_tensors",
    "program_tensors",
    "program_walk",
    "structural_key",
    "tensor_binding_buffers",
    "tensor_pins",
    "tensor_signature",
]
