"""Schedule extraction, rewriting, and candidate enumeration.

A *schedule* is what the autotuner is allowed to vary without changing
what a program computes: the access protocol of every tensor mode
(walk or gallop), which decides the coiteration strategy the compiler
lowers — the paper's headline asymptotic knob.  ``opt_level`` and the
backend are not part of it: they resolve as for any compile
(:mod:`repro.util.config`), and a search measures at the configuration
it runs under.

Schedules are plain JSON dicts::

    {"protocols": [[proto, ...] per access]}

``protocols`` lists one entry per :class:`~repro.cin.nodes.Access` in
:func:`~repro.cin.nodes.collect_accesses` preorder — the one canonical
traversal shared by :func:`extract_protocols` (read a program's
schedule) and :func:`apply_schedule` (rebuild the program with a new
one), so a schedule round-trips losslessly.

The *tuning key* is deliberately protocol-erased: protocols are part of
the structural key (two protocol variants of one program compile to
different kernels), so the winners table is addressed by the structural
digest of the program with every protocol reset to ``walk``
(:func:`neutral_digest`).  Any protocol spelling of a program maps to
the same table row — which is the point: the tuner, not the program
author, decides protocols.  The key also carries the ``opt_level`` and
backend the row was measured at, so a winner is only ever applied
under the configuration that measured it.
"""

from itertools import product

from repro.cin.analyze import structural_digest, structural_key
from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    Multi,
    Pass,
    Sieve,
    Where,
    collect_accesses,
    index_base,
)
from repro.ir.nodes import Var
from repro.util.errors import ReproError

#: Bumped when the schedule layout or the tuning-key derivation changes
#: incompatibly; part of every tuning key, so old winners read as
#: misses rather than misapply.
TUNE_VERSION = 3

#: Above this many full-cartesian protocol assignments the enumerator
#: falls back to baseline + single-site mutations.
MAX_CARTESIAN = 64


def extract_protocols(program):
    """The program's per-access protocol tuples, in canonical
    (:func:`collect_accesses` preorder) order, as nested lists."""
    return [list(access.protocols) for access in collect_accesses(program)]


def apply_protocols(program, protocols):
    """``program`` rebuilt with every access's protocols replaced.

    ``protocols`` must list one per-mode sequence per access, in the
    same :func:`collect_accesses` preorder :func:`extract_protocols`
    uses.  Tensors are shared, never copied — the rebuilt program binds
    the same data.  Raises :class:`ReproError` on a count mismatch.
    """
    expected = len(collect_accesses(program))
    if len(protocols) != expected:
        raise ReproError(
            "schedule lists %d access protocol entries, program has %d"
            % (len(protocols), expected))
    queue = [tuple(entry) for entry in protocols]
    position = [0]

    def next_protos(access):
        protos = queue[position[0]]
        position[0] += 1
        if len(protos) != len(access.idxs):
            raise ReproError(
                "schedule entry %d has %d protocols, access %r has "
                "%d modes" % (position[0] - 1, len(protos), access,
                              len(access.idxs)))
        return protos

    def rebuild_expr(expr):
        if isinstance(expr, Access):
            protos = next_protos(expr)  # preorder: self before children
            idxs = tuple(rebuild_expr(idx) for idx in expr.idxs)
            return Access(expr.tensor, idxs, protos)
        children = expr.children()
        if not children:
            return expr
        return expr.rebuild(tuple(rebuild_expr(child)
                                  for child in children))

    def rebuild_stmt(stmt):
        if isinstance(stmt, Assign):
            lhs = rebuild_expr(stmt.lhs)
            rhs = rebuild_expr(stmt.rhs)
            return Assign(lhs, stmt.op, rhs)
        if isinstance(stmt, Forall):
            return Forall(stmt.index, rebuild_stmt(stmt.body),
                          ext=stmt.ext)
        if isinstance(stmt, Sieve):
            return Sieve(rebuild_expr(stmt.cond),
                         rebuild_stmt(stmt.body))
        if isinstance(stmt, Where):
            consumer = rebuild_stmt(stmt.consumer)
            producer = rebuild_stmt(stmt.producer)
            return Where(consumer, producer)
        if isinstance(stmt, Multi):
            return Multi(tuple(rebuild_stmt(child)
                               for child in stmt.stmts))
        if isinstance(stmt, Pass):
            return stmt
        raise ReproError("cannot rewrite statement %r" % (stmt,))

    return rebuild_stmt(program)


def apply_schedule(program, schedule):
    """``program`` rewritten per ``schedule["protocols"]``."""
    return apply_protocols(program, schedule["protocols"])


def neutral_program(program):
    """``program`` with every protocol reset to ``walk``."""
    return apply_protocols(
        program,
        [["walk"] * len(access.idxs)
         for access in collect_accesses(program)])


def neutral_digest(program, length=40):
    """The protocol-erased structural digest — the tuning-table
    address shared by every protocol spelling of one program."""
    return structural_digest(structural_key(neutral_program(program)),
                             length=length)


def tuning_key_meta(program, opt_level, backend,
                    constant_loop_rewrite=True):
    """The winners-table key for one program structure compiled at
    one resolved ``opt_level`` and ``backend``.

    Shares the kernel entries' invalidation discipline — the same
    :func:`repro.compiler.key.version_axes` plus the tune layout
    version — so a winner can never outlive the compiler that measured
    it.  It carries the compile configuration the search measured at,
    so a row only answers a compile at that configuration, and no
    ``instrument``/``name`` (a tuning is a property of the program
    structure, not of one compile's labeling).
    """
    from repro.compiler.key import version_axes

    return dict(
        version_axes(),
        kind="tuning",
        tune_version=TUNE_VERSION,
        structural_digest=neutral_digest(program),
        constant_loop_rewrite=bool(constant_loop_rewrite),
        opt_level=int(opt_level),
        backend=str(backend),
    )


def validate_schedule(program, schedule):
    """True when ``schedule["protocols"]`` shape-matches ``program``
    and names only known protocols — the gate a table hit must pass
    before it is applied (a winner recorded for a different program
    must never rewrite this one).  Any other key is ignored."""
    from repro.cin.nodes import PROTOCOLS

    if not isinstance(schedule, dict):
        return False
    protocols = schedule.get("protocols")
    accesses = collect_accesses(program)
    if not isinstance(protocols, list) or len(protocols) != len(accesses):
        return False
    for entry, access in zip(protocols, accesses):
        if not isinstance(entry, list) or len(entry) != len(access.idxs):
            return False
        if any(p not in PROTOCOLS for p in entry):
            return False
    return True


def tunable_sites(program):
    """The protocol search sites of one program.

    Each site is ``(access position, mode, options)`` where ``options``
    are the protocol names the access's level format supports.  Only
    *read* accesses over loop indices are tunable: assignment targets
    keep their protocols (outputs are appended/located by the lowerer,
    not coiterated), and a mode whose format supports a single protocol
    has nothing to search.
    """
    from repro.cin.nodes import walk_stmts

    writes = set()
    for stmt in walk_stmts(program):
        if isinstance(stmt, Assign):
            writes.add(id(stmt.lhs))
    sites = []
    for pos, access in enumerate(collect_accesses(program)):
        if id(access) in writes:
            continue
        levels = getattr(access.tensor, "levels", None)
        if not levels:
            continue
        for mode, idx in enumerate(access.idxs):
            if mode >= len(levels):
                continue
            if not isinstance(index_base(idx), Var):
                continue
            options = levels[mode].PROTOCOLS
            if len(options) > 1:
                sites.append((pos, mode, options))
    return sites


def enumerate_candidates(program, max_cartesian=MAX_CARTESIAN):
    """Every candidate schedule for ``program``, as written first.

    Protocol assignments come from the full cartesian product over the
    :func:`tunable_sites` when it stays within ``max_cartesian``,
    otherwise from the baseline plus every single-site mutation (a
    coordinate-descent neighborhood).  The first candidate is always
    the program exactly as written, so a measured "win" is always a win
    over what the user would have gotten.
    """
    baseline = extract_protocols(program)
    sites = tunable_sites(program)
    assignments = [baseline]
    seen = {_freeze(baseline)}

    def admit(protocols):
        key = _freeze(protocols)
        if key in seen:
            return
        seen.add(key)
        assignments.append(protocols)

    total = 1
    for _, _, options in sites:
        total *= len(options)
    if sites and total <= max_cartesian:
        for combo in product(*(options for _, _, options in sites)):
            protocols = [list(entry) for entry in baseline]
            for (pos, mode, _), choice in zip(sites, combo):
                protocols[pos][mode] = choice
            admit(protocols)
    else:
        for pos, mode, options in sites:
            for choice in options:
                protocols = [list(entry) for entry in baseline]
                protocols[pos][mode] = choice
                admit(protocols)

    return [{"protocols": protocols} for protocols in assignments]


def _freeze(protocols):
    return tuple(tuple(entry) for entry in protocols)


def describe_schedule(schedule):
    """A compact one-line rendering for tables and logs."""
    return "/".join(
        ",".join(entry)
        for entry in schedule["protocols"])
