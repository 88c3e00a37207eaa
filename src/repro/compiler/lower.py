"""Progressive lowering of CIN programs (Section 6 of the paper).

``Lowerer.lower_stmt`` walks the CIN tree emitting target statements.
At each forall it unfurls the accesses led by that index and then
repeatedly applies the highest-priority looplet pass present in the
body (Section 6.2's style resolution):

    Switch > Run > Spike > Pipeline > Jumper > Stepper > Lookup

Each pass rewrites the loop into simpler loops over subregions,
truncating the other looplets to match, and recurses.  Statement
simplification (zero annihilation, ``a[i] += 0 => pass``) runs between
passes, which is how entire subregions of work disappear when a sparse
operand contributes a run of fill.
"""

import contextlib

from repro.cin.nodes import (
    Access,
    Assign,
    Forall,
    Multi,
    Pass,
    Sieve,
    Where,
    stmt_exprs,
    walk_stmts,
)
from repro.cin.analyze import output_tensors
from repro.compiler.context import element_store, fill_literal
from repro.compiler.stmt_simplify import is_identity_literal, simplify_stmt
from repro.compiler.unfurl import (
    Unfurled,
    access_leads_with,
    payload_to_expr,
    unfurl_access,
)
from repro.ir import asm, build, ops
from repro.ir.nodes import (
    Call,
    Extent,
    Literal,
    Load,
    Slice,
    Var,
    replace_in_expr,
    substitute,
)
from repro.looplets import (
    Case,
    Jumper,
    Lookup,
    Pipeline,
    Run,
    Simplify,
    Spike,
    Stepper,
    Style,
    Switch,
    call_body,
    is_looplet,
    resolve_style,
    truncate,
)
from repro.rewrite import simplify_expr
from repro.rewrite.rules import value_range
from repro.tensors.output import RunOutput, SparseOutput
from repro.tensors.tensor import Tensor
from repro.util.errors import LoweringError

_IDEMPOTENT_REDUCTIONS = ("min", "max", "and", "or")


# --------------------------------------------------------------------------
# Tree rewriting helpers
# --------------------------------------------------------------------------
def map_stmt_exprs(stmt, fn):
    """Rebuild a CIN statement applying ``fn`` to its read expressions.

    Assignment targets are *not* mapped: outputs are written through
    the locate path, never unfurled as reads.
    """
    if isinstance(stmt, Assign):
        rhs = fn(stmt.rhs)
        if rhs is stmt.rhs:
            return stmt
        return Assign(stmt.lhs, stmt.op, rhs)
    if isinstance(stmt, Forall):
        body = map_stmt_exprs(stmt.body, fn)
        if body is stmt.body:
            return stmt
        return Forall(stmt.index, body, ext=stmt.ext)
    if isinstance(stmt, Sieve):
        cond = fn(stmt.cond)
        body = map_stmt_exprs(stmt.body, fn)
        if cond is stmt.cond and body is stmt.body:
            return stmt
        return Sieve(cond, body)
    if isinstance(stmt, Where):
        consumer = map_stmt_exprs(stmt.consumer, fn)
        producer = map_stmt_exprs(stmt.producer, fn)
        if consumer is stmt.consumer and producer is stmt.producer:
            return stmt
        return Where(consumer, producer)
    if isinstance(stmt, Multi):
        children = [map_stmt_exprs(child, fn) for child in stmt.stmts]
        if all(new is old for new, old in zip(children, stmt.stmts)):
            return stmt
        return Multi(children)
    return stmt


def collect_unfurled(stmt, index_name):
    """All Unfurled nodes tagged with ``index_name``, unique by identity."""
    seen = {}
    for node in walk_stmts(stmt):
        for expr in stmt_exprs(node):
            _collect_unfurled_expr(expr, index_name, seen)
    return list(seen.values())


def _collect_unfurled_expr(expr, index_name, seen):
    if isinstance(expr, Unfurled):
        if expr.index == index_name and id(expr) not in seen:
            seen[id(expr)] = expr
        return
    for child in expr.children():
        _collect_unfurled_expr(child, index_name, seen)


def ext_is_unit(ext):
    cond = simplify_expr(build.eq(build.plus(ext.start, 1), ext.stop))
    return cond == Literal(True)


def ext_is_empty(ext):
    cond = simplify_expr(build.ge(ext.start, ext.stop))
    return cond == Literal(True)


def _assigns(stmt, names):
    """Whether ``stmt`` assigns one of the scalar variables ``names``."""
    return isinstance(stmt, asm.AssignStmt) \
        and getattr(stmt.target, "name", None) in names


def read_setup(setup, stmt):
    """The statements of ``setup``, which runs before ``stmt``, less
    the assignments nothing after them reads: the fiber set-up of
    accesses whose looplets lowered to no code."""
    reads = set(asm.effects(stmt).reads)
    kept = []
    for piece in reversed(setup):
        if not _assigns(piece, asm.effects(piece).writes - reads):
            kept.append(piece)
            reads |= asm.effects(piece).reads
    return asm.Block(reversed(kept))


def folded_seek(stmt):
    """A seek statement with its search simplified; none when that
    leaves the cursor where it is (``q = q``: a search from a key no
    coordinate is below, :func:`repro.rewrite.rules.rule_seek_at_start`)."""
    stmt = asm.map_statement_exprs(stmt, simplify_expr)
    if isinstance(stmt, asm.AssignStmt) and stmt.target == stmt.value:
        return None
    return stmt


def landing(child, stride, var, test, implied):
    """A leader's ``child`` with each switch condition reading the
    let-bound ``var`` where it read ``stride``, and the landing test
    ``test`` read as ``implied``, which says the same within the step."""
    if not isinstance(child, Switch):
        return child
    cases = []
    for case in child.cases:
        cond = simplify_expr(replace_in_expr(
            case.cond, lambda expr: var if expr == stride else None))
        cases.append(Case(implied if cond == test else cond, case.body))
    return Switch(cases)


def then_advance(stmts, guard, advance):
    """``stmts``, then ``advance`` where ``guard`` holds: at the end of
    the last statement's first arm when that arm is taken on ``guard``
    (nothing the arm runs changes the let-bound operands of a guard)."""
    last = stmts[-1] if stmts else None
    if isinstance(last, asm.If) and last.branches[0][0] == guard:
        (cond, arm), *rest = last.branches
        return stmts[:-1] + [asm.If([(cond, asm.Block([arm, advance])),
                                     *rest])]
    return stmts + [build.if_([(guard, advance)])]


def bind_index(stmt, name, value):
    """``stmt`` reading the variable ``name`` as ``value``, with what
    that decides folded: each expression reading it is simplified
    again, and each branch and loop built again."""
    def rebuild(node):
        node = asm.map_statement_exprs(node, lambda expr: simplify_expr(
            substitute(expr, {name: value}))
            if name in expr.free_vars() else expr)
        if isinstance(node, asm.If):
            return build.if_(node.branches)
        if isinstance(node, asm.ForLoop):
            return build.for_(node.var, node.start, node.stop, node.body)
        return node

    return asm.map_statements(stmt, rebuild)


# --------------------------------------------------------------------------
# The lowerer
# --------------------------------------------------------------------------
class Lowerer:
    """Lowers one CIN program into target statements via a Context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._streams = {}  # id(append output) -> _append_stream()
        # What the enclosing branches decide: condition -> its literal.
        self._facts = {}
        # Each pipeline phase's stop -> the stops it is the least of
        # wherever a loop up to it runs.
        self._stop_terms = {}

    # -- facts from control flow ----------------------------------------
    def decide(self, cond):
        """``cond`` simplified, with what the enclosing branches decide
        about its parts folded in."""
        cond = simplify_expr(cond)
        facts = self._facts
        if facts:
            known = replace_in_expr(cond, lambda expr: facts.get(expr)
                                    if isinstance(expr, Call) else None)
            if known is not cond:
                cond = simplify_expr(known)
        return cond

    def nonempty(self, ext):
        """The condition that ``ext`` holds a slot, decided here."""
        return self.decide(build.lt(ext.start, ext.stop))

    @contextlib.contextmanager
    def assuming(self, facts):
        """Lower with the conditions ``facts`` maps decided."""
        saved = self._facts
        self._facts = {**saved, **facts}
        try:
            yield
        finally:
            self._facts = saved

    def branch_fact(self, cond, truth):
        """``{cond: truth}`` for a branch's condition when only
        let-bound variables (assigned once) are in it, so that nothing
        the branch runs can change its value; else nothing."""
        if isinstance(cond, Call) \
                and cond.free_vars() <= self.ctx.let_names:
            return {cond: Literal(truth)}
        return {}

    # -- statements ------------------------------------------------------
    def lower_stmt(self, stmt):
        stmt = simplify_stmt(stmt)
        if isinstance(stmt, Pass):
            return
        if isinstance(stmt, Assign):
            self.emit_assign(stmt)
        elif isinstance(stmt, Forall):
            self.lower_forall(stmt)
        elif isinstance(stmt, Where):
            self.lower_where(stmt)
        elif isinstance(stmt, Multi):
            for child in stmt.stmts:
                self.lower_stmt(child)
        elif isinstance(stmt, Sieve):
            self.lower_sieve(stmt)
        else:
            raise LoweringError("cannot lower statement %r" % (stmt,))

    def lower_kernel(self, program, outputs):
        """The kernel body for ``program``: the ``outputs``' resets,
        the lowered program, and the loads and stores of its scalars.
        A reset output scalar is never loaded."""
        ctx = self.ctx
        for tensor in outputs:
            self.emit_reset(tensor)
        resets = ctx.take_block().stmts
        self.lower_stmt(program)
        body = ctx.take_block()
        inits = [asm.AssignStmt(ctx.ops_var, Literal(0))] \
            if ctx.instrument else []
        stores = []
        for var, tensor, is_output in ctx.scalar_bindings():
            cell = Load(ctx.buffer(tensor.element.val, tensor.name + "_val"),
                        Literal(0))
            if not any(stmt.target == var for stmt in resets):
                inits.append(asm.AssignStmt(var, cell))
            if is_output:
                stores.append(asm.AssignStmt(cell, var))
        return asm.Block([*inits, *resets, body, *stores,
                          *self.append_epilogue()])

    def lower_where(self, stmt):
        for tensor in output_tensors(stmt.producer):
            self.emit_reset(tensor)
        self.lower_stmt(stmt.producer)
        self.lower_stmt(stmt.consumer)

    def lower_sieve(self, stmt):
        cond = simplify_expr(self.resolve_expr(stmt.cond))
        body = self.ctx.scoped(self.lower_stmt, stmt.body)
        self.ctx.emit(build.if_([(cond, body)]))

    def emit_reset(self, tensor):
        """Initialize a result tensor as it enters scope."""
        if isinstance(tensor, (RunOutput, SparseOutput)):
            _, _, state, count, cursor = self._append_stream(tensor)
            self.ctx.emit(asm.AssignStmt(count, Literal(0)))
            self.ctx.emit(asm.AssignStmt(cursor, Literal(0)))
            self.ctx.emit(asm.AssignStmt(Load(state, Literal(2)),
                                         Literal(0)))
            return
        if tensor.ndim == 0:
            var = self.ctx.mark_scalar_output(tensor)
            self.ctx.emit(asm.AssignStmt(var, fill_literal(tensor)))
            return
        # One slice assignment over the whole value buffer, whose length
        # the format signature pins (only fixed-shape levels take stores).
        val = tensor.element.val
        buf = self.ctx.buffer(val, tensor.name + "_val")
        self.ctx.emit(asm.AssignStmt(Slice(buf, 0, len(val)),
                                     fill_literal(tensor)))

    # -- foralls -----------------------------------------------------------
    def lower_forall(self, stmt):
        name = stmt.index.name
        ext = stmt.ext or self.ctx.extents.get(name)
        if ext is None:
            raise LoweringError("no extent known for index %r" % name)
        with self.ctx.scope() as setup:
            body = self._unfurl_in_stmt(stmt.body, name, ext)
        loop = self.ctx.scoped(self.lower_loop, stmt.index, ext, body)
        self.ctx.emit(read_setup(setup, loop))
        self.ctx.emit(loop)

    def _unfurl_in_stmt(self, stmt, index_name, ext):
        cache = {}

        def transform(expr):
            if isinstance(expr, Access) and access_leads_with(expr, index_name):
                key = expr.key()
                if key not in cache:
                    cache[key] = unfurl_access(self.ctx, expr, index_name,
                                               ext)
                return cache[key]
            return None

        return map_stmt_exprs(stmt, lambda e: replace_in_expr(e, transform))

    # -- the progressive loop lowerer -------------------------------------
    def lower_loop(self, index, ext, stmt):
        stmt = simplify_stmt(stmt)
        if isinstance(stmt, Pass) or ext_is_empty(ext):
            return
        nodes = collect_unfurled(stmt, index.name)
        style = resolve_style([node.looplet for node in nodes])
        if style == Style.SIMPLIFY:
            self.lower_simplify(index, ext, stmt, nodes)
        elif style == Style.SWITCH:
            self.lower_switch(index, ext, stmt, nodes)
        elif style == Style.RUN:
            self.lower_run(index, ext, stmt, nodes)
        elif style == Style.SPIKE:
            self.lower_spike(index, ext, stmt, nodes)
        elif style == Style.PIPELINE:
            self.lower_pipeline(index, ext, stmt, nodes)
        elif style == Style.JUMPER:
            self.lower_jumper(index, ext, stmt, nodes)
        elif style == Style.STEPPER:
            self.lower_stepper(index, ext, stmt, nodes)
        elif style == Style.LOOKUP:
            self.lower_lookup(index, ext, stmt, nodes)
        else:
            self.lower_leaf(index, ext, stmt)

    def _replace_nodes(self, stmt, mapping):
        def transform(expr):
            if isinstance(expr, Unfurled):
                return mapping.get(id(expr))
            return None

        return map_stmt_exprs(stmt, lambda e: replace_in_expr(e, transform))

    def _substituted(self, node, value):
        """An Unfurled node's replacement for a looplet-or-payload."""
        if is_looplet(value):
            return node.with_looplet(value)
        return payload_to_expr(self.ctx, value, node)

    # Simplify: a no-op trigger; lower_loop re-simplifies on entry, so
    # unwrapping and recursing is exactly "simplify as early as possible".
    def lower_simplify(self, index, ext, stmt, nodes):
        mapping = {}
        for node in nodes:
            if isinstance(node.looplet, Simplify):
                mapping[id(node)] = self._substituted(node,
                                                      node.looplet.body)
        self.lower_loop(index, ext, self._replace_nodes(stmt, mapping))

    # Switch: hoist runtime case conditions out of the loop.
    def lower_switch(self, index, ext, stmt, nodes):
        node = next(n for n in nodes if isinstance(n.looplet, Switch))
        branches = []
        missed = {}  # the conditions of the branches before this one
        for case in node.looplet.cases:
            cond = self.decide(case.cond)
            truth = build.literal_truth(cond)
            if truth is False:
                continue
            variant = self._replace_nodes(
                stmt, {id(node): self._substituted(node, case.body)})
            with self.assuming({**missed, **self.branch_fact(cond, True)}):
                branches.append((cond, self.ctx.scoped(
                    self.lower_loop, index, ext, variant)))
            if truth:
                break
            missed.update(self.branch_fact(cond, False))
        self.ctx.emit(build.if_(branches))

    # Run: unwrap constant regions into their scalar payloads.
    def lower_run(self, index, ext, stmt, nodes):
        mapping = {}
        for node in nodes:
            if isinstance(node.looplet, Run):
                mapping[id(node)] = self._substituted(node, node.looplet.body)
        self.lower_loop(index, ext, self._replace_nodes(stmt, mapping))

    # Spike: split into a body region and a unit tail region.
    def lower_spike(self, index, ext, stmt, nodes):
        body_ext = Extent(ext.start,
                          simplify_expr(build.minus(ext.stop, 1)))
        tail_ext = Extent(body_ext.stop, ext.stop)
        body_map = {}
        tail_map = {}
        for node in nodes:
            if isinstance(node.looplet, Spike):
                body_map[id(node)] = self._substituted(
                    node, Run(node.looplet.body))
                tail_map[id(node)] = self._substituted(
                    node, node.looplet.tail)
            else:
                body_map[id(node)] = self._substituted(
                    node, truncate(node.looplet, body_ext, ext))
                tail_map[id(node)] = self._substituted(
                    node, truncate(node.looplet, tail_ext, ext))

        def emit_regions():
            self.lower_loop(index, body_ext,
                            self._replace_nodes(stmt, body_map))
            self.lower_loop(index, tail_ext,
                            self._replace_nodes(stmt, tail_map))

        self.ctx.emit(build.if_([(self.nonempty(ext),
                                  self.ctx.scoped(emit_regions))]))

    # Pipeline: split the extent phase by phase.  The phase cursor is
    # an expression: each phase starts where the one before stopped.
    # Phases that all emit nothing take their stops with them.
    def lower_pipeline(self, index, ext, stmt, nodes):
        node = next(n for n in nodes if isinstance(n.looplet, Pipeline))
        phases = node.looplet.phases
        ran = False
        with self.ctx.scope() as pipeline:
            cur = self.ctx.let(index.name + "_start", ext.start)
            for position, phase in enumerate(phases):
                final = position == len(phases) - 1
                p_stop = ext.stop if final else self.ctx.let(
                    index.name + "_stop",
                    build.maximum(cur, build.minimum(phase.stride, ext.stop)))
                phase_ext, cur = Extent(cur, p_stop), p_stop
                if ext_is_empty(phase_ext):
                    continue  # not even the phase body's set-up
                declared = Extent(phase_ext.start,
                                  ext.stop if final else phase.stride)
                if not final:
                    # Where a loop up to p_stop runs, p_stop is past
                    # cur, so it is the least of the stride and stop.
                    self._stop_terms.setdefault(
                        p_stop, (phase.stride, *self._least_of(ext.stop)))
                body = call_body(phase.body, self.ctx, phase_ext)
                if is_looplet(body):
                    body = truncate(body, phase_ext, declared)
                    if not final and isinstance(body, Stepper):
                        body = body.within(phase.stride)
                mapping = {id(node): self._substituted(node, body)}
                for other in nodes:
                    if other is not node:
                        mapping[id(other)] = self._substituted(
                            other, truncate(other.looplet, phase_ext,
                                            Extent(phase_ext.start,
                                                   ext.stop)))
                block = self.ctx.scoped(self.lower_loop, index, phase_ext,
                                        self._replace_nodes(stmt, mapping))
                ran = ran or not block.is_nop()
                self.ctx.emit(build.if_([(self.nonempty(phase_ext),
                                          block)]))
        if ran:
            self.ctx.emit(asm.Block(pipeline))

    # Steppers/jumpers: a while loop of merge steps, each over the
    # region up to the nearest stride (a jumper's: the widest).  What a
    # step knows is decided here (docs/compilation.md, "What a merge
    # step knows").
    def lower_stepper(self, index, ext, stmt, nodes):
        self._lower_coiteration(index, ext, stmt, nodes, Stepper,
                                leaders_use_max=False)

    def lower_jumper(self, index, ext, stmt, nodes):
        self._lower_coiteration(index, ext, stmt, nodes, Jumper,
                                leaders_use_max=True)

    def _least_of(self, stop):
        """The stops ``stop`` is the least of where a loop up to it
        runs: its pipeline phases' strides, or itself."""
        return self._stop_terms.get(stop, (stop,))

    def _stop_bounds(self, stop, leaders):
        """Whether the loop's ``stop`` is never below the nearest
        stride of ``leaders``: each stop it is the least of is the end
        of a leader's phase, or above every value that end or the
        leader's stride can take."""
        def under(looplet, term):
            lo = value_range(term)[0]
            return any(bound is not None and (
                bound == term or value_range(bound)[1] <= lo)
                for bound in (looplet.stop, looplet.stride))

        return all(any(under(node.looplet, term) for node in leaders)
                   for term in self._least_of(stop))

    def _annihilates(self, stmt, fills):
        """Whether the rewriter folds ``stmt`` to nothing with any one
        node at its fill, for each ``(node, fill)`` of ``fills``."""
        return all(fill is not None and isinstance(
            simplify_stmt(self._replace_nodes(stmt, {
                id(node): self._substituted(node, fill)})),
            Pass) for node, fill in fills)

    def _lower_coiteration(self, index, ext, stmt, nodes, cls,
                           leaders_use_max):
        ctx = self.ctx
        leaders = [n for n in nodes if isinstance(n.looplet, cls)]
        # Over a unit extent every stride is past the one slot: one
        # step covers it, and there is no loop.
        unit = ext_is_unit(ext)
        if unit:
            cur = start = ext.start
        else:
            cur = Var(ctx.freshen(index.name + "_cur"), integral=True)
            ctx.emit(asm.AssignStmt(cur, ext.start))
            start = ext.start if isinstance(ext.start, (Literal, Var)) \
                else cur
        for node in leaders:
            for piece in node.looplet.preamble(ctx):
                ctx.emit(piece)
            for piece in node.looplet.seek(ctx, start):
                ctx.emit(folded_seek(piece))
            # A seek is one unit of coiteration work (a search, however
            # many probes it makes), counted where its search folded
            # away too.
            ctx.emit(ctx.count_op())
        # A stepper's step need not stop at the loop's stop when that
        # is never below its nearest stride.  A jumper's step whose
        # widest stride passes the stop is its last, when that leader's
        # fill, which it holds up to the stop, leaves the body nothing
        # to do.
        bounded = not leaders_use_max \
            and self._stop_bounds(ext.stop, leaders)
        ends = leaders_use_max and not unit and self._annihilates(
            stmt, [(node, node.looplet.fill) for node in leaders])
        clipped = not (unit or bounded or ends)
        # Two lists of spikes whose fill the body annihilates intersect
        # by comparing strides: the lesser list steps alone.
        three_way = bounded and not unit and len(leaders) == 2 \
            and all(isinstance(node.looplet.body, Spike)
                    for node in leaders) \
            and self._annihilates(stmt, [(node, node.looplet.body.body)
                                         for node in leaders])
        by_id = {id(node): position for position, node in enumerate(leaders)}

        def step():
            # Each merge step is one unit of coiteration work.
            ctx.emit(ctx.count_op())
            strides = [ctx.let(index.name + "_stride", node.looplet.stride)
                       for node in leaders]
            if three_way:
                ctx.emit(self._three_way_step(index, ext, stmt, nodes,
                                              leaders, strides, cur))
                return
            reach = (build.maximum if leaders_use_max
                     else build.minimum)(*strides)
            p_stop = ext.stop if unit else ctx.let(
                index.name + "_stop",
                build.minimum(reach, ext.stop) if clipped else reach)
            region = ext if unit else Extent(cur, p_stop)
            lands = [simplify_expr(build.eq(p_stop, stride))
                     for stride in strides]
            implied = list(lands)
            if not (unit or clipped):
                # p_stop is one of the strides: a leader that is not
                # the last lands when no other one does.
                implied[-1] = build.lor(lands[-1], build.land(*[
                    build.call(ops.NOT, land) for land in lands[:-1]]))
            mapping = {}
            for node in nodes:
                position = by_id.get(id(node))
                if position is None:
                    mapping[id(node)] = self._substituted(
                        node, truncate(node.looplet, region,
                                       Extent(cur, ext.stop)))
                    continue
                child = call_body(node.looplet.body, ctx, region)
                if is_looplet(child) and not leaders_use_max:
                    child = truncate(child, region,
                                     Extent(cur, strides[position]))
                mapping[id(node)] = self._substituted(node, landing(
                    child, node.looplet.stride, strides[position],
                    lands[position], implied[position]))
            # Every stride is past the cursor, so the region is not empty.
            facts = {} if unit else {self.nonempty(region): Literal(True)}
            with self.assuming(facts):
                block = ctx.scoped(self.lower_loop, index, region,
                                   self._replace_nodes(stmt, mapping))
            stmts = list(block.stmts)
            for node, land in zip(leaders, lands):
                advance = asm.Block(node.looplet.next(ctx))
                if not advance.is_nop():
                    stmts = then_advance(stmts, land, advance)
            if ends:
                stmts = [build.if_([(simplify_expr(build.le(
                    p_stop, ext.stop)), asm.Block(stmts))])]
            ctx.emit(asm.Block(stmts))
            if not unit:
                ctx.emit(asm.AssignStmt(cur, p_stop))

        if unit:
            step()
            return
        body = ctx.scoped(step, repeats=True)
        ctx.emit(asm.WhileLoop(build.lt(cur, ext.stop), body))

    def _three_way_step(self, index, ext, stmt, nodes, leaders, strides,
                        cur):
        """A merge step of two lists of spikes as ``if s1 < s2: ...
        elif s2 < s1: ... else: ...``: the region ends at the lesser
        stride, where only its list lands; on a tie both land.  A list
        that has not landed holds its fill over the region."""
        ctx = self.ctx
        first, second = strides
        branches = []
        for cond, p_stop, landed in (
                (build.lt(first, second), first, (True, False)),
                (build.lt(second, first), second, (False, True)),
                (Literal(True), first, (True, True))):
            region = Extent(cur, p_stop)
            mapping = {id(node): self._substituted(node, truncate(
                node.looplet, region, Extent(cur, ext.stop)))
                for node in nodes}
            for node, lands in zip(leaders, landed):
                spike = node.looplet.body
                mapping[id(node)] = self._substituted(
                    node, spike if lands else Run(spike.body))
            with self.assuming({self.nonempty(region): Literal(True)}):
                block = ctx.scoped(self.lower_loop, index, region,
                                   self._replace_nodes(stmt, mapping))
            advances = [piece for node, lands in zip(leaders, landed)
                        if lands for piece in node.looplet.next(ctx)]
            branches.append((cond, asm.Block(
                [block, *advances, asm.AssignStmt(cur, p_stop)])))
        return build.if_(branches)

    # Lookup: emit the for loop; element access happens per iteration.
    def lower_lookup(self, index, ext, stmt, nodes):
        if ext_is_unit(ext):
            mapping = {}
            for node in nodes:
                if isinstance(node.looplet, Lookup):
                    result = node.looplet.body(ext.start)
                    mapping[id(node)] = self._substituted(node, result)
            self.lower_loop(index, ext, self._replace_nodes(stmt, mapping))
            return
        ivar = Var(index.name, integral=True)
        unit = Extent(ivar, build.plus(ivar, 1))
        body = self.ctx.scoped(self.lower_loop, index, unit, stmt,
                               repeats=True)
        self.ctx.emit(build.for_(ivar, ext.start, ext.stop, body))

    # No looplets left for this index: bind or loop, with the constant-
    # loop rewrites of Figure 5 (run summation).
    def lower_leaf(self, index, ext, stmt):
        ivar = Var(index.name, integral=True)
        if ext_is_unit(ext):
            block = self.ctx.scoped(self.lower_stmt, stmt)
            if index.name not in asm.effects(block).reads \
                    or ext.start == ivar:
                self.ctx.emit(block)
            elif isinstance(ext.start, (Literal, Var)) \
                    and ext.start.free_vars().isdisjoint(
                        asm.effects(block).writes):
                self.ctx.emit(bind_index(block, index.name, ext.start))
            else:
                self.ctx.emit(asm.AssignStmt(ivar, ext.start))
                self.ctx.emit(block)
            return
        if (isinstance(stmt, Assign) and self.ctx.constant_loop_rewrite
                and self._emit_constant_loop(index, ext, stmt)):
            return
        body = self.ctx.scoped(self.lower_stmt, stmt, repeats=True)
        self.ctx.emit(build.for_(ivar, ext.start, ext.stop, body))

    def _emit_constant_loop(self, index, ext, stmt):
        """``@loop i ∈ a:b  C[...] += v`` with v independent of i becomes
        a single update scaled by the trip count (Figure 5, last rule)."""
        rhs = simplify_expr(self.resolve_expr(stmt.rhs))
        if isinstance(stmt.lhs.tensor, RunOutput):
            return self._emit_run_append(index, ext, stmt, rhs)
        if isinstance(stmt.lhs.tensor, SparseOutput):
            if isinstance(rhs, Literal) and not callable(rhs.value) \
                    and rhs.value == stmt.lhs.tensor.fill:
                return True  # a whole region of fill stores: no code
            return False  # per-element guarded appends
        target = self.assign_target(stmt.lhs)
        used = rhs.free_vars() | target.free_vars()
        for idx in stmt.lhs.idxs:
            used |= idx.free_vars()
        if index.name in used:
            return False
        length = simplify_expr(build.minus(ext.stop, ext.start))
        if stmt.op is not None and stmt.op.name == "add":
            scaled = simplify_expr(build.times(rhs, length))
            self.ctx.emit(asm.AccumStmt(target, stmt.op, scaled))
            self.ctx.emit(self.ctx.count_op())
            return True
        if stmt.op is not None and stmt.op.name == "mul":
            powed = simplify_expr(build.call(ops.POW, rhs, length))
            self.ctx.emit(asm.AccumStmt(target, stmt.op, powed))
            self.ctx.emit(self.ctx.count_op())
            return True
        if stmt.op is None or stmt.op.name in _IDEMPOTENT_REDUCTIONS:
            # Overwrites and idempotent reductions collapse to one step.
            single = self.ctx.scoped(self._emit_resolved_assign,
                                     stmt, target, rhs)
            self.ctx.emit(build.if_([(self.nonempty(ext), single)]))
            return True
        return False

    # -- append output assembly (Figure 10's RLE results) ----------------
    def _append_stream(self, tensor):
        """The kernel side of an append output: its three buffers, and
        the scalar Vars carrying its entry count and cursor from the
        reset to the epilogue's store-back."""
        key = id(tensor)
        if key not in self._streams:
            buffers = tensor.kernel_buffers()
            self._streams[key] = tuple(
                [self.ctx.buffer(buffers[role],
                                 "%s_%s" % (tensor.name, role))
                 for role in ("coords", "vals", "state")]
                + [Var(self.ctx.freshen("%s_%s" % (tensor.name, hint)),
                       integral=True)
                   for hint in ("n", "cur")])
        return self._streams[key]

    def append_epilogue(self):
        """Stores of every append output's count and cursor back into
        its state vector."""
        return [asm.AssignStmt(Load(state, Literal(slot)), var)
                for _, _, state, count, cursor in self._streams.values()
                for slot, var in enumerate((count, cursor))]

    def _flat_position(self, tensor, idxs):
        """Row-major flattened coordinate of an output access."""
        pos = Literal(0)
        for dim, idx in zip(tensor.shape, idxs):
            pos = build.plus(build.times(pos, dim), idx)
        return simplify_expr(pos)

    def _append(self, tensor, start, stop, value):
        """The statement storing one entry over flat coordinates
        ``[start, stop)``.

        In order, it advances the cursor — a run output first fills the
        gap behind it with a run of fill.  Behind the cursor it only
        raises the flag: every stored entry moves the cursor forward,
        which is what keeps the count within the streams' capacity.
        """
        coords, vals, state, count, cursor = self._append_stream(tensor)
        runs = isinstance(tensor, RunOutput)

        def push(coord, val):
            return [asm.AssignStmt(Load(coords, count), coord),
                    asm.AssignStmt(Load(vals, count), val),
                    asm.AccumStmt(count, ops.ADD, Literal(1))]

        entry = push(stop if runs else start, value)
        if runs:
            entry.insert(0, asm.If([(build.gt(start, cursor), asm.Block(
                push(start, fill_literal(tensor))))]))
        return asm.If([
            (build.lt(start, cursor),
             asm.AssignStmt(Load(state, Literal(2)), Literal(1))),
            (None, asm.Block(entry + [asm.AssignStmt(cursor, stop)]))])

    def _emit_run_append(self, index, ext, stmt, rhs):
        """Append one run covering a whole constant region."""
        tensor = stmt.lhs.tensor
        if stmt.op is not None:
            raise LoweringError(
                "run-length outputs support overwrite assignment only")
        if stmt.lhs.idxs[-1].name != index.name:
            return False
        for idx in stmt.lhs.idxs[:-1]:
            if index.name in idx.free_vars():
                return False
        if index.name in rhs.free_vars():
            return False
        start = self._flat_position(
            tensor, list(stmt.lhs.idxs[:-1]) + [ext.start])
        stop = self._flat_position(
            tensor, list(stmt.lhs.idxs[:-1]) + [ext.stop])
        self.ctx.emit(build.if_([(self.nonempty(ext),
                                  self._append(tensor, start, stop, rhs))]))
        self.ctx.emit(self.ctx.count_op())
        return True

    def _emit_point_append(self, stmt, rhs):
        """Append a single-element run (non-constant positions)."""
        tensor = stmt.lhs.tensor
        if stmt.op is not None:
            raise LoweringError(
                "run-length outputs support overwrite assignment only")
        flat = self._flat_position(tensor, stmt.lhs.idxs)
        self.ctx.emit(self._append(
            tensor, flat, simplify_expr(build.plus(flat, 1)), rhs))
        self.ctx.emit(self.ctx.count_op())

    def _emit_sparse_append(self, stmt, rhs):
        """Append one coordinate to a sparse output, guarded on fill."""
        tensor = stmt.lhs.tensor
        if stmt.op is not None:
            raise LoweringError(
                "sparse outputs support overwrite assignment only")
        if isinstance(rhs, Literal) and not callable(rhs.value) \
                and rhs.value == tensor.fill:
            # Statically-fill stores are elided entirely: the whole
            # point of sparse assembly.
            return
        flat = self._flat_position(tensor, stmt.lhs.idxs)
        value = self.ctx.assign(tensor.name + "_v", rhs)
        guard = build.ne(value, Literal(tensor.fill))
        append = self._append(
            tensor, flat, simplify_expr(build.plus(flat, 1)), value)
        self.ctx.emit(asm.If([
            (guard, asm.Block([append, self.ctx.count_op()]))]))

    # -- assignments ---------------------------------------------------
    def emit_assign(self, stmt):
        rhs = simplify_expr(self.resolve_expr(stmt.rhs))
        if is_identity_literal(rhs, stmt.op):
            return
        if isinstance(stmt.lhs.tensor, RunOutput):
            self._emit_point_append(stmt, rhs)
            return
        if isinstance(stmt.lhs.tensor, SparseOutput):
            self._emit_sparse_append(stmt, rhs)
            return
        target = self.assign_target(stmt.lhs)
        self._emit_resolved_assign(stmt, target, rhs)

    def _emit_resolved_assign(self, stmt, target, rhs):
        if stmt.op is None:
            self.ctx.emit(asm.AssignStmt(target, rhs))
        else:
            self.ctx.emit(asm.AccumStmt(target, stmt.op, rhs))
        self.ctx.emit(self.ctx.count_op())

    def assign_target(self, access):
        tensor = access.tensor
        if not isinstance(tensor, Tensor):
            raise LoweringError("outputs must be Tensors, got %r"
                                % (tensor,))
        if tensor.ndim == 0:
            return self.ctx.mark_scalar_output(tensor)
        pos = Literal(0)
        for level, idx in zip(tensor.levels, access.idxs):
            pos = level.locate(self.ctx, pos, idx)
        return element_store(self.ctx, tensor,
                             simplify_expr(pos))

    def resolve_expr(self, expr):
        def transform(node):
            if isinstance(node, Access):
                if isinstance(node.tensor, Tensor) and node.tensor.ndim == 0:
                    return self.ctx.scalar_ref(node.tensor)
                raise LoweringError(
                    "access %r was never unfurled; check that loop order "
                    "matches the access's mode order" % (node,))
            if isinstance(node, Unfurled):
                raise LoweringError(
                    "unlowered looplet remained in a scalar position: %r"
                    % (node,))
            return None

        return replace_in_expr(expr, transform)
