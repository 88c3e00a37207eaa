"""The lowerer emits folded code: the normal form no optimizer pass is
needed to reach.

The tree-walk tests take each kernel as lowering hands it over (the
tree ``opt_level=0`` emits) for the six paper figures and the first 40
``quick`` fuzz specs, and check four things the folding constructors
guarantee:

* no ``If`` on a literal condition;
* no ``ForLoop`` over a literal empty or unit extent;
* no scalar assigned a literal or a variable exactly once (and never
  written again): that value is substituted, not assigned;
* no load of a scalar output that is reset before it is read.

The unit tests below drive the lowering context's constructors
directly (literal accumulations, naming a value once, set-up nothing
reads, binding a unit index).
"""

import collections

import numpy as np
import pytest

import repro.compiler.kernel as compiler
import repro.lang as fl
from repro.bench.figures import warm_start_programs
from repro.compiler.context import Context
from repro.compiler.lower import bind_index, read_setup
from repro.fuzz.gen import build_case, generate_spec
from repro.ir import Call, Literal, Load, Slice, Var, asm, build, ops
from repro.ir.emit import emit
from repro.ir.nodes import Reduce
from repro.ir.optimize import optimize_kernel
from repro.rewrite import simplify_expr


def lowered_tree(program):
    """The kernel of ``program`` as lowering hands it to the optimizer
    (what ``opt_level=0`` emits)."""
    trees = []

    def keep(func, level, buffers=None):
        trees.append(func)
        return optimize_kernel(func, level, buffers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiler, "optimize_kernel", keep)
        fl.compile_kernel(program, cache=False, opt_level=1)
    return trees[0]


def _programs():
    for figure, _, make, _ in warm_start_programs():
        yield figure, make
    for seed in range(40):
        spec = generate_spec(seed, "quick")
        yield "quick:%d" % seed, lambda spec=spec: build_case(spec).program


@pytest.fixture(scope="module")
def lowered():
    return {name: lowered_tree(make()) for name, make in _programs()}


def literal_ifs(func):
    return [stmt for stmt in asm.walk_statements(func)
            if isinstance(stmt, asm.If)
            and any(isinstance(cond, Literal) for cond, _ in stmt.branches)]


def literal_short_loops(func):
    return [stmt for stmt in asm.walk_statements(func)
            if isinstance(stmt, asm.ForLoop)
            and isinstance(stmt.start, Literal)
            and isinstance(stmt.stop, Literal)
            and stmt.stop.value - stmt.start.value <= 1]


def single_copies(func):
    """Temporaries written once, by an assignment of a literal or a
    variable.  A scalar the kernel ends by storing into an output cell
    (an accumulator, an append output's count or cursor) is that
    output's state, not a temporary: a reset the body never touches is
    stored as it is."""
    writes = collections.defaultdict(list)
    for stmt in asm.walk_statements(func):
        if isinstance(stmt, (asm.AssignStmt, asm.AccumStmt)) \
                and isinstance(stmt.target, Var):
            writes[stmt.target.name].append(stmt)
        elif isinstance(stmt, asm.ForLoop):
            writes[stmt.var.name].append(stmt)
    stored = {stmt.value.name for stmt in func.body.stmts
              if isinstance(stmt, asm.AssignStmt)
              and isinstance(stmt.target, Load)
              and isinstance(stmt.value, Var)}
    return sorted(
        name for name, stmts in writes.items()
        if len(stmts) == 1 and isinstance(stmts[0], asm.AssignStmt)
        and isinstance(stmts[0].value, (Literal, Var))
        and name not in stored)


def dead_output_loads(func):
    """Top-level loads ``v = buf[0]`` whose value the next statement
    touching ``v`` overwrites without reading."""
    stmts = func.body.stmts
    dead = []
    for pos, stmt in enumerate(stmts):
        if not (isinstance(stmt, asm.AssignStmt)
                and isinstance(stmt.target, Var)
                and isinstance(stmt.value, Load)):
            continue
        name = stmt.target.name
        for later in stmts[pos + 1:]:
            touched = asm.effects(later)
            if name in touched.reads:
                break
            if name in touched.writes:
                if isinstance(later, asm.AssignStmt):
                    dead.append(name)
                break
    return dead


@pytest.mark.parametrize("check", [literal_ifs, literal_short_loops,
                                   single_copies, dead_output_loads],
                         ids=lambda check: check.__name__)
def test_lowered_kernels_are_in_normal_form(check, lowered):
    found = {name: check(func) for name, func in lowered.items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_walk_sees_figures_and_fuzz_specs(lowered):
    assert len(lowered) == 46
    assert sum(isinstance(stmt, asm.If) for func in lowered.values()
               for stmt in asm.walk_statements(func)) > 100


class TestLiteralAccumulation:
    def emitted(self, ctx):
        return emit(ctx.take_block())

    def test_folds_into_an_assignment(self):
        ctx = Context()
        ctx.emit(asm.AssignStmt(Var("n"), Literal(0)))
        ctx.emit(ctx.accumulate(Var("n"), ops.ADD, Literal(1)))
        ctx.emit(ctx.accumulate(Var("n"), ops.ADD, Literal(2)))
        assert self.emitted(ctx) == "n = 0\nn = 1\nn = 3\n"

    def test_the_work_counter_starts_known(self):
        ctx = Context(instrument=True)
        ctx.emit(ctx.count_op())
        ctx.emit(ctx.count_op())
        counter = ctx.ops_var.name
        assert self.emitted(ctx) == "%s = 1\n%s = 2\n" % (counter, counter)

    def test_a_loop_body_knows_nothing_from_before(self):
        ctx = Context()
        ctx.emit(asm.AssignStmt(Var("x"), Literal(1)))
        body = ctx.scoped(lambda: ctx.emit(
            ctx.accumulate(Var("x"), ops.ADD, Literal(1))), repeats=True)
        assert emit(body) == "x += 1\n"

    def test_a_branch_knows_what_comes_before_it(self):
        ctx = Context()
        ctx.emit(asm.AssignStmt(Var("x"), Literal(1)))
        body = ctx.scoped(lambda: ctx.emit(
            ctx.accumulate(Var("x"), ops.ADD, Literal(1))))
        assert emit(body) == "x = 2\n"

    def test_an_unknown_write_forgets_the_value(self):
        ctx = Context()
        ctx.emit(asm.AssignStmt(Var("x"), Literal(1)))
        ctx.emit(ctx.accumulate(Var("x"), ops.ADD, Load("buf", Literal(0))))
        ctx.emit(ctx.accumulate(Var("x"), ops.ADD, Literal(1)))
        ctx.emit(asm.If([(Var("c"), asm.AssignStmt(Var("y"), Literal(2)))]))
        ctx.emit(ctx.accumulate(Var("y"), ops.ADD, Literal(1)))
        assert self.emitted(ctx) == ("x = 1\nx += buf[0]\nx += 1\n"
                                     "if c:\n    y = 2\ny += 1\n")

    def test_a_top_level_count_is_a_known_step(self):
        # An RLE walk seeks at the top level: the seek's count follows
        # the counter's start, so it is the known step ``ops = 1``.
        A = fl.from_numpy(np.repeat([0.0, 2.0, 1.0], 3), ("rle",),
                          name="A")
        C = fl.Scalar(name="C")
        i = fl.indices("i")
        prog = fl.forall(i, fl.increment(C[()], A[i]))
        lowered = fl.compile_kernel(prog, cache=False, instrument=True,
                                    opt_level=0)
        assert "ops = 0\n" in lowered.source
        assert "ops = 1\n    while" in lowered.source
        assert lowered.run() == fl.compile_kernel(
            prog, cache=False, instrument=True).run()
        assert C.value == 9.0

    def test_a_loop_kills_what_it_writes(self):
        ctx = Context()
        ctx.emit(asm.AssignStmt(Var("x"), Literal(1)))
        ctx.emit(asm.WhileLoop(build.lt(Var("x"), Load("buf", Literal(0))),
                               asm.AccumStmt(Var("x"), ops.ADD, Literal(1))))
        ctx.emit(ctx.accumulate(Var("x"), ops.ADD, Literal(1)))
        assert self.emitted(ctx).endswith("x += 1\nx += 1\n")


class TestNamingAValue:
    def test_a_literal_or_variable_is_itself(self):
        ctx = Context()
        assert ctx.let("stop", build.maximum(Literal(0), Literal(-4))) \
            == Literal(0)
        assert ctx.let("stop", Call(ops.ADD, [Var("n"), Literal(0)])) \
            == Var("n")
        assert ctx.take_block().is_nop()

    def test_a_named_copy_feeds_simplification(self):
        ctx = Context()
        x = ctx.let("x", Literal(2))
        y = ctx.let("y", x)
        assert ctx.let("z", build.times(y, Literal(3))) == Literal(6)
        assert ctx.take_block().is_nop()

    def test_anything_else_is_assigned_once(self):
        ctx = Context()
        value = build.minimum(Var("n"), Load("buf", Literal(0)))
        var = ctx.let("stop", value)
        (stmt,) = ctx.take_block().stmts
        assert var == Var("stop")
        assert stmt.target == var and stmt.value == simplify_expr(value)


class TestSetUpNothingReads:
    def test_unread_assignments_go(self):
        setup = [asm.AssignStmt(Var("q"), Load("pos", Literal(0))),
                 asm.AssignStmt(Var("q_stop"), Load("pos", Literal(1)))]
        loop = asm.ForLoop(Var("i"), Literal(0), Var("n"),
                           asm.AssignStmt(Load("out", Var("i")), Var("q")))
        assert emit(read_setup(setup, loop)) == "q = pos[0]\n"

    def test_what_a_kept_statement_reads_stays(self):
        setup = [asm.AssignStmt(Var("x"), Literal(1)),
                 asm.AssignStmt(Var("n"), Literal(4)),
                 asm.AssignStmt(Var("unused"), Literal(9)),
                 asm.AssignStmt(Slice("buf", Literal(0), Var("n")),
                                Var("x"))]
        source = emit(read_setup(setup, asm.Block([])))
        # A store is never dropped, and it keeps its bounds and value.
        assert source == "x = 1\nn = 4\nbuf[0:n] = x\n"

    def test_while_condition_initializer_survives_bottom_write(self):
        """Found by the fuzz engine (corpus case_12) in the dead-code
        pass this replaces: a while body whose *last* statement
        overwrites the condition variable must not lose the initializer
        above the loop — the condition reads it before the body ever
        runs."""
        body = asm.Block([
            asm.AssignStmt(Load("buf", Literal(0)), Var("cur")),
            asm.AssignStmt(Var("cur"), Load("buf", Literal(1))),
        ])
        loop = asm.WhileLoop(build.lt(Var("cur"), Var("stop")), body)
        setup = [asm.AssignStmt(Var("cur"), Literal(0))]
        assert emit(read_setup(setup, loop)) == "cur = 0\n"


class TestBindingAUnitIndex:
    def test_the_index_is_substituted_and_folded(self):
        block = asm.Block([
            asm.If([(build.lt(Var("j"), Literal(3)),
                     asm.AssignStmt(Load("out", build.plus(Var("j"), 1)),
                                    Var("j")))]),
            asm.ForLoop(Var("k"), Var("j"), Literal(2), asm.AssignStmt(
                Load("out", Var("k")), Literal(0.0))),
        ])
        assert emit(bind_index(block, "j", Literal(1))) == (
            "out[2] = 1\n"
            "k = 1\n"
            "out[k] = 0.0\n")

    def test_it_reaches_slice_bounds_and_operands(self):
        stmt = asm.AssignStmt(
            Slice("buf", Literal(0), build.plus(Var("n"), Literal(4))),
            build.times(Var("s"), Slice("x", Var("n"),
                                        build.times(Var("n"), 3))))
        assert emit(bind_index(stmt, "n", Literal(4))) \
            == "buf[0:8] = (s * x[4:12])\n"

    def test_scalar_rules_stop_at_vectors(self):
        # v / v is 1 on scalars; on a slice it would turn a sum of n
        # ones into a single 1 (and 0 * x[a:b] is n zeros, not 0).
        x = Slice("x", Var("a"), Var("b"))
        block = asm.Block([
            asm.AccumStmt(Var("acc"), ops.ADD,
                          Reduce(ops.ADD, Call(ops.DIV, [x, x]))),
            asm.AssignStmt(Slice("buf", Var("a"), Var("b")),
                           Call(ops.MUL, [Literal(0), x])),
        ])
        assert emit(bind_index(block, "a", Var("a0"))) == (
            "acc += _np.add.reduce((x[a0:b] / x[a0:b]))\n"
            "buf[a0:b] = (0 * x[a0:b])\n")
