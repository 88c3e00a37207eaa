"""A cold compile's optimizer work is counted, not timed.

``optimize_kernel`` detects its fold/dead-code fixpoint by node
identity (a round that returns its input changed nothing) and
``simplify_expr`` never rewrites a normal form twice.  Both are counted
here in units no machine's speed moves.  When the fixpoint compared
emitted source, a fig8 compile printed the whole kernel five times
inside the optimizer; when every round re-simplified every expression,
it made 1 933 rule applications (``_apply_first`` calls, lowering
included) where it now makes 467.
"""

import sys

import repro.compiler.kernel as compiler
import repro.lang as fl
import repro.rewrite.simplify as simplify
from repro.bench.figures import fig8_suite
from repro.bench.kernels import triangle_count_program

#: ``_apply_first`` calls allowed per cold compile of fig8.
RULE_BUDGET = 600


def test_fig8_cold_compile_stays_inside_its_work_budget(monkeypatch):
    printer = sys.modules["repro.ir.emit"]
    counts = {"printed_in_optimizer": 0, "rules": 0}
    optimizing = []

    def counting(real, key, when=lambda: True):
        def wrapper(*args, **kwargs):
            if when():
                counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    def optimize(func, level, real=compiler.optimize_kernel):
        optimizing.append(True)
        try:
            return real(func, level)
        finally:
            optimizing.pop()

    monkeypatch.setattr(printer, "_emit", counting(
        printer._emit, "printed_in_optimizer", lambda: bool(optimizing)))
    monkeypatch.setattr(simplify, "_apply_first",
                        counting(simplify._apply_first, "rules"))
    monkeypatch.setattr(compiler, "optimize_kernel", optimize)

    program, _ = triangle_count_program(fig8_suite()["ca_like_powerlaw"],
                                        "gallop")
    fl.compile_kernel(program, cache=False)
    assert counts["printed_in_optimizer"] == 0
    assert 0 < counts["rules"] <= RULE_BUDGET, counts
