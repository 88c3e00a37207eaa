"""A cold compile's optimizer work is counted, not timed.

The optimizer passes print no kernel, ``simplify_expr`` never
rewrites a normal form twice, and it offers a node only the rules
declaring its operator.  All of it is counted here in units no
machine's speed moves.  When the optimizer's old fold fixpoint
compared emitted source, a fig8 compile printed the whole kernel five
times inside the optimizer.  When every visit tried all eleven default rules, leaves
included, and ``rule_renormalize`` rebuilt calls a constructor had just
built, a fig8 compile made 4 483 rule calls (lowering included) where
it now makes 580.
"""

import sys

import repro.lang as fl
import repro.rewrite.simplify as simplify
from repro.ir import optimize
from repro.bench.figures import fig8_suite
from repro.bench.kernels import triangle_count_program

#: Rule-function calls allowed per cold compile of fig8.
RULE_BUDGET = 800


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

    def inside_optimizer(real):
        def run(*args):
            optimizing.append(True)
            try:
                return real(*args)
            finally:
                optimizing.pop()
        return run

    monkeypatch.setattr(printer, "_emit", counting(
        printer._emit, "printed_in_optimizer", lambda: bool(optimizing)))
    def apply_first(expr, rules, real=simplify._apply_first):
        return real(expr, [counting(rule, "rules") for rule in rules])

    monkeypatch.setattr(simplify, "_apply_first", apply_first)
    for name in ("hoist_invariants", "vectorize"):
        monkeypatch.setattr(optimize, name,
                            inside_optimizer(getattr(optimize, name)))

    program, _ = triangle_count_program(fig8_suite()["ca_like_powerlaw"],
                                        "gallop")
    fl.compile_kernel(program, cache=False)
    assert counts["printed_in_optimizer"] == 0
    assert 0 < counts["rules"] <= RULE_BUDGET, counts
