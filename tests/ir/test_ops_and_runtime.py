"""Unit tests for the operator registry and kernel runtime helpers."""

import numpy as np
import pytest

from repro.ir import ops
from repro.ir.ops import MISSING, Missing, Op, get_op, register_op
from repro.ir.runtime import kernel_globals
from repro.util.errors import ReproError
from repro.util.namer import Namer, sanitize


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_op("add") is ops.ADD
        assert get_op("mul") is ops.MUL

    def test_unknown_op(self):
        with pytest.raises(ReproError):
            get_op("frobnicate")

    def test_registration_of_custom_op(self):
        xor = register_op(Op("test_xor", lambda a, b: a ^ b,
                             commutative=True))
        try:
            assert get_op("test_xor") is xor
            assert xor.fold(3, 5) == 6
        finally:
            ops.all_ops().pop("test_xor", None)

    def test_algebraic_properties(self):
        assert ops.ADD.identity == 0
        assert ops.MUL.identity == 1
        assert ops.MUL.annihilator == 0
        assert ops.AND.annihilator is False
        assert ops.OR.annihilator is True
        assert ops.MIN.identity is None


class TestFolding:
    def test_variadic_add_and_mul(self):
        assert ops.ADD.fold(1, 2, 3) == 6
        assert ops.MUL.fold(2, 3, 4) == 24

    def test_comparison_ops(self):
        assert ops.LE.fold(2, 2) is True
        assert ops.GT.fold(2, 2) is False

    def test_missing_propagates_through_arithmetic(self):
        assert ops.ADD.fold(1, MISSING) is MISSING
        assert ops.MUL.fold(MISSING, 0) is MISSING

    def test_coalesce_skips_missing(self):
        assert ops.COALESCE.fold(MISSING, 5, 7) == 5
        assert ops.COALESCE.fold(MISSING) is MISSING

    def test_missing_is_a_singleton(self):
        assert Missing() is MISSING

    def test_add_and_mul_fold_as_printed(self):
        # ``a + b``, not ``0 + a + b``: numpy adds two bools logically.
        assert ops.ADD.fold(np.True_, np.True_) is np.True_
        assert ops.MUL.fold(np.True_, np.False_) is np.False_
        assert ops.ADD.fold(True, True) == 2 and ops.ADD.fold() == 0

    def test_round_u8_clamps(self):
        assert ops.ROUND_U8.fold(300.0) == 255
        assert ops.ROUND_U8.fold(-5.0) == 0
        assert ops.ROUND_U8.fold(12.6) == 13

    def test_search_ops(self):
        idx = [2, 5, 9, 12]
        assert ops.SEARCH_GE.fold(idx, 0, 4, 6) == 2
        assert ops.SEARCH_GE.fold(idx, 0, 4, 5) == 1
        signed = [3, -6, 9]
        assert ops.SEARCH_ABS_GE.fold(signed, 0, 3, 4) == 1
        assert ops.SEARCH_ABS_GE.fold(signed, 0, 3, 7) == 2


class TestKernelGlobals:
    def test_contains_helpers(self):
        env = kernel_globals()
        for name in ("_sqrt", "search_ge", "abs"):
            assert name in env

    def test_binds_only_ops_printed_as_calls(self):
        # min/max/coalesce/ifelse/round_u8 print as conditional
        # expressions.
        env = kernel_globals()
        for name in ("min", "max", "coalesce", "_coalesce", "ifelse",
                     "_ifelse", "_round_u8"):
            assert name not in env

    def test_a_runtime_name_shaped_like_a_printer_temp_is_refused(
            self, temp_op):
        # A printer temp is a local of the whole kernel function: a
        # namespace name of its shape would be shadowed.
        with pytest.raises(ReproError, match="reserved for printer temps"):
            temp_op(Op("temp_shaped", abs, runtime_name="_t3"))
        assert "temp_shaped" not in ops.all_ops()
        temp_op(Op("temp_like", abs, runtime_name="_t3x"))
        assert kernel_globals()["_t3x"] is abs

    def test_fresh_namespace_each_call(self):
        first = kernel_globals()
        second = kernel_globals()
        first["extra"] = 1
        assert "extra" not in second

    def test_sqrt_helper(self):
        assert kernel_globals()["_sqrt"](9.0) == 3.0

    def test_search_ge_bounds(self):
        search_ge = kernel_globals()["search_ge"]
        assert search_ge([1, 3, 5], 1, 3, 4) == 2
        assert search_ge([1, 3, 5], 0, 0, 4) == 0


class TestNamer:
    def test_fresh_names_are_unique(self):
        namer = Namer()
        names = {namer.fresh("p") for _ in range(5)}
        assert len(names) == 5

    def test_first_use_is_clean(self):
        assert Namer().fresh("stride") == "stride"

    def test_reserved_names_skipped(self):
        namer = Namer(reserved=["i"])
        assert namer.fresh("i") == "i_2"

    def test_reserve_after_creation(self):
        namer = Namer()
        namer.reserve("q")
        assert namer.fresh("q") == "q_2"

    def test_sanitize(self):
        assert sanitize("A val") == "A_val"
        assert sanitize("2x") == "v2x"
        assert sanitize("while") == "while_"
        assert sanitize("") == "v"
        assert sanitize("lvl0.pos") == "lvl0_pos"


class TestLazyIfElse:
    def test_rendered_conditional_is_lazy(self):
        """The emitted form must not evaluate the dead branch."""
        from repro.ir import Call, Literal, Load, Var
        from repro.ir.pretty import expr_source

        guarded = Call(ops.IFELSE, [
            Call(ops.GT, [Var("n"), Literal(0)]),
            Load("buf", Call(ops.SUB, [Var("n"), Literal(1)])),
            Literal(0),
        ])
        source = expr_source(guarded)
        assert source == "(buf[n - 1] if n > 0 else 0)"
        # Executing with an empty buffer and n == 0 must not raise.
        assert eval(source, {"buf": [], "n": 0}) == 0


class TestFrozenNamespace:
    def test_kernel_globals_returns_fresh_copies(self):
        first = kernel_globals()
        first["abs"] = None
        assert kernel_globals()["abs"] is abs

    def test_numpy_is_reachable_for_vectorized_kernels(self):
        import numpy as np

        assert kernel_globals()["_np"] is np

    def test_late_registered_op_invalidates_the_snapshot(self):
        kernel_globals()  # prime the cached base namespace
        name = "late_snapshot_op"
        register_op(Op(name, lambda a: a + 41, runtime_name=name))
        try:
            env = kernel_globals()
            assert env[name](1) == 42
        finally:
            ops._REGISTRY.pop(name, None)
            register_op(Op("_bump", lambda a: a))  # refresh version
            ops._REGISTRY.pop("_bump", None)

    def test_registry_version_bumps_on_registration(self):
        before = ops.registry_version()
        register_op(Op("_version_probe", lambda a: a))
        try:
            assert ops.registry_version() == before + 1
        finally:
            ops._REGISTRY.pop("_version_probe", None)
