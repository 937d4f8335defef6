"""Recorder-level tests: the LIR a recording produces for each construct
(paper Sections 3.1 and 6.3)."""

import pytest

from repro import BaselineVM, TracingVM, VMConfig
from tests.helpers import run_tracing


def main_tree(vm):
    trees = vm.monitor.cache.all_trees()
    return max(trees, key=lambda tree: tree.iterations)


def lir_ops(tree):
    return [ins.op for ins in tree.fragment.lir]


def call_names(tree):
    return [ins.imm.name for ins in tree.fragment.lir if ins.op == "call"]


class TestTypeSpecialization:
    def test_int_loop_uses_int_ops(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 60; i++) s += i; s;")
        ops = lir_ops(main_tree(vm))
        assert "addi" in ops
        assert "addd" not in ops

    def test_double_loop_uses_double_ops(self):
        _r, vm = run_tracing("var s = 0.5; for (var i = 0; i < 60; i++) s += 0.25; s;")
        ops = lir_ops(main_tree(vm))
        assert "addd" in ops

    def test_int_arith_carries_overflow_guard(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 60; i++) s += i; s;")
        tree = main_tree(vm)
        adds = [ins for ins in tree.fragment.lir if ins.op == "addi"]
        assert any(ins.exit is not None for ins in adds)

    def test_division_is_always_double(self):
        _r, vm = run_tracing("var s = 0; for (var i = 1; i < 60; i++) s += i / 2; s;")
        ops = lir_ops(main_tree(vm))
        assert "divd" in ops

    def test_bitops_convert_doubles_via_d2i32(self):
        _r, vm = run_tracing(
            "var s = 0; var d = 2.5; for (var i = 0; i < 60; i++) s ^= (d * i) & 7; s;"
        )
        ops = lir_ops(main_tree(vm))
        assert "d2i32" in ops

    def test_ushr_speculates_on_observed_range(self):
        # Small results: stay int with a fits-31-bit guard.
        _r, vm = run_tracing(
            "var s = 0; for (var i = 0; i < 60; i++) s += i >>> 2; s;"
        )
        ops = lir_ops(main_tree(vm))
        assert "ushri" in ops
        assert "gi31" in ops


class TestObservedResultRule:
    """``+ - * -x`` specialize to int only when the interpreter's result
    at record time is an int (paper Section 1: a value is typed int only
    when it was observed to be one).  An int op recorded on a result
    that is not an int would fail its guard on the very path it was
    recorded from."""

    def test_overflowing_int_product_records_muld(self):
        _r, vm = run_tracing(
            "var s = 0; for (var i = 0; i < 60; i++) s = (i + 1) * 1000003 * 4099; s;"
        )
        lir = main_tree(vm).fragment.lir
        products = [ins for ins in lir if ins.op in ("muli", "muld")]
        # (i + 1) * 1000003 fits the int range; times 4099 it does not.
        assert [ins.op for ins in products] == ["muli", "muld"]
        assert products[0].exit is not None
        assert products[1].exit is None

    @pytest.mark.parametrize("operand", ["0", "(-2147483647 - 1)"])
    def test_negating_zero_or_int_min_records_negd(self, operand):
        source = (
            f"var z = {operand}; var s = 0;"
            "for (var i = 0; i < 60; i++) s = -z; 1 / s;"
        )
        result, vm = run_tracing(source)
        assert repr(result) == repr(BaselineVM().run(source))
        ops = lir_ops(main_tree(vm))
        assert "negd" in ops
        assert "nei" not in ops and "subi" not in ops

    def test_negating_nonzero_int_stays_int(self):
        _r, vm = run_tracing(
            "var z = 5; var s = 0; for (var i = 0; i < 60; i++) s = -z; s;"
        )
        ops = lir_ops(main_tree(vm))
        assert "subi" in ops
        assert "negd" not in ops


# Products cross 2^31 at i = 2147 (of 3000): one branch takes the rest.
PRODUCTS_CROSS_INT_RANGE = """
var s = 0;
for (var i = 0; i < 3000; i++) { var t = (i + 1) * 1000003; var u = t * 4099; s = u; }
s;
"""

NEGATE_ZERO = "var z = 0; var s = 0; for (var i = 0; i < 3000; i++) s = -z; s;"

NEGATE_ZERO_NESTED = """
var z = 0; var s = 0;
for (var r = 0; r < 100; r++) { for (var i = 0; i < 10; i++) s = -z; }
1 / s;
"""


def _trace_against_baseline(source, backend):
    vm = TracingVM(VMConfig(native_backend=backend))
    assert repr(vm.run(source)) == repr(BaselineVM().run(source))
    return vm.stats.tracing


@pytest.mark.parametrize("backend", ["step", "py"])
def test_products_crossing_int_range_grow_one_branch(backend):
    # A muli recorded on an observed overflow fails at once, and so does
    # every branch grown from its exit: 64 branches, 128,960 stitched
    # transfers.
    tracing = _trace_against_baseline(PRODUCTS_CROSS_INT_RANGE, backend)
    assert tracing.branch_traces == 1
    assert tracing.stitched_transfers < 1000


@pytest.mark.parametrize("backend", ["step", "py"])
def test_negating_zero_records_once(backend):
    # A ``z != 0`` guard recorded on z == 0 is hoisted and fails at
    # every entry, which re-records the loop: 1,000 recordings.
    tracing = _trace_against_baseline(NEGATE_ZERO, backend)
    assert tracing.recordings_started == 1


@pytest.mark.parametrize("backend", ["step", "py"])
def test_negating_zero_in_nested_loop_keeps_the_sign(backend):
    # A branch re-recording ``z != 0`` from that guard's failed exit
    # inherits it as proven, drops it, and computes +0.
    _trace_against_baseline(NEGATE_ZERO_NESTED, backend)


class TestGuards:
    def test_branch_guard_per_if(self):
        _r, vm = run_tracing(
            "var s = 0; for (var i = 0; i < 60; i++) { if (i < 100) s += 1; } s;"
        )
        tree = main_tree(vm)
        ops = lir_ops(tree)
        assert "xf" in ops or "xt" in ops

    def test_callee_identity_guard(self):
        _r, vm = run_tracing(
            "function f(n) { return n; } var s = 0;"
            "for (var i = 0; i < 60; i++) s += f(i); s;"
        )
        tree = main_tree(vm)
        ops = lir_ops(tree)
        assert "eqp" in ops  # guard that the callee is the same function

    def test_element_load_guards_tag(self):
        _r, vm = run_tracing(
            "var a = [1, 2, 3]; var s = 0;"
            "for (var i = 0; i < 60; i++) s += a[i % 3]; s;"
        )
        tree = main_tree(vm)
        ops = lir_ops(tree)
        assert "gtag" in ops
        assert "ldelem" in ops
        assert "unbox" in ops

    def test_redundant_shape_guards_merged(self):
        # o.x + o.y: one shape guard suffices (CSE of guards).
        _r, vm = run_tracing(
            "var o = {x: 1, y: 2}; var s = 0;"
            "for (var i = 0; i < 60; i++) s += o.x + o.y; s;"
        )
        tree = main_tree(vm)
        shape_loads = [ins for ins in tree.fragment.lir if ins.op == "ldshape"]
        assert len(shape_loads) == 1


class TestInlining:
    def test_no_call_instruction_for_inlined_function(self):
        _r, vm = run_tracing(
            "function sq(n) { return n * n; } var s = 0;"
            "for (var i = 0; i < 60; i++) s += sq(i); s;"
        )
        tree = main_tree(vm)
        # The interpreted call is inlined: only typed-FFI/helper calls
        # may appear, and sq is neither.
        assert "sq" not in call_names(tree)
        assert "muli" in lir_ops(tree)

    def test_frame_entry_stores_recorded(self):
        _r, vm = run_tracing(
            "function add2(a, b) { return a + b; } var s = 0;"
            "for (var i = 0; i < 60; i++) s += add2(i, 1); s;"
        )
        tree = main_tree(vm)
        # Arguments become AR-resident (depth-1 local slots exist).
        depth1_locals = [
            loc for loc in tree.slot_of_loc if loc[0] == "local" and loc[1] == 1
        ]
        assert depth1_locals


class TestNativesOnTrace:
    def test_typed_ffi_direct_call(self):
        _r, vm = run_tracing(
            "var s = 0; for (var i = 0; i < 60; i++) s += Math.sqrt(i); Math.floor(s);"
        )
        tree = main_tree(vm)
        specs = [ins.imm for ins in tree.fragment.lir if ins.op == "call"]
        sqrt_specs = [spec for spec in specs if spec.name == "sqrt"]
        assert sqrt_specs and sqrt_specs[0].kind == "typed"

    def test_generic_native_boxed_call_with_result_guard(self):
        _r, vm = run_tracing(
            "var s = 0; var w = 'abcdef';"
            "for (var i = 0; i < 60; i++) s += w.charCodeAt(i % 6); s;"
        )
        tree = main_tree(vm)
        specs = [ins.imm for ins in tree.fragment.lir if ins.op == "call"]
        cca = [spec for spec in specs if spec.name == "charCodeAt"]
        assert cca and cca[0].kind == "boxed"
        assert "gtag" in lir_ops(tree)  # unpredictable result type

    def test_string_concat_helper(self):
        _r, vm = run_tracing(
            "var s = ''; for (var i = 0; i < 40; i++) s += 'x'; s.length;"
        )
        tree = main_tree(vm)
        assert "js_ConcatStrings" in call_names(tree)

    def test_number_to_string_helper(self):
        _r, vm = run_tracing(
            "var s = ''; for (var i = 0; i < 40; i++) s += i; s.length;"
        )
        tree = main_tree(vm)
        assert "js_NumberToString_i" in call_names(tree)


class TestAbortReasons:
    def abort_reason_of(self, source):
        vm = TracingVM()
        vm.run(source)
        return vm.stats.tracing.abort_reasons

    def test_throw(self):
        reasons = self.abort_reason_of(
            "var t = 0; for (var i = 0; i < 40; i++) { try { throw 1; } catch (e) { t += e; } } t;"
        )
        assert "try-block-on-trace" in reasons or "throw-on-trace" in reasons

    def test_untraceable_native(self):
        reasons = self.abort_reason_of(
            "var t = 0; for (var i = 0; i < 40; i++) t += hostEval('1'); t;"
        )
        assert "untraceable-native" in reasons

    def test_new_interpreted_constructor_traces(self):
        # Constructors inline like ordinary calls, with an allocation
        # helper providing `this` (no abort).
        from tests.helpers import run_tracing

        _r, vm = run_tracing(
            "function P(x) { this.x = x; } var t = 0;"
            "for (var i = 0; i < 40; i++) t += new P(i).x; t;"
        )
        assert "new-interpreted-constructor" not in vm.stats.tracing.abort_reasons
        assert vm.stats.profile.fraction_native() > 0.5
        tree = main_tree(vm)
        assert "js_NewObjectWithProto" in call_names(tree)

    def test_delete(self):
        reasons = self.abort_reason_of(
            "for (var i = 0; i < 40; i++) { var o = {x: 1}; delete o.x; }"
        )
        assert "delete-on-trace" in reasons

    def test_trace_too_long(self):
        from repro import VMConfig

        vm = TracingVM(VMConfig(max_trace_length=20))
        vm.run("var s = 0; for (var i = 0; i < 40; i++) s += i * i + i * 2 + 1; s;")
        assert "trace-too-long" in vm.stats.tracing.abort_reasons

    def test_typeof_object(self):
        reasons = self.abort_reason_of(
            "var o = {}; var t = ''; for (var i = 0; i < 40; i++) t = typeof o; t;"
        )
        assert "typeof-object" in reasons


class TestTraceShape:
    def test_stable_trace_has_single_entry_params(self):
        _r, vm = run_tracing(
            "function f(a) { var s = 0; for (var i = 0; i < 60; i++) s += a; return s; } f(3);"
        )
        tree = main_tree(vm)
        params = [ins for ins in tree.fragment.lir if ins.op == "param"]
        # Params only at the entry (TSSA: phi only at the entry point).
        first_non_param = next(
            index
            for index, ins in enumerate(tree.fragment.lir)
            if ins.op not in ("param", "const")
        )
        assert all(
            ins.op != "param" for ins in tree.fragment.lir[first_non_param:]
        )
        assert params

    def test_bytecount_positive(self):
        _r, vm = run_tracing("var s = 0; for (var i = 0; i < 60; i++) s += i; s;")
        tree = main_tree(vm)
        assert tree.fragment.bytecount > 5
