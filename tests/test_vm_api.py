"""Tests for the public VM API and configuration."""

import pytest

from repro import BaselineVM, ThreadedVM, TracingVM, VMConfig, run_source
from repro.errors import JSLiteSyntaxError


class TestConfigDefaults:
    def test_paper_constants(self):
        config = VMConfig()
        # Section 2: loops become hot "currently after 2 crossings".
        assert config.hotness_threshold == 2
        # Section 3.3: back-off 32, blacklist after 2 failures.
        assert config.blacklist_backoff == 32
        assert config.max_recording_failures == 2

    def test_every_feature_on_by_default(self):
        config = VMConfig()
        for flag in (
            "enable_tracing",
            "enable_nesting",
            "enable_oracle",
            "enable_blacklisting",
            "enable_cse",
            "enable_exprsimp",
            "enable_dse",
            "enable_dce",
        ):
            assert getattr(config, flag) is True
        assert config.enable_softfloat is False


class TestVMClasses:
    def test_tracing_vm_forces_tracing(self):
        vm = TracingVM(VMConfig(enable_tracing=False))
        assert vm.monitor is not None

    def test_baseline_has_no_monitor(self):
        assert BaselineVM().monitor is None

    def test_threaded_uses_cheap_dispatch(self):
        from repro import costs

        assert ThreadedVM().config.dispatch_cost == costs.DISPATCH_THREADED
        assert BaselineVM().config.dispatch_cost == costs.DISPATCH

    def test_vm_is_reusable(self):
        vm = TracingVM()
        assert vm.run("1;").payload == 1
        assert vm.run("var a = 2; a * 3;").payload == 6
        assert vm.globals["a"].payload == 2  # globals persist

    def test_compile_then_run_code(self):
        vm = BaselineVM()
        code = vm.compile("40 + 2;")
        assert vm.run_code(code).payload == 42

    def test_syntax_errors_propagate(self):
        with pytest.raises(JSLiteSyntaxError):
            BaselineVM().run("var = 1;")

    def test_output_capture(self):
        vm = BaselineVM()
        vm.run("print(1); print('two', 3);")
        assert vm.output == ["1", "two 3"]


class TestRunSource:
    def test_returns_result_and_stats(self):
        result, stats = run_source("var s = 0; for (var i = 0; i < 50; i++) s += i; s;")
        assert result.payload == 1225
        assert stats.tracing.trees_formed >= 1

    def test_accepts_config(self):
        _result, stats = run_source(
            "for (var i = 0; i < 50; i++) ;", VMConfig(hotness_threshold=1000)
        )
        assert stats.tracing.recordings_started == 0


class TestFFIModule:
    def test_typed_signature_validates_types(self):
        from repro.runtime.ffi import TypedSignature, typed

        with pytest.raises(ValueError):
            TypedSignature(("float",), "double", lambda x: x)
        signature = TypedSignature(("double",), "double", lambda x: x * 2)
        assert signature.raw_fn(2.0) == 4.0

        @typed(("double", "double"), "double")
        def add(a, b):
            return a + b

        assert add.param_types == ("double", "double")
        assert add.raw_fn(1.0, 2.0) == 3.0

    def test_custom_typed_native_callable_from_trace(self):
        from repro.runtime.ffi import TypedSignature
        from repro.runtime.objects import NativeFunction
        from repro.runtime.values import make_number, make_object
        from repro.runtime.conversions import to_number

        def boxed(vm, this, args):
            return make_number(to_number(args[0]) * 3.0)

        signature = TypedSignature(("double",), "double", lambda x: x * 3.0)
        vm = TracingVM()
        vm.globals["triple"] = make_object(
            NativeFunction("triple", boxed, signature=signature)
        )
        result = vm.run("var t = 0; for (var i = 0; i < 60; i++) t += triple(i); t;")
        assert result.payload == sum(i * 3 for i in range(60))
        assert vm.stats.profile.fraction_native() > 0.8
