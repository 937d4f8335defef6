"""Unit + behavioral tests for the whole-trace pass manager
(:mod:`repro.jit.optimizer`): tree-wide CSE / guard entailment, branch
seeding from side-exit snapshots, loop-invariant hoisting into the
entry prologue, and the ``LIns`` classification edge cases the passes
lean on (NaN / -0.0 immediates, softfloat helper calls, guard-vs-load
classification)."""

import itertools
import math
from types import SimpleNamespace

from repro import VMConfig
from repro.core.exits import BRANCH, ENTRY, SideExit
from repro.core.lir import LIns, _const_key
from repro.jit.native import CallSpec
from repro.jit.optimizer import hoist_invariants, run_tree_cse
from tests.helpers import assert_engines_agree, run_tracing


class FakeClass:
    pass


def make_tree():
    return SimpleNamespace(opt_vn=None, entry_exit=None)


#: Exit ids, as a monitor numbers them: snapshots are kept per id.
_exit_ids = itertools.count(1)


def make_exit(live=(), kind=BRANCH):
    return SideExit(kind=kind, pc=0, frames=(), stack_depth0=0,
                    livemap=tuple(live), exit_id=next(_exit_ids))


def loop_end():
    return LIns("loop", aux=frozenset())


# ---------------------------------------------------------------------------
# Pass 1: tree-wide CSE / guard entailment.
# ---------------------------------------------------------------------------


class TestTreeCSE:
    def test_duplicate_keyed_guard_eliminated(self):
        obj = LIns("ldar", slot=0, type="o")
        first = LIns("gclass", (obj,), imm=FakeClass, exit=make_exit())
        second = LIns("gclass", (obj,), imm=FakeClass, exit=make_exit())
        out, _removed, guards = run_tree_cse(
            [obj, first, second, loop_end()], make_tree()
        )
        assert first in out
        assert second not in out
        assert guards == 1

    def test_different_class_guard_kept(self):
        obj = LIns("ldar", slot=0, type="o")
        first = LIns("gclass", (obj,), imm=FakeClass, exit=make_exit())
        second = LIns("gclass", (obj,), imm=int, exit=make_exit())
        out, _removed, guards = run_tree_cse(
            [obj, first, second, loop_end()], make_tree()
        )
        assert second in out
        assert guards == 0

    def test_conditional_guard_entailed_by_dominating_guard(self):
        cond = LIns("ldar", slot=0, type="b")
        first = LIns("xf", (cond,), exit=make_exit())
        second = LIns("xf", (cond,), exit=make_exit())
        out, _removed, guards = run_tree_cse(
            [cond, first, second, loop_end()], make_tree()
        )
        assert first in out
        assert second not in out
        assert guards == 1

    def test_duplicate_load_redirected_to_representative(self):
        a1 = LIns("ldar", slot=0, type="i")
        a2 = LIns("ldar", slot=0, type="i")
        add = LIns("addi", (a1, a2), type="i")
        store = LIns("star", (add,), slot=0)
        out, removed, _guards = run_tree_cse(
            [a1, a2, add, store, loop_end()], make_tree()
        )
        assert a2 not in out
        assert add.args == (a1, a1)
        assert removed == 1

    def test_store_to_load_forwarding(self):
        value = LIns("const", imm=7, type="i")
        store = LIns("star", (value,), slot=3)
        load = LIns("ldar", slot=3, type="i")
        add = LIns("addi", (load, load), type="i")
        keep = LIns("star", (add,), slot=3)
        out, removed, _guards = run_tree_cse(
            [value, store, load, add, keep, loop_end()], make_tree()
        )
        assert load not in out
        assert add.args == (value, value)
        assert removed == 1

    def test_exit_bearing_duplicate_never_dropped(self):
        # A second addi with an overflow exit must keep its guard even
        # though its value number is already known.
        a = LIns("ldar", slot=0, type="i")
        b = LIns("ldar", slot=1, type="i")
        plain = LIns("addi", (a, b), type="i")
        guarded = LIns("addi", (a, b), type="i", exit=make_exit())
        store = LIns("star", (guarded,), slot=0)
        out, _removed, _guards = run_tree_cse(
            [a, b, plain, guarded, store, loop_end()], make_tree()
        )
        assert guarded in out

    def test_call_invalidates_cached_loads(self):
        obj = LIns("ldar", slot=0, type="o")
        shape1 = LIns("ldshape", (obj,), type="i")
        spec = CallSpec(kind="helper", name="clobber", fn=None, result_type="b")
        call = LIns("call", (obj,), imm=spec, type="b")
        shape2 = LIns("ldshape", (obj,), type="i")
        sink = LIns("star", (shape2,), slot=1)
        sink1 = LIns("star", (shape1,), slot=2)
        out, removed, _guards = run_tree_cse(
            [obj, shape1, sink1, call, shape2, sink, loop_end()], make_tree()
        )
        assert shape2 in out  # the helper may have mutated the object
        assert removed == 0

    def test_branch_seeded_with_anchor_snapshot(self):
        # A class guard proven on the trunk is entailed in a branch
        # hanging off a later side exit.
        tree = make_tree()
        obj = LIns("ldar", slot=0, type="o")
        guard = LIns("gclass", (obj,), imm=FakeClass, exit=make_exit())
        cond = LIns("ldar", slot=1, type="b")
        anchor = make_exit()
        branch_point = LIns("xf", (cond,), exit=anchor)
        run_tree_cse([obj, guard, cond, branch_point, loop_end()], tree)

        branch_obj = LIns("param", slot=0, type="o")
        branch_guard = LIns("gclass", (branch_obj,), imm=FakeClass, exit=make_exit())
        out, _removed, guards = run_tree_cse(
            [branch_obj, branch_guard, LIns("x", exit=make_exit())],
            tree,
            anchor_exit=anchor,
        )
        assert branch_guard not in out
        assert guards == 1

    def test_branch_knows_anchor_guard_failed(self):
        # The branch at an xf exit only runs when the condition was
        # false, so re-checking falseness (an xt guard) is entailed.
        tree = make_tree()
        cond = LIns("ldar", slot=0, type="b")
        anchor = make_exit()
        trunk_guard = LIns("xf", (cond,), exit=anchor)
        run_tree_cse([cond, trunk_guard, loop_end()], tree)

        branch_cond = LIns("param", slot=0, type="b")
        redundant = LIns("xt", (branch_cond,), exit=make_exit())
        out, _removed, guards = run_tree_cse(
            [branch_cond, redundant, LIns("x", exit=make_exit())],
            tree,
            anchor_exit=anchor,
        )
        assert redundant not in out
        assert guards == 1

    def test_shared_exit_keeps_only_facts_common_to_its_carriers(self):
        # gclass(obj) and a later xf carry one exit, as a bounds check's
        # guards share its OOB exit.  The branch there may have started
        # at the class check, so it must keep its own class check.
        tree = make_tree()
        shared = make_exit()
        obj = LIns("ldar", slot=0, type="o")
        guard = LIns("gclass", (obj,), imm=FakeClass, exit=shared)
        cond = LIns("ldar", slot=1, type="b")
        later = LIns("xf", (cond,), exit=shared)
        run_tree_cse([obj, guard, cond, later, loop_end()], tree)

        branch_obj = LIns("param", slot=0, type="o")
        branch_guard = LIns("gclass", (branch_obj,), imm=FakeClass, exit=make_exit())
        out, _removed, guards = run_tree_cse(
            [branch_obj, branch_guard, LIns("x", exit=make_exit())],
            tree,
            anchor_exit=shared,
        )
        assert branch_guard in out
        assert guards == 0

    def test_branch_without_snapshot_starts_cold(self):
        # An anchor exit the trunk never snapshotted (e.g. compiled
        # before this PR's state existed) must not inherit anything.
        tree = make_tree()
        orphan = make_exit()
        obj = LIns("param", slot=0, type="o")
        guard = LIns("gclass", (obj,), imm=FakeClass, exit=make_exit())
        out, _removed, guards = run_tree_cse(
            [obj, guard, LIns("x", exit=make_exit())], tree, anchor_exit=orphan
        )
        assert guard in out
        assert guards == 0


# ---------------------------------------------------------------------------
# Pass 3: loop-invariant hoisting.
# ---------------------------------------------------------------------------


class TestHoisting:
    def entry_tree(self):
        tree = make_tree()
        tree.entry_exit = make_exit(kind=ENTRY)
        return tree

    def test_invariant_load_and_guard_hoisted(self):
        tree = self.entry_tree()
        inv = LIns("ldar", slot=0, type="o")
        guard = LIns("gclass", (inv,), imm=FakeClass, exit=make_exit())
        var = LIns("ldar", slot=1, type="i")
        store = LIns("star", (var,), slot=1)
        out, loop_start, hoisted = hoist_invariants(
            [inv, guard, var, store, loop_end()], tree
        )
        assert loop_start == 2
        assert out[:2] == [inv, guard]
        assert hoisted == 2
        assert guard.exit is tree.entry_exit  # retargeted to loop-header deopt
        assert var in out[loop_start:]  # its slot is stored: loop-varying

    def test_no_loop_edge_means_no_hoisting(self):
        tree = self.entry_tree()
        inv = LIns("ldar", slot=0, type="i")
        lir = [inv, LIns("x", exit=make_exit())]
        out, loop_start, hoisted = hoist_invariants(lir, tree)
        assert out == lir
        assert loop_start == 0
        assert hoisted == 0

    def test_no_entry_exit_means_no_hoisting(self):
        tree = make_tree()  # entry_exit is None (pre-PR trees)
        inv = LIns("ldar", slot=0, type="i")
        lir = [inv, loop_end()]
        out, loop_start, hoisted = hoist_invariants(lir, tree)
        assert out == lir
        assert loop_start == 0

    def test_const_without_hoisted_consumer_stays_in_body(self):
        tree = self.entry_tree()
        const = LIns("const", imm=5, type="i")
        var = LIns("ldar", slot=0, type="i")
        add = LIns("addi", (var, const), type="i")
        store = LIns("star", (add,), slot=0)
        out, loop_start, hoisted = hoist_invariants(
            [const, var, add, store, loop_end()], tree
        )
        assert loop_start == 0  # nothing worth peeling
        assert hoisted == 0

    def test_aux_guard_stays_but_its_invariant_compare_hoists(self):
        # A guard carrying a boxed resume value (aux) never hoists, but
        # its invariant compare does — codegen cannot fuse aux-bearing
        # guards anyway, so the compare runs once instead of per
        # iteration.
        tree = self.entry_tree()
        inv1 = LIns("ldar", slot=0, type="i")
        inv2 = LIns("ldar", slot=1, type="i")
        boxed = LIns("boxv", (inv1,), imm="INT", type="x")
        cmp = LIns("lti", (inv1, inv2), type="b")
        guard = LIns("xf", (cmp,), exit=make_exit(), aux=boxed)
        out, loop_start, _hoisted = hoist_invariants(
            [inv1, inv2, boxed, cmp, guard, loop_end()], tree
        )
        assert loop_start == 3
        assert out[:3] == [inv1, inv2, cmp]
        assert guard in out[loop_start:]  # boxv allocates: body only

    def test_aux_none_guard_hoists_with_its_compare(self):
        # A plain conditional guard hoists together with its compare:
        # they stay adjacent in the prologue, so codegen still fuses
        # them into one compare-and-exit instruction there.
        tree = self.entry_tree()
        inv1 = LIns("ldar", slot=0, type="i")
        inv2 = LIns("ldar", slot=1, type="i")
        cmp = LIns("lti", (inv1, inv2), type="b")
        guard = LIns("xf", (cmp,), exit=make_exit())
        var = LIns("ldar", slot=2, type="i")
        store = LIns("star", (var,), slot=2)
        out, loop_start, _hoisted = hoist_invariants(
            [inv1, inv2, cmp, guard, var, store, loop_end()], tree
        )
        assert loop_start == 4
        assert out[:4] == [inv1, inv2, cmp, guard]
        assert guard.exit is tree.entry_exit

    def test_stored_global_not_hoisted(self):
        tree = self.entry_tree()
        glob = LIns("ldar", slot=-1, type="i")
        bump = LIns("addi", (glob, glob), type="i")
        store = LIns("star", (bump,), slot=-1)
        out, loop_start, _hoisted = hoist_invariants(
            [glob, bump, store, loop_end()], tree
        )
        assert loop_start == 0


# ---------------------------------------------------------------------------
# LIns classification edge cases the optimizer leans on (satellite).
# ---------------------------------------------------------------------------


class TestConstKeys:
    def test_negative_zero_distinct_from_positive_zero(self):
        # 0.0 == -0.0 in Python dict keys, but they are different JS
        # values (1/-0 is -Infinity): the key must keep the sign.
        pos = LIns("const", imm=0.0, type="d")
        neg = LIns("const", imm=-0.0, type="d")
        assert pos.cse_key() != neg.cse_key()
        assert _const_key(-0.0) != _const_key(0.0)

    def test_nan_constants_share_one_key(self):
        # NaN != NaN, so raw floats would never hit the table; JS has a
        # single NaN value, so merging NaN constants is sound.
        a = LIns("const", imm=float("nan"), type="d")
        b = LIns("const", imm=math.nan, type="d")
        assert a.cse_key() == b.cse_key()

    def test_ordinary_float_key_passes_through(self):
        assert _const_key(1.5) == 1.5
        assert _const_key(-1.5) == -1.5

    def test_unhashable_imm_keyed_by_identity(self):
        imm = [1, 2, 3]
        assert _const_key(imm) == ("id", id(imm))
        assert _const_key(imm) != _const_key([1, 2, 3])

    def test_cse_merges_nan_but_not_signed_zero(self):
        n1 = LIns("const", imm=float("nan"), type="d")
        n2 = LIns("const", imm=float("nan"), type="d")
        z1 = LIns("const", imm=0.0, type="d")
        z2 = LIns("const", imm=-0.0, type="d")
        sink = [
            LIns("star", (ins,), slot=slot)
            for slot, ins in enumerate((n1, n2, z1, z2))
        ]
        out, removed, _guards = run_tree_cse(
            [n1, n2, z1, z2, *sink, loop_end()], make_tree()
        )
        assert n2 not in out  # NaN consts merged
        assert z2 in out  # -0.0 kept distinct
        assert removed == 1


class TestClassification:
    def test_softfloat_helper_call_is_not_pure(self):
        # Softfloat helpers are marked pure on their CallSpec, but the
        # call *instruction* must never be CSE'd or DCE'd away.
        spec = CallSpec(
            kind="helper", name="softfloat_addd", fn=None,
            result_type="d", pure=True,
        )
        a = LIns("const", imm=1.5, type="d")
        call = LIns("call", (a, a), imm=spec, type="d")
        assert not call.is_pure
        assert call.has_effect
        assert call.cse_key() is None

    def test_exit_bearing_load_is_a_guard(self):
        plain = LIns("ldar", slot=0, type="i")
        guarded = LIns("ldar", slot=0, type="i", exit=make_exit())
        assert plain.is_load and not plain.is_guard
        assert not plain.has_effect
        assert guarded.is_load and guarded.is_guard
        assert guarded.has_effect

    def test_d2i_is_guard_not_pure(self):
        value = LIns("const", imm=1.5, type="d")
        conv = LIns("d2i", (value,), type="i", exit=make_exit())
        assert conv.is_guard
        assert not conv.is_pure
        assert conv.has_effect

    def test_runtime_varying_loads_have_no_cse_key(self):
        assert LIns("ldpreempt", type="b").cse_key() is None
        assert LIns("ldreentry", type="b").cse_key() is None
        assert LIns("ldelem", (LIns("ldar", slot=0, type="o"),), type="x").cse_key() is None


# ---------------------------------------------------------------------------
# End-to-end behavior.
# ---------------------------------------------------------------------------

INVARIANT_LOOP = (
    "var a = [7]; var s = 0;"
    "for (var i = 0; i < 80; i++) s += a[0];"
    "s;"
)


class TestOptimizerEndToEnd:
    def test_hoisting_reported_and_correct(self):
        vms = assert_engines_agree(INVARIANT_LOOP)
        tracing = vms["tracing"].stats.tracing
        assert tracing.opt_hoisted > 0
        tree = vms["tracing"].monitor.cache.all_trees()[0]
        assert tree.fragment.loop_start > 0
        assert tree.fragment.lir_loop_start > 0
        # The prologue holds the invariant shape guard, retargeted at
        # the tree's ENTRY exit.
        prologue = tree.fragment.lir[: tree.fragment.lir_loop_start]
        assert any(ins.op == "gclass" for ins in prologue)
        assert all(
            ins.exit is tree.entry_exit
            for ins in prologue
            if ins.exit is not None
        )

    def test_opt_levels_agree_on_results(self):
        reference, _vm = run_tracing(INVARIANT_LOOP)
        for tree_cse, hoisting in ((False, False), (True, False), (False, True)):
            config = VMConfig(enable_tree_cse=tree_cse, enable_hoisting=hoisting)
            result, vm = run_tracing(INVARIANT_LOOP, config)
            assert repr(result) == repr(reference)
            if not hoisting:
                assert vm.stats.tracing.opt_hoisted == 0

    def test_hoisting_reduces_cycles(self):
        low = VMConfig(enable_tree_cse=False, enable_hoisting=False)
        _r0, vm0 = run_tracing(INVARIANT_LOOP, low)
        _r2, vm2 = run_tracing(INVARIANT_LOOP)
        assert vm2.stats.total_cycles < vm0.stats.total_cycles

    def test_failed_entry_guard_reenters_interpreter(self):
        # The hoisted bounds guard fails when the array empties between
        # loop runs: the ENTRY exit must invalidate the tree and fall
        # back to the interpreter with correct semantics.
        source = (
            "var a = [3]; var s = 0;"
            "var j = 0;"
            "while (j < 2) {"
            "  var i = 0;"
            "  while (i < 80) { if (a.length > 0) { s += a[0]; } i += 1; }"
            "  a = [5];"
            "  j += 1;"
            "}"
            "s;"
        )
        assert_engines_agree(source)

    def test_backends_agree_with_hoisting(self):
        config = VMConfig()
        config.native_backend = "step"
        result_step, vm_step = run_tracing(INVARIANT_LOOP, config)
        result_py, vm_py = run_tracing(INVARIANT_LOOP)
        assert repr(result_step) == repr(result_py)
        assert vm_step.stats.total_cycles == vm_py.stats.total_cycles
        assert (
            vm_step.stats.summary_lines() == vm_py.stats.summary_lines()
        )
