"""Unit tests for TraceTree: AR layout, entry maps, fragment compilation."""

from repro.bytecode.compiler import compile_program
from repro.core.lir import LIns
from repro.core.tree import Fragment, TraceTree
from repro.core.typemap import TraceType
from repro.vm import VMConfig


def make_tree():
    code = compile_program("for (var i = 0; i < 3; i++) ;")
    loop = code.loops[0]
    return TraceTree(code, loop.header_pc, loop)


class TestSlotLayout:
    def test_slots_allocated_in_discovery_order(self):
        tree = make_tree()
        assert tree.slot_for(("local", 0, 0)) == 0
        assert tree.slot_for(("stack", 0, 0)) == 1
        assert tree.slot_for(("local", 0, 0)) == 0  # stable on re-query
        assert tree.n_location_slots == 2

    def test_loc_of_slot_inverse(self):
        tree = make_tree()
        slot = tree.slot_for(("this", 1))
        assert tree.loc_of_slot[slot] == ("this", 1)

    def test_slot_kinds_classification(self):
        tree = make_tree()
        stack_slot = tree.slot_for(("stack", 0, 0))
        anchor_local = tree.slot_for(("local", 0, 1))
        inline_local = tree.slot_for(("local", 1, 0))
        this_slot = tree.slot_for(("this", 1))
        kinds = tree.slot_kinds()
        assert kinds[stack_slot] == "stack"
        assert kinds[anchor_local] == "stack"  # anchor data
        assert kinds[inline_local] == "call"  # mirrors the call stack
        assert kinds[this_slot] == "call"


class TestEntryMap:
    def test_add_entry_location_deduplicates(self):
        tree = make_tree()
        slot1 = tree.add_entry_location(("local", 0, 0), TraceType.INT)
        slot2 = tree.add_entry_location(("local", 0, 0), TraceType.INT)
        assert slot1 == slot2
        assert len(tree.entry_typemap) == 1

    def test_global_imports_conflict_detected(self):
        import pytest

        from repro.errors import VMInternalError

        tree = make_tree()
        tree.add_global_import("g", 0, TraceType.INT)
        tree.add_global_import("g", 0, TraceType.INT)  # idempotent
        assert len(tree.global_imports) == 1
        with pytest.raises(VMInternalError):
            tree.add_global_import("g", 0, TraceType.STRING)

    def test_import_slot_set_encodes_globals_negative(self):
        tree = make_tree()
        tree.add_entry_location(("local", 0, 0), TraceType.INT)
        tree.add_global_import("g", 3, TraceType.INT)
        slots = tree.import_slot_set
        assert 0 in slots
        assert -(3 + 1) in slots


class TestFragmentCompilation:
    def test_compile_assigns_exits_and_spill_base(self):
        from repro.core.exits import LOOP, SideExit

        tree = make_tree()
        slot = tree.slot_for(("local", 0, 0))
        param = LIns("param", slot=slot, type="i")
        store = LIns("star", (param,), slot=slot)
        exit = SideExit(
            kind=LOOP, pc=0, frames=(), stack_depth0=0,
            livemap=(((("local", 0, 0)), TraceType.INT, slot),),
        )
        end = LIns("x", exit=exit)
        tree.compile_fragment(tree.fragment, [param, store, end], VMConfig())
        assert exit.fragment is tree.fragment
        assert exit.tree is tree
        assert tree.exits_by_id[exit.exit_id] is exit
        assert tree.fragment.spill_base == tree.n_location_slots
        assert tree.ar_size >= tree.n_location_slots

    def test_compile_cost_scales_with_lir(self):
        tree = make_tree()
        assert tree.compile_cost(100) > tree.compile_cost(10)

    def test_branch_fragment_kind(self):
        tree = make_tree()
        branch = Fragment(tree, "branch")
        assert branch.kind == "branch"
        assert "branch" in repr(branch)
