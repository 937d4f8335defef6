"""Unit tests for shapes, objects, arrays (paper Sections 3.1 and 6)."""

from repro.runtime.objects import (
    DICT_MODE_THRESHOLD,
    JSArray,
    JSFunction,
    JSObject,
    Shape,
)
from repro.runtime.values import make_number, make_string


class TestShapes:
    def test_same_construction_order_shares_shape(self):
        a, b = JSObject(), JSObject()
        for obj in (a, b):
            obj.set_property("x", make_number(1))
            obj.set_property("y", make_number(2))
        assert a.shape is b.shape
        assert a.shape_id == b.shape_id

    def test_different_order_different_shape(self):
        a, b = JSObject(), JSObject()
        a.set_property("x", make_number(1))
        a.set_property("y", make_number(2))
        b.set_property("y", make_number(2))
        b.set_property("x", make_number(1))
        assert a.shape is not b.shape

    def test_update_does_not_transition(self):
        obj = JSObject()
        obj.set_property("x", make_number(1))
        shape = obj.shape
        obj.set_property("x", make_number(2))
        assert obj.shape is shape

    def test_slot_indexes_are_stable(self):
        obj = JSObject()
        obj.set_property("a", make_number(1))
        obj.set_property("b", make_number(2))
        assert obj.shape.lookup("a") == 0
        assert obj.shape.lookup("b") == 1

    def test_shape_ids_unique(self):
        seen = set()
        shape = Shape()
        for name in "abcdef":
            shape = shape.extend(name)
            assert shape.shape_id not in seen
            seen.add(shape.shape_id)


class TestDictMode:
    def test_delete_converts_to_dict_mode(self):
        obj = JSObject()
        obj.set_property("x", make_number(1))
        obj.set_property("y", make_number(2))
        assert obj.delete_property("x")
        assert obj.in_dict_mode
        assert obj.get_own("x") is None
        assert obj.get_own("y").payload == 2

    def test_delete_missing_returns_false(self):
        obj = JSObject()
        assert not obj.delete_property("nope")

    def test_many_properties_convert(self):
        obj = JSObject()
        for index in range(DICT_MODE_THRESHOLD + 1):
            obj.set_property(f"p{index}", make_number(index))
        assert obj.in_dict_mode
        assert obj.get_own("p0").payload == 0

    def test_dict_mode_shape_id_changes_on_mutation(self):
        obj = JSObject()
        obj.set_property("x", make_number(1))
        obj.convert_to_dict_mode()
        first = obj.shape_id
        obj.set_property("y", make_number(2))
        assert obj.shape_id != first
        assert obj.shape_id < 0  # never collides with real shape ids


class TestPrototypeChain:
    def test_lookup_walks_chain(self):
        proto = JSObject()
        proto.set_property("inherited", make_number(7))
        obj = JSObject(proto=proto)
        holder, value = obj.lookup_chain("inherited")
        assert holder is proto
        assert value.payload == 7

    def test_own_shadows_proto(self):
        proto = JSObject()
        proto.set_property("x", make_number(1))
        obj = JSObject(proto=proto)
        obj.set_property("x", make_number(2))
        holder, value = obj.lookup_chain("x")
        assert holder is obj
        assert value.payload == 2

    def test_chain_depth(self):
        grandparent = JSObject()
        grandparent.set_property("deep", make_number(1))
        parent = JSObject(proto=grandparent)
        obj = JSObject(proto=parent)
        assert obj.chain_depth_of("deep") == 3
        assert obj.lookup_chain("missing") is None


class TestArrays:
    def test_dense_set_get(self):
        arr = JSArray(3)
        arr.set_element(1, make_number(5))
        assert arr.get_element(1).payload == 5
        assert arr.get_element(0) is None  # hole
        assert arr.length == 3

    def test_append_grows(self):
        arr = JSArray()
        for index in range(10):
            arr.set_element(index, make_number(index))
        assert arr.length == 10
        assert len(arr.elements) == 10

    def test_gap_fills_with_holes(self):
        arr = JSArray()
        arr.set_element(5, make_number(1))
        assert arr.length == 6
        assert arr.get_element(2) is None

    def test_huge_index_goes_sparse(self):
        arr = JSArray()
        arr.set_element(0, make_number(1))
        arr.set_element(100000, make_number(2))
        assert arr.length == 100001
        assert len(arr.elements) < 1000
        assert arr.get_element(100000).payload == 2

    def test_negative_index_refused_by_dense_path(self):
        arr = JSArray()
        assert not arr.set_element(-1, make_number(1))

    def test_dense_in_range(self):
        arr = JSArray(4)
        assert arr.dense_in_range(0)
        assert arr.dense_in_range(3)
        assert not arr.dense_in_range(4)
        assert not arr.dense_in_range(-1)


class TestFunctions:
    def test_function_prototype_lazily_created(self):
        from repro.bytecode.compiler import compile_function

        fn = JSFunction("f", compile_function("f", [], []))
        proto = fn.ensure_prototype()
        assert fn.ensure_prototype() is proto

    def test_functions_carry_properties(self):
        from repro.bytecode.compiler import compile_function

        fn = JSFunction("f", compile_function("f", [], []))
        fn.set_property("meta", make_string("hello"))
        assert fn.get_own("meta").payload == "hello"
