"""Objects, shapes, arrays, and functions.

This reproduces the two object representations the paper describes
(Section 6):

* Most objects share a structural description — the **shape** — that maps
  property names to indexes into the object's own slot vector.  Shapes
  form a transition tree so objects created the same way share the same
  shape, and a shape is identified by a small integer key.  Traces guard
  on that key ("the guard is a simple equality check on the object
  shape").
* Objects with large or unusual property sets (or that had a property
  deleted) fall back to a per-object hash table ("dictionary mode").
  Traces cannot shape-guard those.
"""

from __future__ import annotations

import itertools

from repro.errors import VMInternalError
from repro.runtime import values
from repro.runtime.values import Box, make_number

#: Number of own properties past which an object converts to dict mode.
DICT_MODE_THRESHOLD = 32

#: Dense arrays will not grow a hole-gap larger than this; bigger indexes
#: go to the sparse (dictionary) side table.
DENSE_GAP_LIMIT = 1024

_shape_ids = itertools.count(1)
_dict_shape_ids = itertools.count(-1, -1)


class Shape:
    """A node in the shape transition tree.

    ``slot_of`` maps property name to slot index for every property an
    object of this shape owns.  ``transitions`` caches the child shape
    produced by adding one more property, so objects built by the same
    code path end up sharing shapes (and traces guarding on ``shape_id``
    stay valid across instances).
    """

    __slots__ = ("shape_id", "parent", "added_name", "slot_of", "transitions")

    def __init__(self, parent=None, added_name=None):
        self.shape_id = next(_shape_ids)
        self.parent = parent
        self.added_name = added_name
        if parent is None:
            self.slot_of = {}
        else:
            self.slot_of = dict(parent.slot_of)
            self.slot_of[added_name] = len(parent.slot_of)
        self.transitions = {}

    def lookup(self, name: str):
        """Slot index of ``name``, or ``None`` if not an own property."""
        return self.slot_of.get(name)

    def extend(self, name: str) -> "Shape":
        """The (cached) shape produced by adding ``name``."""
        child = self.transitions.get(name)
        if child is None:
            child = Shape(self, name)
            self.transitions[name] = child
        return child

    @property
    def n_slots(self) -> int:
        return len(self.slot_of)

    def __repr__(self) -> str:
        return f"Shape#{self.shape_id}({', '.join(self.slot_of)})"


#: The root of the shape tree for plain objects.
EMPTY_SHAPE = Shape()


class JSObject:
    """A JSLite object: shape + slot vector, or a dict in dict mode."""

    is_callable = False
    class_name = "Object"

    __slots__ = ("shape", "slots", "proto", "dict_props", "shape_id")

    def __init__(self, proto=None):
        self.shape = EMPTY_SHAPE
        self.slots = []
        self.proto = proto
        self.dict_props = None  # not None => dictionary mode
        # In dict mode every mutation bumps this so shape guards recorded
        # earlier (if any) fail; in shape mode it mirrors shape.shape_id.
        self.shape_id = EMPTY_SHAPE.shape_id

    # -- representation queries -------------------------------------------

    @property
    def in_dict_mode(self) -> bool:
        return self.dict_props is not None

    def own_property_names(self):
        if self.dict_props is not None:
            return list(self.dict_props.keys())
        return list(self.shape.slot_of.keys())

    # -- own-property access ----------------------------------------------

    def get_own(self, name: str):
        """Own property value, or ``None`` if absent.

        Returns the boxed value; distinct from a stored ``UNDEFINED``.
        """
        if self.dict_props is not None:
            return self.dict_props.get(name)
        slot = self.shape.lookup(name)
        if slot is None:
            return None
        return self.slots[slot]

    def lookup_own(self, name: str):
        """(slot index, value) for an own property, or ``None``.

        Only meaningful in shape mode; the recorder uses the slot index
        to emit a specialized load.
        """
        if self.dict_props is not None:
            return None
        slot = self.shape.lookup(name)
        if slot is None:
            return None
        return slot, self.slots[slot]

    def set_property(self, name: str, value: Box) -> None:
        """Create or update an own property."""
        if self.dict_props is not None:
            self.dict_props[name] = value
            self.shape_id = next(_dict_shape_ids)
            return
        slot = self.shape.lookup(name)
        if slot is not None:
            self.slots[slot] = value
            return
        if self.shape.n_slots >= DICT_MODE_THRESHOLD:
            self.convert_to_dict_mode()
            self.dict_props[name] = value
            self.shape_id = next(_dict_shape_ids)
            return
        self.shape = self.shape.extend(name)
        self.shape_id = self.shape.shape_id
        self.slots.append(value)

    def delete_property(self, name: str) -> bool:
        """Delete an own property; converts to dict mode (paper: deleted
        properties break the shared-shape invariant)."""
        if self.dict_props is None:
            self.convert_to_dict_mode()
        if name in self.dict_props:
            del self.dict_props[name]
            self.shape_id = next(_dict_shape_ids)
            return True
        return False

    def convert_to_dict_mode(self) -> None:
        if self.dict_props is not None:
            return
        self.dict_props = {
            name: self.slots[slot] for name, slot in self.shape.slot_of.items()
        }
        self.shape = None
        self.slots = []
        self.shape_id = next(_dict_shape_ids)

    # -- prototype-chain access --------------------------------------------

    def lookup_chain(self, name: str):
        """Search ``self`` and its prototype chain.

        Returns ``(holder, value)`` or ``None``.  The interpreter charges
        :data:`repro.costs.PROPERTY_LOOKUP` per object visited; the
        recorder turns the whole search into shape guards plus one load.
        """
        obj = self
        while obj is not None:
            value = obj.get_own(name)
            if value is not None:
                return obj, value
            obj = obj.proto
        return None

    def chain_depth_of(self, name: str) -> int:
        """How many objects the lookup for ``name`` visits (cost model)."""
        depth = 0
        obj = self
        while obj is not None:
            depth += 1
            if obj.get_own(name) is not None:
                return depth
            obj = obj.proto
        return depth

    def __repr__(self) -> str:
        return f"<{self.class_name} shape={self.shape_id}>"


class JSArray(JSObject):
    """An array with a dense element vector and a sparse fallback.

    The paper's running example stores ``primes[k] = false`` through a
    ``js_Array_set`` helper call on trace; we mirror that split: the
    interpreter's fat ``SETELEM`` handles every case, the trace calls the
    dense fast path helper and guards that it succeeded.
    """

    class_name = "Array"

    __slots__ = ("elements", "length")

    def __init__(self, length: int = 0, proto=None):
        super().__init__(proto=proto)
        self.elements = [None] * length  # None = hole
        self.length = length

    def get_element(self, index: int):
        """Boxed element or ``None`` for hole / out of range."""
        if 0 <= index < len(self.elements):
            return self.elements[index]
        if self.dict_props is not None or self.shape is not EMPTY_SHAPE:
            return self.get_own(str(index))
        return None

    def set_element(self, index: int, value: Box) -> bool:
        """Store an element; returns False if the dense path refused."""
        if index < 0:
            return False
        n = len(self.elements)
        if index < n:
            self.elements[index] = value
        elif index <= n + DENSE_GAP_LIMIT:
            self.elements.extend([None] * (index - n))
            self.elements.append(value)
        else:
            self.set_property(str(index), value)
        if index >= self.length:
            self.length = index + 1
        return True

    def dense_in_range(self, index: int) -> bool:
        return 0 <= index < len(self.elements)

    def __repr__(self) -> str:
        return f"<Array length={self.length}>"


class JSFunction(JSObject):
    """A function compiled from JSLite source.

    Being a :class:`JSObject`, it can carry properties — in particular
    ``prototype``, which ``new`` uses.
    """

    is_callable = True
    is_native = False
    class_name = "Function"

    __slots__ = ("name", "code")

    def __init__(self, name: str, code, proto=None):
        super().__init__(proto=proto)
        self.name = name
        self.code = code

    def ensure_prototype(self) -> JSObject:
        existing = self.get_own("prototype")
        if existing is not None and existing.tag == values.TAG_OBJECT:
            return existing.payload
        proto_obj = JSObject()
        self.set_property("prototype", values.make_object(proto_obj))
        return proto_obj

    def __repr__(self) -> str:
        return f"<Function {self.name}>"


class NativeFunction(JSObject):
    """A host (builtin) function callable from JSLite.

    ``fn`` has signature ``fn(vm, this_box, args) -> Box``.

    Flags reproduce the paper's FFI constraints (Section 6.5):

    * ``traceable`` — may be called from a trace at all (``eval``-like
      natives are untraceable and abort recording);
    * ``signature`` — an optional typed signature letting the trace call
      the native directly with unboxed arguments (the "new FFI"); without
      it the trace pays the boxed-argument-array cost;
    * ``may_reenter`` — may call back into the interpreter, forcing the
      trace to exit after the call returns;
    * ``accesses_state`` — reads or writes interpreter globals / call
      stack, forcing a trace exit as well.
    """

    is_callable = True
    is_native = True
    class_name = "Function"

    __slots__ = (
        "name",
        "fn",
        "traceable",
        "signature",
        "may_reenter",
        "accesses_state",
    )

    def __init__(
        self,
        name: str,
        fn,
        traceable: bool = True,
        signature=None,
        may_reenter: bool = False,
        accesses_state: bool = False,
    ):
        super().__init__()
        self.name = name
        self.fn = fn
        self.traceable = traceable
        self.signature = signature
        self.may_reenter = may_reenter
        self.accesses_state = accesses_state

    def __repr__(self) -> str:
        return f"<NativeFunction {self.name}>"


def new_object_with_proto(constructor: JSFunction) -> JSObject:
    """Allocate the ``this`` object for ``new constructor(...)``."""
    if not isinstance(constructor, JSFunction):
        raise VMInternalError("new_object_with_proto needs a JSFunction")
    return JSObject(proto=constructor.ensure_prototype())


def enumerable_keys(box, array_prototype=None) -> JSArray:
    """The ``for..in`` key snapshot for a value, as an array of strings.

    Arrays enumerate their (non-hole) indices first, then named own
    properties; plain objects enumerate own properties in insertion
    order; strings enumerate character indices; everything else has no
    enumerable keys.
    """
    from repro.runtime.values import TAG_OBJECT, TAG_STRING, make_string

    keys = JSArray(proto=array_prototype)
    if box.tag == TAG_STRING:
        for index in range(len(box.payload)):
            keys.set_element(index, make_string(str(index)))
        return keys
    if box.tag != TAG_OBJECT:
        return keys
    obj = box.payload
    out = 0
    if isinstance(obj, JSArray):
        for index, element in enumerate(obj.elements):
            if element is not None:
                keys.set_element(out, make_string(str(index)))
                out += 1
    for name in obj.own_property_names():
        keys.set_element(out, make_string(name))
        out += 1
    return keys


def array_from_boxes(boxes) -> JSArray:
    """Build a dense array from an iterable of boxed values."""
    arr = JSArray()
    for box in boxes:
        arr.set_element(arr.length, box)
    return arr


def array_length_box(arr: JSArray) -> Box:
    return make_number(arr.length)


__all__ = [
    "DICT_MODE_THRESHOLD",
    "DENSE_GAP_LIMIT",
    "EMPTY_SHAPE",
    "JSArray",
    "JSFunction",
    "JSObject",
    "NativeFunction",
    "Shape",
    "array_from_boxes",
    "array_length_box",
    "new_object_with_proto",
]
