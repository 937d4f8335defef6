"""Boxed (tagged) values, mirroring SpiderMonkey's ``jsval`` (Figure 9).

SpiderMonkey packs a type tag into the low bits of a machine word:

======  =========  ==========================================
tag     JS type    payload
======  =========  ==========================================
xx1     number     31-bit integer representation
000     object     pointer to JSObject
010     number     pointer to heap double
100     string     pointer to JSString
110     boolean    enumeration for null/undefined/true/false
======  =========  ==========================================

We reproduce the *semantics* of that encoding — in particular the split
Number representation (31-bit ints vs. heap doubles) that the paper's
"Representation specialization: numbers" section exploits — with an
explicit :class:`Box` carrying a tag enum and a Python payload.  The
interpreter charges :data:`repro.costs.TAG_TEST`, ``UNBOX``, and ``BOX``
cycles for operating on these, which is exactly the overhead traces
eliminate by working on unboxed values.
"""

from __future__ import annotations

from repro.errors import VMInternalError

# Tag constants.  Booleans, null, and undefined share a machine tag in
# SpiderMonkey (the ``110`` enumeration) but the trace type system treats
# them as distinct types, so we give each its own tag here and note that
# the boxing cost model does not distinguish them.
TAG_INT = 0
TAG_DOUBLE = 1
TAG_OBJECT = 2
TAG_STRING = 3
TAG_BOOLEAN = 4
TAG_NULL = 5
TAG_UNDEFINED = 6

TAG_NAMES = {
    TAG_INT: "int",
    TAG_DOUBLE: "double",
    TAG_OBJECT: "object",
    TAG_STRING: "string",
    TAG_BOOLEAN: "boolean",
    TAG_NULL: "null",
    TAG_UNDEFINED: "undefined",
}

#: Signed integer range of the inline int representation.
#:
#: SpiderMonkey's jsval packs 31-bit ints (Figure 9); its traces however
#: compute in native 32-bit registers, so int32 bit-twiddling stays on
#: the int path.  We use a 32-bit inline range so the boxed
#: representation matches what the traces compute, avoiding a re-boxing
#: cliff at 2^30 that the paper's system never paid (see DESIGN.md).
INT_MIN = -(2**31)
INT_MAX = 2**31 - 1


class Box:
    """A tagged value: ``(tag, payload)``.

    Immutable by convention.  ``payload`` is a Python ``int`` for
    ``TAG_INT``, ``float`` for ``TAG_DOUBLE``, ``str`` for ``TAG_STRING``,
    ``bool`` for ``TAG_BOOLEAN``, ``None`` for null/undefined, and a
    :class:`repro.runtime.objects.JSObject` for ``TAG_OBJECT``.
    """

    __slots__ = ("tag", "payload")

    def __init__(self, tag: int, payload):
        self.tag = tag
        self.payload = payload

    def __repr__(self) -> str:
        return f"Box({TAG_NAMES[self.tag]}, {self.payload!r})"

    def __eq__(self, other) -> bool:
        """Structural equality, used by tests (not by JS ``==``)."""
        if not isinstance(other, Box):
            return NotImplemented
        if self.tag != other.tag:
            # int 3 and double 3.0 are different boxes on purpose.
            return False
        if self.tag == TAG_OBJECT:
            return self.payload is other.payload
        return self.payload == other.payload

    def __hash__(self):
        if self.tag == TAG_OBJECT:
            return hash((self.tag, id(self.payload)))
        return hash((self.tag, self.payload))


#: Singletons for the ``110``-tagged specials.
UNDEFINED = Box(TAG_UNDEFINED, None)
NULL = Box(TAG_NULL, None)
TRUE = Box(TAG_BOOLEAN, True)
FALSE = Box(TAG_BOOLEAN, False)

#: Small-integer cache, like most VMs keep.
_SMALL_INTS = [Box(TAG_INT, i) for i in range(-1, 257)]


def make_int(value: int) -> Box:
    """Box an integer known to fit the 31-bit inline representation."""
    if not (INT_MIN <= value <= INT_MAX):
        raise VMInternalError(f"int payload out of 31-bit range: {value}")
    if -1 <= value <= 256:
        return _SMALL_INTS[value + 1]
    return Box(TAG_INT, value)


def make_double(value: float) -> Box:
    """Box a heap double."""
    return Box(TAG_DOUBLE, float(value))


def make_number(value) -> Box:
    """Box a Python number using the narrowest representation.

    This is the interpreter's policy from the paper: "The interpreter
    uses integer representations as much as it can, switching for results
    that can only be represented as doubles."
    """
    if isinstance(value, bool):
        raise VMInternalError("make_number called with a bool")
    if isinstance(value, int):
        if INT_MIN <= value <= INT_MAX:
            return make_int(value)
        return make_double(float(value))
    if isinstance(value, float):
        if value.is_integer() and INT_MIN <= value <= INT_MAX and _is_not_negzero(value):
            return make_int(int(value))
        return make_double(value)
    raise VMInternalError(f"make_number called with {type(value).__name__}")


def _is_not_negzero(value: float) -> bool:
    """True unless ``value`` is IEEE negative zero (which must stay double)."""
    if value != 0.0:
        return True
    # math.copysign(1, -0.0) == -1.0; avoid the import for this hot path.
    return str(value)[0] != "-"


def make_bool(value: bool) -> Box:
    return TRUE if value else FALSE


def make_string(value: str) -> Box:
    return Box(TAG_STRING, value)


def make_object(obj) -> Box:
    return Box(TAG_OBJECT, obj)


def number_value(box: Box):
    """Raw numeric payload of an int or double box."""
    if box.tag == TAG_INT:
        return box.payload
    if box.tag == TAG_DOUBLE:
        return box.payload
    raise VMInternalError(f"number_value on {box!r}")


def type_name(box: Box) -> str:
    """The ``typeof`` string for a boxed value."""
    tag = box.tag
    if tag == TAG_INT or tag == TAG_DOUBLE:
        return "number"
    if tag == TAG_STRING:
        return "string"
    if tag == TAG_BOOLEAN:
        return "boolean"
    if tag == TAG_UNDEFINED:
        return "undefined"
    if tag == TAG_NULL:
        return "object"  # JavaScript's famous quirk
    # Objects: functions answer "function".
    payload = box.payload
    if getattr(payload, "is_callable", False):
        return "function"
    return "object"
