"""Property-based differential testing: random JSLite loop programs must
behave identically on the interpreter and the tracing VM.

This is the reproduction's equivalent of the paper's JSFUNFUZZ usage
(Section 6.6): "we modified JSFUNFUZZ to generate loops, and also to
test more heavily certain constructs we suspected would reveal flaws" —
here the generator is biased toward type-unstable loops and heavily
branching code for exactly that reason.  Large int atoms, unary minus
and a variable scaled up every iteration make int results leave the
int range (and ``-0`` appear) partway through a loop; objects of
different shapes behind one variable, a property added mid-loop and
slots that flip between int and double fail shape and type guards.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from tests.helpers import (
    ALL_ENGINES,
    generated_fragments,
    register_invariant_violations,
)

_VARS = ["a", "b", "c"]

_atoms = st.one_of(
    st.sampled_from(_VARS),
    st.sampled_from(
        ["i", "1", "2", "3", "7", "0.5", "2.5", "100",
         "65537", "1103515245", "2147483647"]
    ),
)

_binops = st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>", ">>>", "%"])
_relops = st.sampled_from(["<", "<=", ">", ">=", "==", "!=", "===", "!=="])


@st.composite
def expressions(draw, depth=2, atoms=_atoms):
    if depth == 0 or draw(st.booleans()):
        return draw(atoms)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return f"(-{draw(expressions(depth=depth - 1, atoms=atoms))})"
    left = draw(expressions(depth=depth - 1, atoms=atoms))
    right = draw(expressions(depth=depth - 1, atoms=atoms))
    op = draw(_binops)
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=1, atoms=_atoms):
    kind = draw(
        st.sampled_from(["assign", "assign", "assign", "if", "compound", "scale"])
        if depth > 0
        else st.sampled_from(["assign", "assign", "assign", "scale"])
    )
    if kind == "assign":
        var = draw(st.sampled_from(_VARS))
        expr = draw(expressions(atoms=atoms))
        return f"{var} = {expr};"
    if kind == "scale":
        # Grows every iteration, so an int product crosses 2^31
        # partway through the loop.
        var = draw(st.sampled_from(_VARS))
        factor = draw(st.sampled_from(["3", "65537", "1103515245"]))
        return f"{var} = {var} * {factor} + 1;"
    if kind == "if":
        cond_left = draw(atoms)
        cond_right = draw(atoms)
        relop = draw(_relops)
        then_stmt = draw(statements(depth=depth - 1, atoms=atoms))
        else_stmt = draw(statements(depth=depth - 1, atoms=atoms))
        return f"if ({cond_left} {relop} {cond_right}) {{ {then_stmt} }} else {{ {else_stmt} }}"
    body = " ".join(
        draw(st.lists(statements(depth=depth - 1, atoms=atoms), min_size=1, max_size=3))
    )
    return f"{{ {body} }}"


@st.composite
def loop_programs(draw):
    n_stmts = draw(st.integers(min_value=1, max_value=4))
    body = " ".join(draw(statements()) for _ in range(n_stmts))
    iterations = draw(st.integers(min_value=5, max_value=40))
    return (
        "var a = 0, b = 1, c = 2;"
        f"for (var i = 0; i < {iterations}; i++) {{ {body} }}"
        "'' + a + '|' + b + '|' + c;"
    )


#: The inner loop's statements may also read its own index.
_inner_atoms = st.one_of(_atoms, st.just("j"))


@st.composite
def nested_loop_programs(draw):
    """An outer loop around an inner ``for`` whose trip count is a
    constant, the outer index or varies with it, so the inner loop's
    tree is entered from the outer one at different trip counts (and
    some entries run it zero times); the outer loop's own statements go
    before the inner loop, after it, or both."""
    bound = draw(st.sampled_from(["3", "7", "i", "i % 5"]))
    inner = " ".join(
        draw(st.lists(statements(atoms=_inner_atoms), min_size=1, max_size=3))
    )
    before = " ".join(draw(st.lists(statements(depth=0), max_size=2)))
    after = " ".join(draw(st.lists(statements(depth=0), max_size=2)))
    iterations = draw(st.integers(min_value=5, max_value=25))
    return (
        "var a = 0, b = 1, c = 2;"
        f"for (var i = 0; i < {iterations}; i++) {{ {before} "
        f"for (var j = 0; j < {bound}; j++) {{ {inner} }} {after} }}"
        "'' + a + '|' + b + '|' + c;"
    )


@st.composite
def heap_loop_programs(draw):
    """Random loops over objects, arrays, and an inlinable function."""
    n_stmts = draw(st.integers(min_value=1, max_value=4))
    body = []
    for _ in range(n_stmts):
        kind = draw(
            st.sampled_from(
                ["prop_write", "prop_read", "elem_write", "elem_read", "call", "plain"]
            )
        )
        expr = draw(expressions())
        if kind == "prop_write":
            name = draw(st.sampled_from(["x", "y"]))
            body.append(f"o.{name} = {expr};")
        elif kind == "prop_read":
            name = draw(st.sampled_from(["x", "y"]))
            target = draw(st.sampled_from(_VARS))
            body.append(f"{target} = o.{name} + {draw(_atoms)};")
        elif kind == "elem_write":
            body.append(f"arr[i % 4] = {expr};")
        elif kind == "elem_read":
            target = draw(st.sampled_from(_VARS))
            body.append(f"{target} = arr[i % 4];")
        elif kind == "call":
            target = draw(st.sampled_from(_VARS))
            body.append(f"{target} = twist({expr});")
        else:
            target = draw(st.sampled_from(_VARS))
            body.append(f"{target} = {expr};")
    iterations = draw(st.integers(min_value=5, max_value=40))
    return (
        "function twist(n) { if (n % 2) return n * 3; return n - 1; }"
        "var o = {x: 1, y: 2};"
        "var arr = [1, 2, 3, 4];"
        "var a = 0, b = 1, c = 2;"
        f"for (var i = 0; i < {iterations}; i++) {{ {' '.join(body)} }}"
        "'' + a + '|' + b + '|' + c + '|' + o.x + '|' + o.y + '|' + arr.join(',');"
    )


#: Three objects of different shapes: the same two properties in either
#: order, and the two plus a third.
_SHAPED_OBJECTS = "var p = {x: 1, y: 2}; var q = {y: 3, x: 4}; var r = {x: 5, y: 6, z: 7};"

#: How the loop picks its object: by ``i % k``, or once partway through.
_PICKS = [
    "i % 2 ? q : p",
    "i % 3 == 0 ? p : i % 3 == 1 ? q : r",
    "i % 4 == 3 ? r : p",
    "i < 12 ? p : r",
]


@st.composite
def shape_loop_programs(draw):
    """Loops whose object variable changes shape and whose slots flip
    type, so shape and type guards fail and branch traces grow from
    their exits.  ``o`` is chosen among differently shaped objects by
    ``i % k`` (or switches once), its properties are read and written,
    one iteration adds a property to whichever object ``o`` is then,
    and a variable or property alternates between an int and a
    double."""
    pick = draw(st.sampled_from(_PICKS))
    n_stmts = draw(st.integers(min_value=1, max_value=5))
    body = []
    for _ in range(n_stmts):
        kind = draw(
            st.sampled_from(
                ["prop_write", "prop_read", "add_prop", "read_added",
                 "flip", "flip_prop", "plain"]
            )
        )
        var = draw(st.sampled_from(_VARS))
        name = draw(st.sampled_from(["x", "y"]))
        if kind == "prop_write":
            body.append(f"o.{name} = {draw(expressions())};")
        elif kind == "prop_read":
            body.append(f"{var} = o.{name} + {draw(_atoms)};")
        elif kind == "add_prop":
            at = draw(st.integers(min_value=2, max_value=20))
            body.append(f"if (i == {at}) o.w = {draw(expressions())};")
        elif kind == "read_added":
            body.append(f"if (o.w !== undefined) {var} = o.w + {draw(_atoms)};")
        elif kind == "flip":
            period = draw(st.sampled_from(["2", "3"]))
            body.append(f"{var} = i % {period} ? {var} + 0.5 : i;")
        elif kind == "flip_prop":
            period = draw(st.sampled_from(["2", "3"]))
            body.append(f"o.{name} = i % {period} ? i + 0.5 : i;")
        else:
            body.append(draw(statements(depth=0)))
    iterations = draw(st.integers(min_value=5, max_value=50))
    fields = " + '|' + ".join(
        f"{obj}.{prop}" for obj in "pqr" for prop in ("x", "y", "w")
    )
    return (
        f"{_SHAPED_OBJECTS} var a = 0, b = 1, c = 2;"
        f"for (var i = 0; i < {iterations}; i++) {{ var o = {pick}; "
        f"{' '.join(body)} }}"
        f"'' + a + '|' + b + '|' + c + '|' + {fields};"
    )


def assert_tracing_agrees_on_both_backends(source):
    """Tracing on each native backend returns the interpreter's result;
    the two backends agree on output and on simulated cycles, in total
    and per activity; and every fragment codegen returned keeps the
    register invariant the py backend relies on."""
    from repro import TracingVM, VMConfig

    expected = repr(ALL_ENGINES["baseline"]().run(source))
    runs = {}
    with generated_fragments() as natives:
        for backend in ("step", "py"):
            vm = TracingVM(VMConfig(native_backend=backend))
            assert repr(vm.run(source)) == expected, (backend, source)
            runs[backend] = (
                list(vm.output),
                vm.stats.total_cycles,
                dict(vm.stats.ledger.by_activity),
            )
    assert runs["py"] == runs["step"], source
    violations = [
        violation
        for native in natives
        for violation in register_invariant_violations(native)
    ]
    assert not violations, (violations, source)


@given(shape_loop_programs())
@settings(max_examples=150, deadline=None)
def test_random_shape_loops_agree(source):
    assert_tracing_agrees_on_both_backends(source)


@given(shape_loop_programs())
@settings(max_examples=40, deadline=None)
def test_random_shape_loops_agree_methodjit(source):
    results = {}
    for name in ("baseline", "methodjit"):
        vm = ALL_ENGINES[name]()
        results[name] = repr(vm.run(source))
    assert results["baseline"] == results["methodjit"], source


#: ``a >>> 0`` of a negative ``a`` is above INT_MAX: its ``i2d`` must not
#: fold away under a ``d2i32`` (``| 0``, ``^``, ``&``), which wraps it.
_UINT32_LOOPS = {
    op: "var a = -1, s = 0;"
    f" for (var i = 0; i < 10; i++) {{ s = s + ((a >>> 0) {op}); }} s;"
    for op in ("| 0", "^ 1", "& -1")
}


@pytest.mark.parametrize("op", sorted(_UINT32_LOOPS))
def test_uint32_result_is_wrapped_on_trace(op):
    assert_tracing_agrees_on_both_backends(_UINT32_LOOPS[op])


@given(heap_loop_programs())
@settings(max_examples=100, deadline=None)
@example(
    "function twist(n) { if (n % 2) return n * 3; return n - 1; }"
    "var o = {x: 1, y: 2};var arr = [1, 2, 3, 4];var a = 0, b = 1, c = 2;"
    "for (var i = 0; i < 5; i++) { o.x = (-(-a));"
    " a = twist(((-a) | (a >>> 0.5))); }"
    "'' + a + '|' + b + '|' + c + '|' + o.x + '|' + o.y + '|' + arr.join(',');"
)
def test_random_heap_loops_agree(source):
    assert_tracing_agrees_on_both_backends(source)


@given(heap_loop_programs())
@settings(max_examples=30, deadline=None)
def test_random_heap_loops_agree_methodjit(source):
    results = {}
    for name in ("baseline", "methodjit"):
        vm = ALL_ENGINES[name]()
        results[name] = repr(vm.run(source))
    assert results["baseline"] == results["methodjit"], source


@given(loop_programs())
@settings(max_examples=150, deadline=None)
def test_random_loops_agree(source):
    assert_tracing_agrees_on_both_backends(source)


@given(loop_programs())
@settings(max_examples=40, deadline=None)
def test_random_loops_agree_methodjit(source):
    results = {}
    for name in ("baseline", "methodjit"):
        vm = ALL_ENGINES[name]()
        results[name] = repr(vm.run(source))
    assert results["baseline"] == results["methodjit"], source


@given(nested_loop_programs())
@settings(max_examples=150, deadline=None)
def test_random_nested_loops_agree(source):
    assert_tracing_agrees_on_both_backends(source)


@given(nested_loop_programs())
@settings(max_examples=40, deadline=None)
def test_random_nested_loops_agree_methodjit(source):
    results = {}
    for name in ("baseline", "methodjit"):
        vm = ALL_ENGINES[name]()
        results[name] = repr(vm.run(source))
    assert results["baseline"] == results["methodjit"], source


@given(loop_programs())
@settings(max_examples=25, deadline=None)
def test_random_loops_agree_with_ablations(source):
    """Every optimization disabled must not change semantics."""
    from repro import TracingVM, VMConfig

    baseline = ALL_ENGINES["baseline"]()
    expected = repr(baseline.run(source))
    config = VMConfig(
        enable_cse=False,
        enable_exprsimp=False,
        enable_dse=False,
        enable_dce=False,
        enable_nesting=False,
        enable_oracle=False,
    )
    assert repr(TracingVM(config).run(source)) == expected, source


@given(loop_programs())
@settings(max_examples=15, deadline=None)
def test_random_loops_agree_with_softfloat(source):
    from repro import TracingVM, VMConfig

    baseline = ALL_ENGINES["baseline"]()
    expected = repr(baseline.run(source))
    assert repr(TracingVM(VMConfig(enable_softfloat=True)).run(source)) == expected, source


@given(heap_loop_programs(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_random_loops_survive_random_faults(source, seed):
    """Chaos mode: a random program under a seeded random fault plan
    must still match the interpreter, and any fault that fires must be
    contained by the firewall (never escape as a Python exception)."""
    from repro import TracingVM, VMConfig

    baseline = ALL_ENGINES["baseline"]()
    expected = repr(baseline.run(source))
    vm = TracingVM(VMConfig(chaos_seed=seed))
    assert repr(vm.run(source)) == expected, (source, seed)
    tracing = vm.stats.tracing
    if tracing.faults_injected:
        assert tracing.internal_failures >= 1, (source, seed)
