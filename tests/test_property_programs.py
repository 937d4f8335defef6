"""Property-based differential testing: random JSLite loop programs must
behave identically on the interpreter and the tracing VM.

This is the reproduction's equivalent of the paper's JSFUNFUZZ usage
(Section 6.6): "we modified JSFUNFUZZ to generate loops, and also to
test more heavily certain constructs we suspected would reveal flaws" —
here the generator is biased toward type-unstable loops and heavily
branching code for exactly that reason.  Large int atoms, unary minus
and a variable scaled up every iteration make int results leave the
int range (and ``-0`` appear) partway through a loop.
"""

from hypothesis import given, settings, strategies as st

from tests.helpers import ALL_ENGINES

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
def expressions(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(_atoms)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return f"(-{draw(expressions(depth=depth - 1))})"
    left = draw(expressions(depth=depth - 1))
    right = draw(expressions(depth=depth - 1))
    op = draw(_binops)
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=1):
    kind = draw(
        st.sampled_from(["assign", "assign", "assign", "if", "compound", "scale"])
        if depth > 0
        else st.sampled_from(["assign", "assign", "assign", "scale"])
    )
    if kind == "assign":
        var = draw(st.sampled_from(_VARS))
        expr = draw(expressions())
        return f"{var} = {expr};"
    if kind == "scale":
        # Grows every iteration, so an int product crosses 2^31
        # partway through the loop.
        var = draw(st.sampled_from(_VARS))
        factor = draw(st.sampled_from(["3", "65537", "1103515245"]))
        return f"{var} = {var} * {factor} + 1;"
    if kind == "if":
        cond_left = draw(_atoms)
        cond_right = draw(_atoms)
        relop = draw(_relops)
        then_stmt = draw(statements(depth=depth - 1))
        else_stmt = draw(statements(depth=depth - 1))
        return f"if ({cond_left} {relop} {cond_right}) {{ {then_stmt} }} else {{ {else_stmt} }}"
    body = " ".join(draw(st.lists(statements(depth=depth - 1), min_size=1, max_size=3)))
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


def assert_tracing_agrees_on_both_backends(source):
    from repro import TracingVM, VMConfig

    expected = repr(ALL_ENGINES["baseline"]().run(source))
    for backend in ("step", "py"):
        vm = TracingVM(VMConfig(native_backend=backend))
        assert repr(vm.run(source)) == expected, (backend, source)


@given(heap_loop_programs())
@settings(max_examples=100, deadline=None)
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
        enable_stitching=False,
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
