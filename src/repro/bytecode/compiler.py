"""AST -> bytecode compiler.

Produces :class:`Code` objects.  Key structural guarantees:

* every loop gets a ``LOOPHEADER`` opcode at its header and a
  :class:`LoopInfo` recording ``[header_pc, end_pc)`` plus its parent
  loop, so the trace monitor can statically tell which of two loops is
  the inner one (paper Section 4.1);
* the operand stack is empty at every ``LOOPHEADER`` (loops are compiled
  only at statement level), so a trace's entry type map covers locals,
  ``this``, and globals only;
* backward jumps only ever target a ``LOOPHEADER``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import errors
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse
from repro.bytecode import opcodes as op
from repro.runtime.values import Box, make_number, make_string


@dataclass
class LoopInfo:
    """Static description of one source loop."""

    loop_id: int
    header_pc: int
    end_pc: int = -1  # exclusive; patched when the loop is finished
    parent: int = -1  # index of the enclosing loop in the same code object
    depth: int = 0
    line: int = 0

    def contains_pc(self, pc: int) -> bool:
        return self.header_pc <= pc < self.end_pc

    def encloses(self, other: "LoopInfo") -> bool:
        return (
            self.header_pc <= other.header_pc and other.end_pc <= self.end_pc
        ) and self.loop_id != other.loop_id


class Code:
    """A compiled function (or top-level program)."""

    def __init__(self, name: str, params: List[str], is_toplevel: bool = False):
        self.name = name
        self.params = list(params)
        self.is_toplevel = is_toplevel
        self.insns: List[list] = []  # [opcode, arg] pairs (arg may be None)
        self.lines: List[int] = []  # source line per insn
        self.consts: List[Box] = []
        self.names: List[str] = []
        self.local_names: List[str] = list(params)
        self.loops: List[LoopInfo] = []
        # Patched-out loop headers (blacklisting, Section 3.3) are
        # recorded here so tooling can see them; the opcode itself is
        # rewritten to NOP.
        self.blacklisted_headers: set = set()
        # The interpreter's ``(handlers, static costs)`` pair, one entry
        # per pc in each list, built on first execution (None until
        # then; see repro.interp.dispatch.build_table).  Header entries
        # read the live insn, so blacklist patching needs no
        # invalidation.
        self.threaded_table = None

    # -- pools --------------------------------------------------------------

    @property
    def n_locals(self) -> int:
        return len(self.local_names)

    def const_index(self, box: Box) -> int:
        for index, existing in enumerate(self.consts):
            if existing.tag == box.tag and existing.payload == box.payload:
                return index
        self.consts.append(box)
        return len(self.consts) - 1

    def name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def ensure_local(self, name: str) -> int:
        try:
            return self.local_names.index(name)
        except ValueError:
            self.local_names.append(name)
            return len(self.local_names) - 1

    # -- emission -------------------------------------------------------------

    def emit(self, opcode: int, arg=None, line: int = 0) -> int:
        self.insns.append([opcode, arg])
        self.lines.append(line)
        return len(self.insns) - 1

    def patch(self, index: int, arg) -> None:
        self.insns[index][1] = arg

    @property
    def here(self) -> int:
        return len(self.insns)

    # -- loop queries (used by monitor/recorder) -------------------------------

    def loop_at_header(self, header_pc: int) -> Optional[LoopInfo]:
        for loop in self.loops:
            if loop.header_pc == header_pc:
                return loop
        return None

    def innermost_loop_containing(self, pc: int) -> Optional[LoopInfo]:
        best = None
        for loop in self.loops:
            if loop.contains_pc(pc):
                if best is None or loop.depth > best.depth:
                    best = loop
        return best

    def blacklist_header(self, header_pc: int) -> None:
        """Patch the LOOPHEADER at ``header_pc`` to a plain NOP."""
        if self.insns[header_pc][0] != op.LOOPHEADER:
            raise errors.VMInternalError("blacklist target is not a LOOPHEADER")
        self.insns[header_pc][0] = op.NOP
        self.insns[header_pc][1] = None
        self.blacklisted_headers.add(header_pc)

    def __repr__(self) -> str:
        kind = "toplevel" if self.is_toplevel else "function"
        return f"<Code {kind} {self.name} ({len(self.insns)} insns)>"


@dataclass
class _LoopContext:
    info: LoopInfo
    continue_target: Optional[int] = None  # pc, or None until known
    break_patches: List[int] = field(default_factory=list)
    continue_patches: List[int] = field(default_factory=list)


class _FunctionCompiler:
    """Compiles one function body into a :class:`Code`."""

    def __init__(self, name: str, params: List[str], is_toplevel: bool):
        self.code = Code(name, params, is_toplevel=is_toplevel)
        self.loop_stack: List[_LoopContext] = []
        #: ``break`` targets: loops and switches, innermost last.  Each
        #: entry is a list of JUMP indexes to patch to the break target.
        self.break_stack: List[List[int]] = []
        self._temp_pool: List[int] = []
        self._next_loop_id = 0

    # -- temp locals -----------------------------------------------------------

    def alloc_temp(self) -> int:
        if self._temp_pool:
            return self._temp_pool.pop()
        return self.code.ensure_local(f".t{self.code.n_locals}")

    def free_temp(self, slot: int) -> None:
        self._temp_pool.append(slot)

    # -- scoping ----------------------------------------------------------------

    def is_local(self, name: str) -> bool:
        return not self.code.is_toplevel and name in self.code.local_names

    def hoist_declarations(self, body: List[ast.Node]) -> None:
        """Hoist ``var`` and nested function names into the local table."""
        if self.code.is_toplevel:
            return
        for name in _collect_var_names(body):
            self.code.ensure_local(name)

    # -- statements ---------------------------------------------------------------

    def compile_body(self, body: List[ast.Node]) -> None:
        self.hoist_declarations(body)
        # Nested function declarations are initialized up front (hoisting).
        for stmt in body:
            if isinstance(stmt, ast.FunctionDecl):
                self.compile_function_init(stmt)
        for stmt in body:
            if not isinstance(stmt, ast.FunctionDecl):
                self.compile_statement(stmt)

    def compile_function_init(self, decl: ast.FunctionDecl) -> None:
        code = self.code
        inner = compile_function(decl.name, decl.params, decl.body)
        from repro.runtime.objects import JSFunction
        from repro.runtime.values import make_object

        fn_box = make_object(JSFunction(decl.name, inner))
        code.emit(op.CONST, code.const_index_for_function(fn_box), decl.line)
        if code.is_toplevel:
            code.emit(op.SETGLOBAL, code.name_index(decl.name), decl.line)
        else:
            code.emit(op.SETLOCAL, code.ensure_local(decl.name), decl.line)
        code.emit(op.POP, None, decl.line)

    def compile_statement(self, stmt: ast.Node) -> None:
        method = _STATEMENT_DISPATCH.get(type(stmt))
        if method is None:
            raise errors.CompileError(f"unsupported statement: {type(stmt).__name__}")
        method(self, stmt)

    def stmt_block(self, stmt: ast.BlockStmt) -> None:
        for inner in stmt.body:
            self.compile_statement(inner)

    def stmt_empty(self, stmt: ast.EmptyStmt) -> None:
        pass

    def stmt_expression(self, stmt: ast.ExpressionStmt) -> None:
        self.compile_expression(stmt.expression)
        if self.code.is_toplevel:
            self.code.emit(op.POPV, None, stmt.line)
        else:
            self.code.emit(op.POP, None, stmt.line)

    def stmt_var(self, stmt: ast.VarDecl) -> None:
        code = self.code
        for name, init in stmt.declarations:
            if init is None:
                if code.is_toplevel:
                    # Declare the global (to undefined) if not yet present.
                    code.emit(op.UNDEF, None, stmt.line)
                    code.emit(op.SETGLOBAL, code.name_index(name), stmt.line)
                    code.emit(op.POP, None, stmt.line)
                continue
            self.compile_expression(init)
            if code.is_toplevel:
                code.emit(op.SETGLOBAL, code.name_index(name), stmt.line)
            else:
                code.emit(op.SETLOCAL, code.ensure_local(name), stmt.line)
            code.emit(op.POP, None, stmt.line)

    def stmt_if(self, stmt: ast.IfStmt) -> None:
        code = self.code
        self.compile_expression(stmt.test)
        jump_false = code.emit(op.IFFALSE, None, stmt.line)
        self.compile_statement(stmt.consequent)
        if stmt.alternate is not None:
            jump_end = code.emit(op.JUMP, None, stmt.line)
            code.patch(jump_false, code.here)
            self.compile_statement(stmt.alternate)
            code.patch(jump_end, code.here)
        else:
            code.patch(jump_false, code.here)

    # -- loops -----------------------------------------------------------------

    def _begin_loop(self, line: int) -> _LoopContext:
        code = self.code
        parent = self.loop_stack[-1].info if self.loop_stack else None
        info = LoopInfo(
            loop_id=self._next_loop_id,
            header_pc=code.here,
            parent=parent.loop_id if parent else -1,
            depth=(parent.depth + 1) if parent else 0,
            line=line,
        )
        self._next_loop_id += 1
        code.loops.append(info)
        code.emit(op.LOOPHEADER, info.loop_id, line)
        context = _LoopContext(info=info)
        self.loop_stack.append(context)
        self.break_stack.append(context.break_patches)
        return context

    def _end_loop(self, context: _LoopContext) -> None:
        code = self.code
        for patch_pc in context.break_patches:
            code.patch(patch_pc, code.here)
        context.info.end_pc = code.here
        self.loop_stack.pop()
        self.break_stack.pop()

    def _patch_continues(self, context: _LoopContext, target: int) -> None:
        for patch_pc in context.continue_patches:
            self.code.patch(patch_pc, target)

    def stmt_while(self, stmt: ast.WhileStmt) -> None:
        code = self.code
        context = self._begin_loop(stmt.line)
        header = context.info.header_pc
        self.compile_expression(stmt.test)
        exit_jump = code.emit(op.IFFALSE, None, stmt.line)
        self.compile_statement(stmt.body)
        self._patch_continues(context, code.here)
        code.emit(op.JUMP, header, stmt.line)  # the loop edge
        code.patch(exit_jump, code.here)
        self._end_loop(context)

    def stmt_do_while(self, stmt: ast.DoWhileStmt) -> None:
        code = self.code
        context = self._begin_loop(stmt.line)
        header = context.info.header_pc
        self.compile_statement(stmt.body)
        self._patch_continues(context, code.here)
        self.compile_expression(stmt.test)
        code.emit(op.IFTRUE, header, stmt.line)  # conditional loop edge
        self._end_loop(context)

    def stmt_for(self, stmt: ast.ForStmt) -> None:
        code = self.code
        if stmt.init is not None:
            if isinstance(stmt.init, ast.VarDecl):
                self.stmt_var(stmt.init)
            else:
                self.compile_expression(stmt.init.expression)
                code.emit(op.POP, None, stmt.line)
        context = self._begin_loop(stmt.line)
        header = context.info.header_pc
        exit_jump = None
        if stmt.test is not None:
            self.compile_expression(stmt.test)
            exit_jump = code.emit(op.IFFALSE, None, stmt.line)
        self.compile_statement(stmt.body)
        self._patch_continues(context, code.here)
        if stmt.update is not None:
            self.compile_expression(stmt.update)
            code.emit(op.POP, None, stmt.line)
        code.emit(op.JUMP, header, stmt.line)  # the loop edge
        if exit_jump is not None:
            code.patch(exit_jump, code.here)
        self._end_loop(context)

    def stmt_forin(self, stmt: ast.ForInStmt) -> None:
        """``for (k in obj)``: snapshot the enumerable keys, then loop
        over the snapshot with ordinary bytecode (so the loop itself is
        a normal LOOPHEADER loop)."""
        code = self.code
        keys_temp = self.alloc_temp()
        index_temp = self.alloc_temp()
        if not code.is_toplevel and stmt.is_declaration:
            code.ensure_local(stmt.var_name)
        self.compile_expression(stmt.obj)
        code.emit(op.ITERKEYS, None, stmt.line)
        code.emit(op.SETLOCAL, keys_temp, stmt.line)
        code.emit(op.POP, None, stmt.line)
        code.emit(op.ZERO, None, stmt.line)
        code.emit(op.SETLOCAL, index_temp, stmt.line)
        code.emit(op.POP, None, stmt.line)
        context = self._begin_loop(stmt.line)
        header = context.info.header_pc
        code.emit(op.GETLOCAL, index_temp, stmt.line)
        code.emit(op.GETLOCAL, keys_temp, stmt.line)
        code.emit(op.GETPROP, code.name_index("length"), stmt.line)
        code.emit(op.LT, None, stmt.line)
        exit_jump = code.emit(op.IFFALSE, None, stmt.line)
        code.emit(op.GETLOCAL, keys_temp, stmt.line)
        code.emit(op.GETLOCAL, index_temp, stmt.line)
        code.emit(op.GETELEM, None, stmt.line)
        self._emit_store_name(stmt.var_name, stmt.line)
        code.emit(op.POP, None, stmt.line)
        self.compile_statement(stmt.body)
        self._patch_continues(context, code.here)
        code.emit(op.GETLOCAL, index_temp, stmt.line)
        code.emit(op.ONE, None, stmt.line)
        code.emit(op.ADD, None, stmt.line)
        code.emit(op.SETLOCAL, index_temp, stmt.line)
        code.emit(op.POP, None, stmt.line)
        code.emit(op.JUMP, header, stmt.line)  # the loop edge
        code.patch(exit_jump, code.here)
        self._end_loop(context)
        self.free_temp(index_temp)
        self.free_temp(keys_temp)

    def stmt_break(self, stmt: ast.BreakStmt) -> None:
        if not self.break_stack:
            raise errors.CompileError("break outside loop or switch")
        patch_pc = self.code.emit(op.JUMP, None, stmt.line)
        self.break_stack[-1].append(patch_pc)

    def stmt_switch(self, stmt: ast.SwitchStmt) -> None:
        """``switch``: evaluate the discriminant once, strict-compare
        against each case in order, fall through between bodies."""
        code = self.code
        temp = self.alloc_temp()
        self.compile_expression(stmt.discriminant)
        code.emit(op.SETLOCAL, temp, stmt.line)
        code.emit(op.POP, None, stmt.line)
        break_patches: List[int] = []
        self.break_stack.append(break_patches)
        test_jumps: List[tuple] = []  # (case index, IFTRUE patch pc)
        default_index = None
        for index, (test, _body) in enumerate(stmt.cases):
            if test is None:
                default_index = index
                continue
            code.emit(op.GETLOCAL, temp, stmt.line)
            self.compile_expression(test)
            code.emit(op.STRICTEQ, None, stmt.line)
            test_jumps.append((index, code.emit(op.IFTRUE, None, stmt.line)))
        no_match = code.emit(op.JUMP, None, stmt.line)
        body_starts: List[int] = []
        for _test, body in stmt.cases:
            body_starts.append(code.here)
            for inner in body:
                self.compile_statement(inner)
        end = code.here
        for index, patch_pc in test_jumps:
            code.patch(patch_pc, body_starts[index])
        code.patch(no_match, body_starts[default_index] if default_index is not None else end)
        for patch_pc in break_patches:
            code.patch(patch_pc, end)
        self.break_stack.pop()
        self.free_temp(temp)

    def stmt_continue(self, stmt: ast.ContinueStmt) -> None:
        if not self.loop_stack:
            raise errors.CompileError("continue outside loop")
        patch_pc = self.code.emit(op.JUMP, None, stmt.line)
        self.loop_stack[-1].continue_patches.append(patch_pc)

    def stmt_return(self, stmt: ast.ReturnStmt) -> None:
        if self.code.is_toplevel:
            raise errors.CompileError("return outside function")
        if stmt.value is None:
            self.code.emit(op.RETUNDEF, None, stmt.line)
        else:
            self.compile_expression(stmt.value)
            self.code.emit(op.RETURN, None, stmt.line)

    def stmt_throw(self, stmt: ast.ThrowStmt) -> None:
        self.compile_expression(stmt.value)
        self.code.emit(op.THROW, None, stmt.line)

    def stmt_try(self, stmt: ast.TryStmt) -> None:
        code = self.code
        if stmt.finally_block is not None:
            self._compile_try_finally(stmt)
            return
        try_push = code.emit(op.TRYPUSH, None, stmt.line)
        for inner in stmt.block:
            self.compile_statement(inner)
        code.emit(op.TRYPOP, None, stmt.line)
        jump_end = code.emit(op.JUMP, None, stmt.line)
        code.patch(try_push, code.here)
        # Handler entry: the interpreter pushes the exception value.
        if code.is_toplevel:
            code.emit(
                op.SETGLOBAL, code.name_index(stmt.catch_name or ".exc"), stmt.line
            )
        else:
            catch_slot = code.ensure_local(stmt.catch_name or ".exc")
            code.emit(op.SETLOCAL, catch_slot, stmt.line)
        code.emit(op.POP, None, stmt.line)
        for inner in stmt.catch_block:
            self.compile_statement(inner)
        code.patch(jump_end, code.here)

    def _compile_try_finally(self, stmt: ast.TryStmt) -> None:
        """try/finally via code duplication (normal path + rethrow path)."""
        code = self.code
        inner = ast.TryStmt(
            line=stmt.line,
            block=stmt.block,
            catch_name=stmt.catch_name,
            catch_block=stmt.catch_block,
            finally_block=None,
        )
        try_push = code.emit(op.TRYPUSH, None, stmt.line)
        if stmt.catch_block is not None:
            self.stmt_try(inner)
        else:
            for body_stmt in stmt.block:
                self.compile_statement(body_stmt)
        code.emit(op.TRYPOP, None, stmt.line)
        for body_stmt in stmt.finally_block:
            self.compile_statement(body_stmt)
        jump_end = code.emit(op.JUMP, None, stmt.line)
        code.patch(try_push, code.here)
        exc_slot = self.alloc_temp()
        code.emit(op.SETLOCAL, exc_slot, stmt.line)
        code.emit(op.POP, None, stmt.line)
        for body_stmt in stmt.finally_block:
            self.compile_statement(body_stmt)
        code.emit(op.GETLOCAL, exc_slot, stmt.line)
        code.emit(op.THROW, None, stmt.line)
        self.free_temp(exc_slot)
        code.patch(jump_end, code.here)

    # -- expressions -------------------------------------------------------------

    def compile_expression(self, expr: ast.Node) -> None:
        method = _EXPRESSION_DISPATCH.get(type(expr))
        if method is None:
            raise errors.CompileError(f"unsupported expression: {type(expr).__name__}")
        method(self, expr)

    def expr_number(self, expr: ast.NumberLiteral) -> None:
        from repro.runtime.values import TAG_INT

        box = make_number(expr.value)
        if box.tag == TAG_INT and box.payload == 0:
            self.code.emit(op.ZERO, None, expr.line)
        elif box.tag == TAG_INT and box.payload == 1:
            self.code.emit(op.ONE, None, expr.line)
        else:
            self.code.emit(op.CONST, self.code.const_index(box), expr.line)

    def expr_string(self, expr: ast.StringLiteral) -> None:
        self.code.emit(
            op.CONST, self.code.const_index(make_string(expr.value)), expr.line
        )

    def expr_boolean(self, expr: ast.BooleanLiteral) -> None:
        self.code.emit(op.TRUE if expr.value else op.FALSE, None, expr.line)

    def expr_null(self, expr: ast.NullLiteral) -> None:
        self.code.emit(op.NULL, None, expr.line)

    def expr_this(self, expr: ast.ThisExpr) -> None:
        self.code.emit(op.THIS, None, expr.line)

    def expr_identifier(self, expr: ast.Identifier) -> None:
        code = self.code
        if expr.name == "undefined":
            code.emit(op.UNDEF, None, expr.line)
        elif self.is_local(expr.name):
            code.emit(op.GETLOCAL, code.local_names.index(expr.name), expr.line)
        else:
            code.emit(op.GETGLOBAL, code.name_index(expr.name), expr.line)

    def expr_array(self, expr: ast.ArrayLiteral) -> None:
        for element in expr.elements:
            self.compile_expression(element)
        self.code.emit(op.NEWARR, len(expr.elements), expr.line)

    def expr_object(self, expr: ast.ObjectLiteral) -> None:
        code = self.code
        code.emit(op.NEWOBJ, None, expr.line)
        for name, value in expr.properties:
            self.compile_expression(value)
            code.emit(op.INITPROP, code.name_index(name), expr.line)

    def expr_function(self, expr: ast.FunctionExpr) -> None:
        from repro.runtime.objects import JSFunction
        from repro.runtime.values import make_object

        inner = compile_function(expr.name or "anonymous", expr.params, expr.body)
        fn_box = make_object(JSFunction(expr.name or "anonymous", inner))
        self.code.emit(
            op.CONST, self.code.const_index_for_function(fn_box), expr.line
        )

    _UNARY_OPS = {"-": op.NEG, "+": op.TONUM, "!": op.NOT, "~": op.BITNOT}

    def expr_unary(self, expr: ast.UnaryExpr) -> None:
        if expr.op == "typeof":
            self.compile_expression(expr.operand)
            self.code.emit(op.TYPEOF, None, expr.line)
            return
        self.compile_expression(expr.operand)
        self.code.emit(self._UNARY_OPS[expr.op], None, expr.line)

    _BINARY_OPS = {
        "+": op.ADD,
        "-": op.SUB,
        "*": op.MUL,
        "/": op.DIV,
        "%": op.MOD,
        "&": op.BITAND,
        "|": op.BITOR,
        "^": op.BITXOR,
        "<<": op.SHL,
        ">>": op.SHR,
        ">>>": op.USHR,
        "<": op.LT,
        "<=": op.LE,
        ">": op.GT,
        ">=": op.GE,
        "==": op.EQ,
        "!=": op.NE,
        "===": op.STRICTEQ,
        "!==": op.STRICTNE,
    }

    def expr_binary(self, expr: ast.BinaryExpr) -> None:
        if expr.op == ",":
            self.compile_expression(expr.left)
            self.code.emit(op.POP, None, expr.line)
            self.compile_expression(expr.right)
            return
        self.compile_expression(expr.left)
        self.compile_expression(expr.right)
        self.code.emit(self._BINARY_OPS[expr.op], None, expr.line)

    def expr_logical(self, expr: ast.LogicalExpr) -> None:
        code = self.code
        self.compile_expression(expr.left)
        jump_op = op.ANDJMP if expr.op == "&&" else op.ORJMP
        jump = code.emit(jump_op, None, expr.line)
        self.compile_expression(expr.right)
        code.patch(jump, code.here)

    def expr_conditional(self, expr: ast.ConditionalExpr) -> None:
        code = self.code
        self.compile_expression(expr.test)
        jump_false = code.emit(op.IFFALSE, None, expr.line)
        self.compile_expression(expr.consequent)
        jump_end = code.emit(op.JUMP, None, expr.line)
        code.patch(jump_false, code.here)
        self.compile_expression(expr.alternate)
        code.patch(jump_end, code.here)

    def expr_assign(self, expr: ast.AssignExpr) -> None:
        code = self.code
        target = expr.target
        if isinstance(target, ast.Identifier):
            if expr.op:
                self.expr_identifier(target)
                self.compile_expression(expr.value)
                code.emit(self._BINARY_OPS[expr.op], None, expr.line)
            else:
                self.compile_expression(expr.value)
            self._emit_store_name(target.name, expr.line)
            return
        if not isinstance(target, ast.MemberExpr):
            raise errors.CompileError("invalid assignment target")
        if not target.computed:
            self.compile_expression(target.obj)
            if expr.op:
                code.emit(op.DUP, None, expr.line)
                code.emit(op.GETPROP, code.name_index(target.name), expr.line)
                self.compile_expression(expr.value)
                code.emit(self._BINARY_OPS[expr.op], None, expr.line)
            else:
                self.compile_expression(expr.value)
            code.emit(op.SETPROP, code.name_index(target.name), expr.line)
            return
        # Computed member target.
        self.compile_expression(target.obj)
        if expr.op:
            temp = self.alloc_temp()
            code.emit(op.DUP, None, expr.line)
            self.compile_expression(target.index)
            code.emit(op.SETLOCAL, temp, expr.line)
            code.emit(op.GETELEM, None, expr.line)
            self.compile_expression(expr.value)
            code.emit(self._BINARY_OPS[expr.op], None, expr.line)
            code.emit(op.GETLOCAL, temp, expr.line)
            code.emit(op.SWAP, None, expr.line)
            code.emit(op.SETELEM, None, expr.line)
            self.free_temp(temp)
        else:
            self.compile_expression(target.index)
            self.compile_expression(expr.value)
            code.emit(op.SETELEM, None, expr.line)

    def _emit_store_name(self, name: str, line: int) -> None:
        code = self.code
        if self.is_local(name):
            code.emit(op.SETLOCAL, code.local_names.index(name), line)
        else:
            code.emit(op.SETGLOBAL, code.name_index(name), line)

    def expr_update(self, expr: ast.UpdateExpr) -> None:
        code = self.code
        delta_op = op.ADD if expr.op == "++" else op.SUB
        target = expr.target
        if isinstance(target, ast.Identifier):
            self.expr_identifier(target)
            code.emit(op.TONUM, None, expr.line)
            if expr.prefix:
                code.emit(op.ONE, None, expr.line)
                code.emit(delta_op, None, expr.line)
                self._emit_store_name(target.name, expr.line)
            else:
                code.emit(op.DUP, None, expr.line)
                code.emit(op.ONE, None, expr.line)
                code.emit(delta_op, None, expr.line)
                self._emit_store_name(target.name, expr.line)
                code.emit(op.POP, None, expr.line)
            return
        if not isinstance(target, ast.MemberExpr):
            raise errors.CompileError("invalid update target")
        if not target.computed:
            name_idx = code.name_index(target.name)
            self.compile_expression(target.obj)
            code.emit(op.DUP, None, expr.line)
            code.emit(op.GETPROP, name_idx, expr.line)
            code.emit(op.TONUM, None, expr.line)
            if expr.prefix:
                code.emit(op.ONE, None, expr.line)
                code.emit(delta_op, None, expr.line)
                code.emit(op.SETPROP, name_idx, expr.line)
            else:
                temp = self.alloc_temp()
                code.emit(op.SETLOCAL, temp, expr.line)
                code.emit(op.ONE, None, expr.line)
                code.emit(delta_op, None, expr.line)
                code.emit(op.SETPROP, name_idx, expr.line)
                code.emit(op.POP, None, expr.line)
                code.emit(op.GETLOCAL, temp, expr.line)
                self.free_temp(temp)
            return
        # Computed member update: o[i]++ / ++o[i].
        index_temp = self.alloc_temp()
        self.compile_expression(target.obj)
        code.emit(op.DUP, None, expr.line)
        self.compile_expression(target.index)
        code.emit(op.SETLOCAL, index_temp, expr.line)
        code.emit(op.GETELEM, None, expr.line)
        code.emit(op.TONUM, None, expr.line)
        if expr.prefix:
            code.emit(op.ONE, None, expr.line)
            code.emit(delta_op, None, expr.line)
            code.emit(op.GETLOCAL, index_temp, expr.line)
            code.emit(op.SWAP, None, expr.line)
            code.emit(op.SETELEM, None, expr.line)
        else:
            value_temp = self.alloc_temp()
            code.emit(op.SETLOCAL, value_temp, expr.line)
            code.emit(op.ONE, None, expr.line)
            code.emit(delta_op, None, expr.line)
            code.emit(op.GETLOCAL, index_temp, expr.line)
            code.emit(op.SWAP, None, expr.line)
            code.emit(op.SETELEM, None, expr.line)
            code.emit(op.POP, None, expr.line)
            code.emit(op.GETLOCAL, value_temp, expr.line)
            self.free_temp(value_temp)
        self.free_temp(index_temp)

    def expr_member(self, expr: ast.MemberExpr) -> None:
        self.compile_expression(expr.obj)
        if expr.computed:
            self.compile_expression(expr.index)
            self.code.emit(op.GETELEM, None, expr.line)
        else:
            self.code.emit(op.GETPROP, self.code.name_index(expr.name), expr.line)

    def expr_call(self, expr: ast.CallExpr) -> None:
        code = self.code
        callee = expr.callee
        if isinstance(callee, ast.MemberExpr):
            # Method call: keep the receiver for `this`.
            self.compile_expression(callee.obj)
            code.emit(op.DUP, None, expr.line)
            if callee.computed:
                self.compile_expression(callee.index)
                code.emit(op.GETELEM, None, expr.line)
            else:
                code.emit(op.GETPROP, code.name_index(callee.name), expr.line)
            for arg in expr.args:
                self.compile_expression(arg)
            code.emit(op.CALLMETHOD, len(expr.args), expr.line)
        else:
            self.compile_expression(callee)
            for arg in expr.args:
                self.compile_expression(arg)
            code.emit(op.CALL, len(expr.args), expr.line)

    def expr_new(self, expr: ast.NewExpr) -> None:
        self.compile_expression(expr.callee)
        for arg in expr.args:
            self.compile_expression(arg)
        self.code.emit(op.NEW, len(expr.args), expr.line)

    def expr_delete(self, expr: ast.DeleteExpr) -> None:
        target = expr.target
        self.compile_expression(target.obj)
        if target.computed:
            raise errors.CompileError("delete o[expr] is not supported; use delete o.name")
        self.code.emit(op.DELPROP, self.code.name_index(target.name), expr.line)


def _collect_var_names(body: List[ast.Node]) -> List[str]:
    """All ``var`` / nested-function names declared anywhere in ``body``."""
    names: List[str] = []

    def visit_stmt(stmt: ast.Node) -> None:
        if isinstance(stmt, ast.VarDecl):
            for name, _init in stmt.declarations:
                if name not in names:
                    names.append(name)
        elif isinstance(stmt, ast.FunctionDecl):
            if stmt.name not in names:
                names.append(stmt.name)
        elif isinstance(stmt, ast.BlockStmt):
            for inner in stmt.body:
                visit_stmt(inner)
        elif isinstance(stmt, ast.IfStmt):
            visit_stmt(stmt.consequent)
            if stmt.alternate is not None:
                visit_stmt(stmt.alternate)
        elif isinstance(stmt, (ast.WhileStmt, ast.DoWhileStmt)):
            visit_stmt(stmt.body)
        elif isinstance(stmt, ast.ForStmt):
            if isinstance(stmt.init, ast.VarDecl):
                visit_stmt(stmt.init)
            visit_stmt(stmt.body)
        elif isinstance(stmt, ast.ForInStmt):
            if stmt.is_declaration and stmt.var_name not in names:
                names.append(stmt.var_name)
            visit_stmt(stmt.body)
        elif isinstance(stmt, ast.SwitchStmt):
            for _test, body in stmt.cases:
                for inner in body:
                    visit_stmt(inner)
        elif isinstance(stmt, ast.TryStmt):
            for inner in stmt.block:
                visit_stmt(inner)
            if stmt.catch_block is not None:
                if stmt.catch_name and stmt.catch_name not in names:
                    names.append(stmt.catch_name)
                for inner in stmt.catch_block:
                    visit_stmt(inner)
            if stmt.finally_block is not None:
                for inner in stmt.finally_block:
                    visit_stmt(inner)

    for stmt in body:
        visit_stmt(stmt)
    return names


_STATEMENT_DISPATCH = {
    ast.BlockStmt: _FunctionCompiler.stmt_block,
    ast.EmptyStmt: _FunctionCompiler.stmt_empty,
    ast.ExpressionStmt: _FunctionCompiler.stmt_expression,
    ast.VarDecl: _FunctionCompiler.stmt_var,
    ast.IfStmt: _FunctionCompiler.stmt_if,
    ast.WhileStmt: _FunctionCompiler.stmt_while,
    ast.DoWhileStmt: _FunctionCompiler.stmt_do_while,
    ast.ForStmt: _FunctionCompiler.stmt_for,
    ast.BreakStmt: _FunctionCompiler.stmt_break,
    ast.ContinueStmt: _FunctionCompiler.stmt_continue,
    ast.ReturnStmt: _FunctionCompiler.stmt_return,
    ast.ThrowStmt: _FunctionCompiler.stmt_throw,
    ast.TryStmt: _FunctionCompiler.stmt_try,
    ast.SwitchStmt: _FunctionCompiler.stmt_switch,
    ast.ForInStmt: _FunctionCompiler.stmt_forin,
}

_EXPRESSION_DISPATCH = {
    ast.NumberLiteral: _FunctionCompiler.expr_number,
    ast.StringLiteral: _FunctionCompiler.expr_string,
    ast.BooleanLiteral: _FunctionCompiler.expr_boolean,
    ast.NullLiteral: _FunctionCompiler.expr_null,
    ast.ThisExpr: _FunctionCompiler.expr_this,
    ast.Identifier: _FunctionCompiler.expr_identifier,
    ast.ArrayLiteral: _FunctionCompiler.expr_array,
    ast.ObjectLiteral: _FunctionCompiler.expr_object,
    ast.FunctionExpr: _FunctionCompiler.expr_function,
    ast.UnaryExpr: _FunctionCompiler.expr_unary,
    ast.BinaryExpr: _FunctionCompiler.expr_binary,
    ast.LogicalExpr: _FunctionCompiler.expr_logical,
    ast.ConditionalExpr: _FunctionCompiler.expr_conditional,
    ast.AssignExpr: _FunctionCompiler.expr_assign,
    ast.UpdateExpr: _FunctionCompiler.expr_update,
    ast.MemberExpr: _FunctionCompiler.expr_member,
    ast.CallExpr: _FunctionCompiler.expr_call,
    ast.NewExpr: _FunctionCompiler.expr_new,
    ast.DeleteExpr: _FunctionCompiler.expr_delete,
}


def _const_index_for_function(code: Code, fn_box: Box) -> int:
    """Function constants are unique objects; never pool-deduplicated."""
    code.consts.append(fn_box)
    return len(code.consts) - 1


# Attach as a method so call sites read naturally.
Code.const_index_for_function = _const_index_for_function


def compile_function(name: str, params: List[str], body: List[ast.Node]) -> Code:
    """Compile a function body to bytecode."""
    compiler = _FunctionCompiler(name, params, is_toplevel=False)
    compiler.compile_body(body)
    compiler.code.emit(op.RETUNDEF, None, 0)
    return compiler.code


def compile_program(source: str, name: str = "<program>") -> Code:
    """Parse and compile a top-level JSLite program."""
    program = parse(source)
    compiler = _FunctionCompiler(name, [], is_toplevel=True)
    compiler.compile_body(program.body)
    compiler.code.emit(op.END, None, 0)
    return compiler.code
