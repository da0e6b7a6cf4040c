"""AST-instrumentation coverage backend.

The settrace tracer costs a Python-level callback for *every* line event in
*every* frame of the process — including the taint and stream machinery that
runs constantly during a parse.  This backend removes that overhead by
rewriting the subject's modules once at build time: every statement boundary
gets a cheap ``__cov_line__(lineno)`` call compiled directly into the code,
so only subject code pays for coverage, and it pays a plain function call
instead of a trace dispatch (cf. *Building Fast Fuzzers*, Gopinath &
Zeller).

The rewrite is engineered to produce **exactly** the event stream of the
settrace backend after statement-owner normalisation (see
:mod:`repro.runtime.owners`):

* plain statements get a preceding ``__cov_line__(head)``;
* ``if``/``while`` tests become ``(__cov_line__(head) or test)`` so the
  header fires once per check, including the final failing one (CPython
  attributes even a ``while True:`` back-jump to the header line);
* where the previous line of the frame is known at rewrite time, the event
  is a *static arc* ``__cov_arc__(slot, head)`` instead: a function's or
  comprehension's first event (predecessor ``ENTRY``), the first statement
  of an ``if``/``else``/``while``/``for``/``try``/handler body (predecessor:
  the header), a statement or ``if``/``elif`` test that follows a simple
  statement (predecessor: that statement), and a ``for``/``try`` head that
  follows one.  The slot names the ``(predecessor, head)`` pair, so the
  call skips the same-line check and the key hashing of ``__cov_line__``;
  its arc is interned on first traversal, exactly when ``__cov_line__``
  would have interned it.  A site whose predecessor is its own line emits
  nothing (``__cov_line__`` would have returned early).  Joins (the
  statement after a compound statement, a ``finally`` body), loop
  re-checks and exception dispatch keep ``__cov_line__``;
* ``for`` loops are desugared into ``while True`` + explicit ``next()``
  with a header line event before every fetch and at exhaustion, and
  nothing when the loop ``break``s;
* ``except`` clauses collapse into one ``except BaseException`` handler
  that fires the ``try`` head (exception dispatch) and then replays the
  original clause matching with ``isinstance``;
* comprehensions and generator expressions are hoisted into synthesized
  closures that replicate their dedicated frames (call event, one owner
  line event per frame activation, return event);
* function bodies get a ``__cov_call__(name)`` prologue and a
  ``try/finally`` ``__cov_ret__()`` epilogue, mirroring frame call/return
  events including exception unwinding.

Modules are cloned — parsed, rewritten, compiled under the original
filename, and executed into fresh module objects — so the real modules stay
untouched.  Imports *between* cloned modules are rewritten to a
``__cov_import__`` helper so a clone calls into sibling clones, while
imports of shared infrastructure (errors, stream, taint) are left alone and
keep pointing at the real modules.  Arcs are interned on first traversal
through the subject's :class:`~repro.runtime.arcs.ArcTable`, the same
table the settrace backend interns through.
"""

from __future__ import annotations

import ast
import inspect
import sys
import types
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.arcs import ArcTable, arc_table_for
from repro.runtime.owners import statement_head

#: Pseudo previous-line for a frame's entry arc (matches the tracer).
ENTRY = 0

_COV_LINE = "__cov_line__"
_COV_ARC = "__cov_arc__"
_COV_CALL = "__cov_call__"
_COV_RET = "__cov_ret__"
_COV_IMPORT = "__cov_import__"
_COV_EXC = "__cov_exc__"


class UnsupportedConstruct(Exception):
    """A subject uses syntax the instrumenter cannot replicate faithfully."""


# ---------------------------------------------------------------------- #
# Runtime collector
# ---------------------------------------------------------------------- #


class Collector:
    """Mutable coverage state shared by all cloned modules of one subject.

    Mirrors :class:`~repro.runtime.tracer.CoverageTracer`'s observable
    state — interned arcs with first-traversal clocks, a statement clock,
    call depth and the named call stack — but is driven by compiled-in
    ``__cov_*`` calls instead of trace events.  ``_prev`` is a stack of
    per-logical-frame previous lines: ``__cov_call__`` pushes ``ENTRY``,
    ``__cov_ret__`` pops.  ``sites`` maps each cloned file to the static
    predecessor line of every ``__cov_arc__`` slot in it.
    """

    __slots__ = ("table", "arcs", "call_stack", "sites", "_state", "_prev")

    #: Indices into the ``_state`` list (one shared mutable cell block so
    #: the injected closures avoid attribute lookups on the hot path).
    _CLOCK, _DEPTH, _SERIAL = 0, 1, 2

    def __init__(self, table: ArcTable) -> None:
        self.table = table
        self.arcs: Dict[int, int] = {}
        self.call_stack: List[Tuple[str, int]] = []
        self.sites: Dict[str, Tuple[int, ...]] = {}
        self._state: List[int] = [0, 0, 0]  # clock, depth, serial
        self._prev: List[int] = [ENTRY]

    def reset(self) -> None:
        """Clear per-run state (arcs, clock, depth, stack).

        Clears in place: the injected ``__cov_*`` closures bind these
        containers by identity, so they must never be replaced.
        """
        self.arcs.clear()
        self.call_stack.clear()
        state = self._state
        state[0] = state[1] = state[2] = 0
        prev = self._prev
        del prev[1:]
        prev[0] = ENTRY

    @property
    def clock(self) -> int:
        return self._state[self._CLOCK]

    @property
    def depth(self) -> int:
        return self._state[self._DEPTH]

    # -- providers handed to the taint recorder ------------------------- #

    def current_depth(self) -> int:
        """Call-stack depth inside subject code right now."""
        return self._state[self._DEPTH]

    def current_clock(self) -> int:
        """Monotonic statement clock right now."""
        return self._state[self._CLOCK]

    def current_stack(self) -> Tuple[Tuple[str, int], ...]:
        """Snapshot of the subject call stack (name, invocation serial)."""
        return tuple(self.call_stack)

    # -- per-module instrumentation entry points ------------------------ #
    #
    # Hot-path state is bound through default arguments: cheaper than both
    # closure cells and attribute lookups, and safe because reset() mutates
    # the bound containers instead of rebinding them.

    def line_function(self, filename: str) -> Callable[[int], None]:
        """The ``__cov_line__`` injected into a module from ``filename``."""

        def __cov_line__(
            lineno: int,
            _prev: list = self._prev,
            _state: list = self._state,
            _record=self.arcs.setdefault,
            _cache: dict = {},  # noqa: B006 — intentional per-closure cache
            _intern=self.table.intern,
            _filename: str = filename,
        ) -> None:
            previous = _prev[-1]
            if previous == lineno:
                return None
            clock = _state[0] + 1
            _state[0] = clock
            key = (previous << 20) | lineno
            arc_id = _cache.get(key)
            if arc_id is None:
                arc_id = _intern((_filename, previous, lineno))
                _cache[key] = arc_id
            _record(arc_id, clock)
            _prev[-1] = lineno
            return None

        return __cov_line__

    def arc_function(
        self, filename: str, sites: Sequence[int]
    ) -> Callable[[int, int], None]:
        """The ``__cov_arc__`` injected into a module from ``filename``.

        ``sites[slot]`` is the line the rewriter proved precedes slot
        ``slot``'s line in its frame, so the arc needs neither the
        same-line check nor a key lookup; its id is interned on the
        slot's first traversal, when ``__cov_line__`` would have
        interned it.
        """
        sites = self.sites[filename] = tuple(sites)

        def __cov_arc__(
            slot: int,
            lineno: int,
            _prev: list = self._prev,
            _state: list = self._state,
            _record=self.arcs.setdefault,
            _ids: list = [None] * len(sites),
            _sites: tuple = sites,
            _intern=self.table.intern,
            _filename: str = filename,
        ) -> None:
            clock = _state[0] + 1
            _state[0] = clock
            arc_id = _ids[slot]
            if arc_id is None:
                arc_id = _ids[slot] = _intern((_filename, _sites[slot], lineno))
            _record(arc_id, clock)
            _prev[-1] = lineno
            return None

        return __cov_arc__

    def call_function(self) -> Callable[[str], None]:
        """The ``__cov_call__`` prologue: one frame entered."""

        def __cov_call__(
            name: str,
            _state: list = self._state,
            _stack_push=self.call_stack.append,
            _prev_push=self._prev.append,
        ) -> None:
            _state[1] += 1
            serial = _state[2] + 1
            _state[2] = serial
            _stack_push((name, serial))
            _prev_push(ENTRY)

        return __cov_call__

    def ret_function(self) -> Callable[[], None]:
        """The ``__cov_ret__`` epilogue: one frame left (even by raising)."""

        def __cov_ret__(
            _state: list = self._state,
            _stack: list = self.call_stack,
            _prev: list = self._prev,
        ) -> None:
            _state[1] -= 1
            if _stack:
                _stack.pop()
            if len(_prev) > 1:
                _prev.pop()

        return __cov_ret__


# ---------------------------------------------------------------------- #
# AST helpers
# ---------------------------------------------------------------------- #


def _load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


def _store(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Store())


def _call(func: str, args: List[ast.expr]) -> ast.Call:
    return ast.Call(func=_load(func), args=args, keywords=[])


def _line_event(lineno: int) -> ast.Expr:
    return ast.Expr(value=_call(_COV_LINE, [ast.Constant(lineno)]))


def _is_docstring_or_constant(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _check_supported(tree: ast.Module, filename: str) -> None:
    """Reject function-body syntax whose trace events we cannot replicate."""
    banned = (
        ast.AsyncFunctionDef,
        ast.AsyncFor,
        ast.AsyncWith,
        ast.With,
        ast.Match,
        ast.Lambda,
        ast.Yield,
        ast.YieldFrom,
        ast.Await,
    )
    # Async defs escape the per-function scan below (they are not
    # ast.FunctionDef), yet would run uninstrumented if defined at module
    # or class level — ban them anywhere.
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            raise UnsupportedConstruct(
                f"{filename}:{node.lineno}: cannot instrument "
                f"async function {node.name!r}"
            )
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, banned):
                raise UnsupportedConstruct(
                    f"{filename}:{node.lineno}: cannot instrument "
                    f"{type(node).__name__} in function {function.name!r}"
                )
            if isinstance(node, ast.ClassDef) and node is not function:
                raise UnsupportedConstruct(
                    f"{filename}:{node.lineno}: class definition inside "
                    f"function {function.name!r}"
                )
            if isinstance(node, (ast.For, ast.While)) and node.orelse:
                raise UnsupportedConstruct(
                    f"{filename}:{node.lineno}: loop else clause"
                )
            if isinstance(node, ast.Try) and node.orelse:
                raise UnsupportedConstruct(
                    f"{filename}:{node.lineno}: try else clause"
                )


# ---------------------------------------------------------------------- #
# Comprehension hoisting
# ---------------------------------------------------------------------- #

_COMP_NAMES = {
    ast.ListComp: "<listcomp>",
    ast.SetComp: "<setcomp>",
    ast.DictComp: "<dictcomp>",
}


class _CompRewriter(ast.NodeTransformer):
    """Replace comprehensions/genexps with calls to synthesized closures.

    A comprehension runs in its own frame, so the tracer sees a call event,
    owner-line event(s) and a return event that compiled-in statement hooks
    would miss.  Each comprehension becomes a hoisted nested function that
    replays those events explicitly; the hoisted definitions are emitted
    just before the statement that contained the expression (closures keep
    captured variables live, so hoisting is behaviour-preserving).
    """

    def __init__(self, instrumenter: "_Instrumenter", owner_line: int) -> None:
        self._instrumenter = instrumenter
        self._owner = owner_line
        self.hoisted: List[ast.FunctionDef] = []

    # Nested function bodies are instrumented separately.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.FunctionDef:
        return node

    def _generator(self, node) -> ast.comprehension:
        if len(node.generators) != 1:
            raise UnsupportedConstruct(
                f"line {node.lineno}: comprehension with multiple generators"
            )
        generator = node.generators[0]
        if generator.ifs or generator.is_async:
            raise UnsupportedConstruct(
                f"line {node.lineno}: filtered or async comprehension"
            )
        for sub in ast.iter_child_nodes(node):
            for nested in ast.walk(sub):
                if nested is not node and isinstance(
                    nested, (*_COMP_NAMES, ast.GeneratorExp)
                ):
                    raise UnsupportedConstruct(
                        f"line {node.lineno}: nested comprehension"
                    )
        return generator

    def _owner_event(self) -> List[ast.stmt]:
        """The owner line event of a fresh comprehension frame."""
        return self._instrumenter.event(self._owner, ENTRY)

    def _closure(self, name: str, body: List[ast.stmt]) -> str:
        function_name = self._instrumenter.fresh_name()
        arguments = ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg="__cov_it__")],
            vararg=None,
            kwonlyargs=[],
            kw_defaults=[],
            kwarg=None,
            defaults=[],
        )
        self.hoisted.append(
            ast.FunctionDef(
                name=function_name,
                args=arguments,
                body=body,
                decorator_list=[],
                returns=None,
            )
        )
        return function_name

    def _comp(self, node) -> ast.Call:
        generator = self._generator(node)
        inner_generators = [
            ast.comprehension(
                target=generator.target,
                iter=_load("__cov_it__"),
                ifs=[],
                is_async=0,
            )
        ]
        if isinstance(node, ast.DictComp):
            inner: ast.expr = ast.DictComp(
                key=node.key, value=node.value, generators=inner_generators
            )
        elif isinstance(node, ast.SetComp):
            inner = ast.SetComp(elt=node.elt, generators=inner_generators)
        else:
            inner = ast.ListComp(elt=node.elt, generators=inner_generators)
        # def closure(__cov_it__):
        #     __cov_call__('<listcomp>')
        #     try:
        #         __cov_arc__(slot, owner)   # the frame's single owner event
        #         return [... for ... in __cov_it__]
        #     finally:
        #         __cov_ret__()
        body: List[ast.stmt] = [
            ast.Expr(value=_call(_COV_CALL, [ast.Constant(_COMP_NAMES[type(node)])])),
            ast.Try(
                body=self._owner_event() + [ast.Return(value=inner)],
                handlers=[],
                orelse=[],
                finalbody=[ast.Expr(value=_call(_COV_RET, []))],
            ),
        ]
        function_name = self._closure(_COMP_NAMES[type(node)], body)
        return _call(function_name, [node.generators[0].iter])

    def visit_ListComp(self, node: ast.ListComp) -> ast.Call:
        return self._comp(node)

    def visit_SetComp(self, node: ast.SetComp) -> ast.Call:
        return self._comp(node)

    def visit_DictComp(self, node: ast.DictComp) -> ast.Call:
        return self._comp(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> ast.Call:
        generator = self._generator(node)
        # Each resume of a traced genexp frame fires call, one owner line,
        # and return (the yield).  The closure replays that per item, plus
        # the final resume that ends in StopIteration.  The yield sits
        # outside the call/ret window so abandoning the generator (which the
        # subjects never do) fires nothing.
        #
        # def closure(__cov_it__):           # called with iter(<iterable>)
        #     while True:
        #         __cov_call__('<genexpr>')
        #         try:
        #             __cov_arc__(slot, owner)
        #             try:
        #                 <target> = next(__cov_it__)
        #             except StopIteration:
        #                 return
        #             __cov_value__ = <elt>
        #         finally:
        #             __cov_ret__()
        #         yield __cov_value__
        fetch = ast.Try(
            body=[
                ast.Assign(
                    targets=[generator.target],
                    value=_call("next", [_load("__cov_it__")]),
                )
            ],
            handlers=[
                ast.ExceptHandler(
                    type=_load("StopIteration"),
                    name=None,
                    body=[ast.Return(value=None)],
                )
            ],
            orelse=[],
            finalbody=[],
        )
        loop_body: List[ast.stmt] = [
            ast.Expr(value=_call(_COV_CALL, [ast.Constant("<genexpr>")])),
            ast.Try(
                body=self._owner_event() + [
                    fetch,
                    ast.Assign(targets=[_store("__cov_value__")], value=node.elt),
                ],
                handlers=[],
                orelse=[],
                finalbody=[ast.Expr(value=_call(_COV_RET, []))],
            ),
            ast.Expr(value=ast.Yield(value=_load("__cov_value__"))),
        ]
        body: List[ast.stmt] = [
            ast.While(test=ast.Constant(True), body=loop_body, orelse=[])
        ]
        function_name = self._closure("<genexpr>", body)
        return _call(function_name, [_call("iter", [generator.iter])])


# ---------------------------------------------------------------------- #
# Statement instrumentation
# ---------------------------------------------------------------------- #


class _Instrumenter:
    """Rewrites one module tree in place (function bodies only).

    Each rewrite step threads the frame's *static previous line*: the line
    of the last event fired in the frame whenever control reaches the
    current point, or None where several paths join.  Where it is known, a
    line event becomes a ``__cov_arc__`` slot; ``sites`` collects every
    slot's predecessor.
    """

    def __init__(self) -> None:
        self._counter = 0
        self.sites: List[int] = []

    def fresh_name(self, kind: str = "closure") -> str:
        self._counter += 1
        return f"__cov_{kind}_{self._counter}__"

    def _event_call(
        self, lineno: int, previous: Optional[int]
    ) -> Optional[ast.Call]:
        """The call recording ``lineno`` reached from static line
        ``previous`` (None: unknown), or None for no event at all."""
        if previous is None:
            return _call(_COV_LINE, [ast.Constant(lineno)])
        if previous == lineno:
            return None
        self.sites.append(previous)
        slot = len(self.sites) - 1
        return _call(_COV_ARC, [ast.Constant(slot), ast.Constant(lineno)])

    def event(self, lineno: int, previous: Optional[int]) -> List[ast.stmt]:
        """The line event statement for ``lineno`` reached from ``previous``."""
        call = self._event_call(lineno, previous)
        return [] if call is None else [ast.Expr(value=call)]

    def _test_event(
        self, lineno: int, previous: Optional[int], test: ast.expr
    ) -> ast.expr:
        """``test`` -> ``(<event> or test)``: fires once per check."""
        call = self._event_call(lineno, previous)
        return test if call is None else ast.BoolOp(op=ast.Or(), values=[call, test])

    def instrument_module(self, tree: ast.Module) -> None:
        self._scan_definitions(tree.body)

    def _scan_definitions(self, statements: List[ast.stmt]) -> None:
        """Find functions at module/class level; leave the level itself alone.

        Module- and class-level statements run once at clone build time,
        never during a traced execution, so they stay uninstrumented — the
        per-run ``Collector.reset`` discards anything they might record.
        """
        for statement in statements:
            if isinstance(statement, ast.FunctionDef):
                self._instrument_function(statement)
            elif isinstance(statement, ast.ClassDef):
                self._scan_definitions(statement.body)

    def _instrument_function(self, function: ast.FunctionDef) -> None:
        body = self._block(function.body, ENTRY)
        function.body = [
            ast.Expr(value=_call(_COV_CALL, [ast.Constant(function.name)])),
            ast.Try(
                body=body or [ast.Pass()],
                handlers=[],
                orelse=[],
                finalbody=[ast.Expr(value=_call(_COV_RET, []))],
            ),
        ]

    def _block(
        self, statements: List[ast.stmt], previous: Optional[int]
    ) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for statement in statements:
            rewritten, previous = self._statement(statement, previous)
            out.extend(rewritten)
        return out

    def _rewrite_expressions(
        self, statement: ast.stmt, owner: int, fields: Optional[Tuple[str, ...]]
    ) -> List[ast.stmt]:
        """Hoist comprehensions out of a statement's expressions."""
        rewriter = _CompRewriter(self, owner)
        if fields is None:
            rewriter.generic_visit(statement)
        else:
            for field in fields:
                setattr(statement, field, rewriter.visit(getattr(statement, field)))
        return rewriter.hoisted

    def _statement(
        self, statement: ast.stmt, previous: Optional[int]
    ) -> Tuple[List[ast.stmt], Optional[int]]:
        """Rewrite one statement reached from static line ``previous``.

        Returns the replacement statements and the static previous line
        after them: known only after a simple statement (control can only
        fall through it), None after a compound one (a join).
        """
        head = statement_head(statement)
        # Statements that execute without a line event of their own.
        if (
            _is_docstring_or_constant(statement)
            or isinstance(statement, (ast.Global, ast.Nonlocal))
            or (isinstance(statement, ast.AnnAssign) and statement.value is None)
        ):
            return [statement], previous
        if isinstance(statement, ast.FunctionDef):
            self._instrument_function(statement)
            return self.event(head, previous) + [statement], None
        if isinstance(statement, ast.If):
            hoisted = self._rewrite_expressions(statement, head, ("test",))
            statement.test = self._test_event(head, previous, statement.test)
            # Both branches start right after the header's check; an
            # ``elif`` is an If first in ``orelse``, so its test is static.
            statement.body = self._block(statement.body, head)
            statement.orelse = self._block(statement.orelse, head)
            return hoisted + [statement], None
        if isinstance(statement, ast.While):
            # The or-trick fires the header per check: at entry, after every
            # back-jump, and for the final failing check — matching CPython,
            # which attributes even a `while True:` back-jump to the header
            # line (no event when the loop exits via break/return).  The
            # re-checks make the header's predecessor dynamic.
            hoisted = self._rewrite_expressions(statement, head, ("test",))
            statement.body = self._block(statement.body, head)
            statement.test = self._test_event(head, None, statement.test)
            return hoisted + [statement], None
        if isinstance(statement, ast.For):
            return self._rewrite_for(statement, head, previous), None
        if isinstance(statement, ast.Try):
            statement.body = self._block(statement.body, head)
            statement.finalbody = self._block(statement.finalbody, None)
            if statement.handlers:
                statement.handlers = [
                    self._dispatch_handler(statement.handlers, head)
                ]
            return self.event(head, previous) + [statement], None
        # Plain statement (assign, call, return, raise, import, pass, ...).
        hoisted = self._rewrite_expressions(statement, head, None)
        return hoisted + self.event(head, previous) + [statement], head

    def _rewrite_for(
        self, statement: ast.For, head: int, previous: Optional[int]
    ) -> List[ast.stmt]:
        """Desugar ``for`` into ``while True`` + explicit ``next()``.

        A traced ``for`` fires its header line per fetch: at entry, after
        each completed iteration (the back-jump), and once at exhaustion —
        but not when the loop exits via ``break``.  The desugared loop fires
        ``__cov_line__(head)`` at exactly those points, without the extra
        frame a wrapper generator would add::

            __cov_line__(head)               # the `for` statement itself
            __cov_iter_N__ = iter(ITER)
            while True:
                __cov_line__(head)           # per-fetch (deduped at entry)
                try:
                    TARGET = next(__cov_iter_N__)
                except StopIteration:
                    break
                BODY

        The first event is a static arc when ``previous`` is known; the
        per-fetch one is a loop re-check and stays dynamic.
        """
        hoisted = self._rewrite_expressions(statement, head, ("iter",))
        iterator_name = self.fresh_name("iter")
        fetch = ast.Try(
            body=[
                ast.Assign(
                    targets=[statement.target],
                    value=_call("next", [_load(iterator_name)]),
                )
            ],
            handlers=[
                ast.ExceptHandler(
                    type=_load("StopIteration"),
                    name=None,
                    body=[ast.Break()],
                )
            ],
            orelse=[],
            finalbody=[],
        )
        loop = ast.While(
            test=ast.Constant(True),
            body=[_line_event(head), fetch] + self._block(statement.body, head),
            orelse=[],
        )
        setup = ast.Assign(
            targets=[_store(iterator_name)],
            value=_call("iter", [statement.iter]),
        )
        return hoisted + self.event(head, previous) + [setup, loop]

    def _dispatch_handler(
        self, handlers: List[ast.ExceptHandler], try_head: int
    ) -> ast.ExceptHandler:
        """Collapse except clauses into one catch-all that replays dispatch.

        The tracer sees one owner event at the try head when an exception
        arrives (every examined clause line maps there), then the matching
        handler body.  The synthesized handler fires that event and
        re-implements clause matching with ``isinstance``; unmatched
        exceptions are re-raised bare, preserving the traceback.  The
        dispatch event's predecessor is wherever the exception came from,
        so it stays dynamic; each handler body starts after it.
        """
        orelse: List[ast.stmt] = [ast.Raise(exc=None, cause=None)]
        for handler in reversed(handlers):
            body = self._block(handler.body, try_head)
            if handler.name:
                # Replicate `except E as name:` binding and unbinding.
                body = [
                    ast.Assign(targets=[_store(handler.name)], value=_load(_COV_EXC)),
                    ast.Try(
                        body=body,
                        handlers=[],
                        orelse=[],
                        finalbody=[
                            ast.Assign(
                                targets=[_store(handler.name)],
                                value=ast.Constant(None),
                            ),
                            ast.Delete(
                                targets=[ast.Name(id=handler.name, ctx=ast.Del())]
                            ),
                        ],
                    ),
                ]
            if handler.type is None:
                orelse = body + []
            else:
                test = _call("isinstance", [_load(_COV_EXC), handler.type])
                orelse = [ast.If(test=test, body=body, orelse=orelse)]
        return ast.ExceptHandler(
            type=_load("BaseException"),
            name=_COV_EXC,
            body=[_line_event(try_head)] + orelse,
        )


# ---------------------------------------------------------------------- #
# Module cloning
# ---------------------------------------------------------------------- #


class _RewriteImports(ast.NodeTransformer):
    """Point imports of cloned modules at ``__cov_import__``.

    Imports of modules outside the clone set (errors, stream, taint, the
    Subject base class) are left untouched so exception types and the
    recorder stay shared with the rest of the process.
    """

    def __init__(self, clone_names: Iterable[str]) -> None:
        self._clone_names = frozenset(clone_names)

    def visit_Import(self, node: ast.Import) -> ast.stmt:
        for alias in node.names:
            if alias.name in self._clone_names:
                raise UnsupportedConstruct(
                    f"line {node.lineno}: plain `import {alias.name}` of a "
                    "cloned module (use `from ... import ...`)"
                )
        return node

    def visit_ImportFrom(self, node: ast.ImportFrom):
        if node.level or node.module is None:
            return node
        module = node.module
        replacements: List[ast.stmt] = []
        remaining: List[ast.alias] = []
        for alias in node.names:
            target = alias.asname or alias.name
            submodule = f"{module}.{alias.name}"
            if module in self._clone_names:
                # from <cloned module> import name  ->  name = clone.name
                value: ast.expr = ast.Attribute(
                    value=_call(_COV_IMPORT, [ast.Constant(module)]),
                    attr=alias.name,
                    ctx=ast.Load(),
                )
            elif submodule in self._clone_names:
                # from <package> import <cloned submodule>
                value = _call(_COV_IMPORT, [ast.Constant(submodule)])
            else:
                remaining.append(alias)
                continue
            replacements.append(
                ast.copy_location(
                    ast.Assign(targets=[_store(target)], value=value), node
                )
            )
        if not replacements:
            return node
        if remaining:
            replacements.insert(
                0,
                ast.copy_location(
                    ast.ImportFrom(module=module, names=remaining, level=0), node
                ),
            )
        return replacements


def _clone_source(module: types.ModuleType) -> Tuple[str, ast.Module]:
    filename = inspect.getsourcefile(module) or module.__file__
    with open(filename, "r", encoding="utf-8") as handle:
        source = handle.read()
    return filename, ast.parse(source, filename)


def _build(subject) -> Tuple[Dict[str, list], Collector]:
    """Clone, rewrite and execute all modules of one subject class."""
    table = arc_table_for(subject)
    collector = Collector(table)
    instrumented = list(subject.instrument_modules())
    instrumented_names = {module.__name__ for module in instrumented}
    subject_module = sys.modules[type(subject).__module__]
    clone_set = list(instrumented)
    if subject_module.__name__ not in instrumented_names:
        # The subject's own module is not traced (e.g. mjs/subject.py), but
        # it must still call into the clones, so it is import-rewritten
        # without arc instrumentation.
        clone_set.append(subject_module)
    clone_names = {module.__name__ for module in clone_set}

    registry: Dict[str, list] = {}  # name -> [module, code, initialised]

    def importer(name: str) -> types.ModuleType:
        entry = registry[name]
        if not entry[2]:
            entry[2] = True  # set first: tolerate import cycles
            exec(entry[1], entry[0].__dict__)
        return entry[0]

    for module in clone_set:
        filename, tree = _clone_source(module)
        tree = _RewriteImports(clone_names).visit(tree)
        instrumenter = _Instrumenter()
        if module.__name__ in instrumented_names:
            _check_supported(tree, filename)
            instrumenter.instrument_module(tree)
        ast.fix_missing_locations(tree)
        code = compile(tree, filename, "exec")
        clone = types.ModuleType(module.__name__)
        clone.__file__ = filename
        clone.__package__ = module.__package__
        namespace = clone.__dict__
        line_function = collector.line_function(filename)
        namespace[_COV_LINE] = line_function
        namespace[_COV_ARC] = collector.arc_function(filename, instrumenter.sites)
        namespace[_COV_CALL] = collector.call_function()
        namespace[_COV_RET] = collector.ret_function()
        namespace[_COV_IMPORT] = importer
        registry[module.__name__] = [clone, code, False]

    for name in registry:
        importer(name)
    return registry, collector


#: One build (cloned modules + collector) per subject identity — the
#: subject class, or its ``arc_table_key`` when it publishes one (adapter
#: subjects wrap many distinct parsers under one class; see
#: :func:`repro.runtime.arcs.arc_table_for`).
_BUILDS: Dict[object, Tuple[Dict[str, list], Collector]] = {}


def instrumented_subject(subject) -> Tuple[object, Collector]:
    """An instrumented clone of ``subject`` plus its (shared) collector.

    The expensive part — parsing, rewriting and compiling the subject's
    modules — runs once per subject identity and is cached; per call only
    a fresh subject instance is materialised from the cloned class with
    the original instance's configuration.

    Subjects that delegate to captured callables rather than methods on
    their own class (adapters like
    :class:`~repro.subjects.function.FunctionSubject`) implement
    ``rebind_instrumented(resolve)`` — called with a ``module name ->
    clone module`` resolver, returning the clone subject with its
    captured state rebound into the cloned modules.
    """
    key = getattr(subject, "arc_table_key", None)
    if key is None:
        key = type(subject)
    build = _BUILDS.get(key)
    if build is None:
        build = _BUILDS[key] = _build(subject)
    registry, collector = build

    def resolve(name: str) -> types.ModuleType:
        return registry[name][0]

    rebind = getattr(subject, "rebind_instrumented", None)
    if rebind is not None:
        return rebind(resolve), collector
    cls = type(subject)
    clone_module = registry[cls.__module__][0]
    clone_cls = getattr(clone_module, cls.__name__)
    clone = clone_cls.__new__(clone_cls)
    clone.__dict__.update(subject.__dict__)
    return clone, collector
