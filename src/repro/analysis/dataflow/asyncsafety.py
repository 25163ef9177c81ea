"""ASY001–ASY005: async-safety verification for the event-loop service.

The service layer (``repro.service``) runs one asyncio event loop whose
correctness claims — guarded-store atomicity, no blocking work on the
loop, bounded request latency — are exactly the properties a thread
checker cannot see: every ``await`` is an interleaving point where any
other coroutine (and, through ``run_in_executor`` hand-offs, any pool
thread) may run.  This pass family rides the abstract interpreter's
async CFG (``on_await`` fires at ``await`` expressions, ``async with``
enter/exit and each ``async for`` step) and reports:

``ASY001`` (await-point atomicity)
    a read-modify-write of a guarded attribute (one listed in the
    class's ``_GUARDED_ATTRS`` declaration) that straddles an await
    without a recognized lock held: the value read before the await may
    be stale by the time it is written back.  The async analog of
    LCK001's unguarded-mutation rule.
``ASY002`` (lock held across an await)
    a *synchronous* lock (``threading.Lock`` / the store's
    writer-preferring ``RWLock``) acquired on the event loop and held
    over an await.  Every other coroutine needing that lock then blocks
    the loop itself — a starvation/deadlock class LCK002's ordering
    graph cannot see.  ``async with`` on an asyncio lock is exempt:
    holding one across awaits is its purpose.
``ASY003`` (blocking call on the event-loop thread)
    ``time.sleep``, a direct ``run_kernel``, pool/backend teardown,
    file or socket I/O reachable from an ``async def`` without a
    ``run_in_executor``/``to_thread`` hand-off.  One level of local
    synchronous callees is scanned; nested ``def`` closures handed to
    executors are exempt by construction.
``ASY004`` (dropped coroutine / task handle)
    a coroutine that is never awaited, or an ``ensure_future`` /
    ``create_task`` handle that is neither awaited, stored, cancelled,
    gathered nor given a done-callback — fire-and-forget tasks whose
    exceptions vanish.  Tracked through ``State.res`` exactly like
    SHM002 tracks segment handles.
``ASY005`` (missing deadline propagation)
    inside an async function that demonstrates deadline intent (it
    contains an ``asyncio.wait_for``), an await that can block
    unboundedly (``drain``, ``readexactly``, ``recv``, a lock
    ``acquire``, or a local async callee that does) *outside* any
    ``wait_for``.  Functions with no ``wait_for`` at all are not roots:
    an accept loop that intentionally waits forever is not a finding.

Soundness caveats: the interleaving model is per-function (cross-module
method calls are opaque), ``_GUARDED_ATTRS`` declarations are the ASY001
contract, lock-likeness is recognized by constructor and by name, and
ASY005's unbounded-await set is a curated list — see docs/ANALYSIS.md.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping, Optional, Union

from repro.analysis.dataflow.engine import (
    FuncInfo,
    Interpreter,
    ModuleContext,
    State,
    _WithFrame,
    analyze_module,
    path_of,
    terminal_name,
)
from repro.analysis.dataflow.lattice import Value
from repro.analysis.dataflow.lockorder import guarded_attrs
from repro.analysis.findings import Finding

__all__ = ["asyncsafety_findings", "AsyncSafetyPass"]

_TASK = ("task",)
_CORO = ("coro",)

_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "RWLock", "Condition", "Semaphore", "BoundedSemaphore"}
)
_TASK_FACTORIES = frozenset({"create_task", "ensure_future"})
#: Calling one of these on a tracked handle retires the obligation:
#: a done-callback observes the exception, cancel() suppresses it.
_TASK_RETIRE_METHS = frozenset({"add_done_callback", "cancel", "result", "exception"})

#: Direct call paths that block the calling thread.
_BLOCKING_PATHS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
        "open",
        "input",
    }
)
#: Method names that block regardless of receiver (domain: kernels).
_BLOCKING_METHS = frozenset({"run_kernel"})
#: (receiver constructor, method) pairs that block.
_BLOCKING_CTOR_METHS = frozenset(
    {
        ("ThreadPoolExecutor", "shutdown"),
        ("ProcessPoolExecutor", "shutdown"),
        ("ExecutionBackend", "close"),
        ("Thread", "join"),
        ("Process", "join"),
        ("socket", "recv"),
        ("socket", "send"),
        ("socket", "sendall"),
        ("socket", "connect"),
        ("socket", "accept"),
    }
)

#: Awaited methods with no intrinsic bound (ASY005): a peer that stops
#: reading stalls ``drain`` forever, a silent peer stalls ``readexactly``.
#: ``wait_closed``/``serve_forever`` are deliberately absent (their
#: unboundedness is the intended semantics), as are executor hand-offs
#: (``run_in_executor``/``to_thread`` — deadline coverage for offloaded
#: work is the dispatcher's wait_for, not the hand-off's).
_UNBOUNDED_AWAIT_METHS = frozenset(
    {"drain", "readexactly", "readuntil", "readline", "read", "recv", "acquire"}
)


def _name_lockish(name: str) -> bool:
    n = name.lower()
    return "lock" in n or n in ("mutex", "cond", "condition", "sem", "semaphore")


def _iter_own_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack: list[ast.AST] = list(getattr(fn_node, "body", []))
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield n
        stack.extend(ast.iter_child_nodes(n))


class AsyncSafetyPass(Interpreter):
    """ASY001–ASY004 (the path-sensitive rules; ASY005 is lexical)."""

    CTOR_NAMES = _LOCK_CTORS | frozenset(
        {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "Process"}
    )

    def __init__(
        self,
        ctx: ModuleContext,
        summaries: Optional[Mapping[str, Value]] = None,
        source_path: str = "<module>",
    ) -> None:
        super().__init__(ctx, summaries, source_path=source_path)
        self._guarded: dict[str, frozenset[str]] = {}
        for name, node in ctx.classes.items():
            decl = guarded_attrs(node)
            if decl is not None:
                self._guarded[name] = decl[1]
        self._cur_guarded: frozenset[str] = frozenset()
        self._epoch = 0
        self._stmt_epoch = 0
        #: guarded attr → epoch of its most recent ``self.<attr>`` read
        self._gread: dict[str, int] = {}
        #: local path → (guarded attr, read epoch) pairs it derives from
        self._gdep: dict[str, list[tuple[str, int]]] = {}
        #: sync locks currently acquired via explicit ``.acquire*()``
        self._sync_locks: set[str] = set()
        #: items whose context manager is lock-like (filled on enter)
        self._lockish_items: dict[int, bool] = {}
        self._task_line: dict[str, int] = {}
        self._reported: set[tuple[str, str, str]] = set()

    # ------------------------------------------------------------------ runs

    def run(self, fn: FuncInfo, params: Optional[Mapping[str, Value]] = None):  # type: ignore[no-untyped-def]
        self._epoch = 0
        self._stmt_epoch = 0
        self._gread = {}
        self._gdep = {}
        self._sync_locks = set()
        self._cur_guarded = (
            self._guarded.get(fn.class_name, frozenset())
            if fn.class_name
            else frozenset()
        )
        return super().run(fn, params)

    def _report_once(
        self, kind: str, rule: str, node: ast.AST, path: str, message: str, hint: str
    ) -> None:
        key = (kind, rule, path)
        if key in self._reported:
            return
        self._reported.add(key)
        self.report(rule, node, message, hint=hint)

    # ------------------------------------------------------------ await points

    def on_await(self, node: ast.AST, value: Optional[Value], state: State) -> None:
        held = self._sync_locks_held()
        if held:
            self._report_once(
                "lock-await",
                "ASY002",
                node,
                held,
                f"synchronous lock `{held}` is held across an await on the "
                "event loop: any coroutine contending for it blocks the "
                "whole loop until this one resumes",
                "release the lock before awaiting, move the guarded work "
                "onto the pool, or switch to an asyncio lock",
            )
        self._epoch += 1
        # awaiting a tracked task/coroutine retires the obligation
        if isinstance(node, ast.Await):
            p = path_of(node.value)
            if p is not None and p in state.res:
                del state.res[p]
                self._task_line.pop(p, None)

    def _sync_locks_held(self) -> Optional[str]:
        for fr in self.frames:
            if isinstance(fr, _WithFrame) and not fr.is_async:
                for item in fr.node.items:
                    if self._lockish_items.get(id(item)):
                        p = (
                            path_of(item.context_expr)
                            if not isinstance(item.context_expr, ast.Call)
                            else path_of(item.context_expr.func)
                        )
                        return p or "<lock>"
        if self._sync_locks:
            return sorted(self._sync_locks)[0]
        return None

    def _any_lock_held(self) -> bool:
        if self._sync_locks:
            return True
        for fr in self.frames:
            if isinstance(fr, _WithFrame) and any(
                self._lockish_items.get(id(item)) for item in fr.node.items
            ):
                return True
        return False

    def on_with_enter(
        self, item: ast.withitem, value: Value, path: Optional[str], state: State
    ) -> None:
        lockish = value.ctor in _LOCK_CTORS
        e = item.context_expr
        if not lockish:
            if isinstance(e, ast.Call):
                f = e.func
                if isinstance(f, ast.Attribute):
                    base = path_of(f.value)
                    lockish = _name_lockish(f.attr) or bool(
                        base and _name_lockish(terminal_name(base))
                    )
                elif isinstance(f, ast.Name):
                    lockish = _name_lockish(f.id)
            else:
                p = path_of(e)
                lockish = bool(p and _name_lockish(terminal_name(p)))
        self._lockish_items[id(item)] = lockish

    # ------------------------------------------------------------------ ASY001

    def on_attr_load(self, base_path: str, attr: str, node: ast.AST, state: State) -> None:
        if base_path == "self" and attr in self._cur_guarded:
            self._gread[attr] = self._epoch

    def on_possible_raise(self, stmt: ast.stmt, state: State) -> None:
        self._stmt_epoch = self._epoch

    def on_assign(self, path: str, value: Value, node: ast.AST, state: State) -> None:
        self._asy004_on_assign(path, value, node, state)
        deps = self._value_deps(node)
        self._gdep.pop(path, None)
        if path.startswith("self.") and path[len("self.") :] in self._cur_guarded:
            attr = path[len("self.") :]
            stale: Optional[int] = None
            if isinstance(node, ast.AugAssign):
                if self._stmt_epoch < self._epoch:
                    stale = self._stmt_epoch
            for dep_attr, epoch in deps:
                if dep_attr == attr and epoch < self._epoch:
                    stale = epoch
            if stale is not None and not self._any_lock_held():
                self._report_once(
                    "rmw",
                    "ASY001",
                    node,
                    path,
                    f"read-modify-write of guarded attribute `{path}` "
                    "straddles an await without the store lock held: the "
                    "value read before the await may be stale when written "
                    "back, silently losing a concurrent update",
                    "hold the store's lock (or an asyncio lock) across the "
                    "whole read-modify-write, or re-read after the await",
                )
            self._gread.pop(attr, None)
        elif deps:
            self._gdep[path] = deps

    def _value_deps(self, node: ast.AST) -> list[tuple[str, int]]:
        """Guarded-attr dependencies of the assigned expression."""
        value = getattr(node, "value", None)
        if not isinstance(value, ast.AST):
            return []
        deps: list[tuple[str, int]] = []
        for sub in ast.walk(value):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and sub.attr in self._cur_guarded
            ):
                deps.append((sub.attr, self._gread.get(sub.attr, self._epoch)))
            elif isinstance(sub, ast.Name) and sub.id in self._gdep:
                deps.extend(self._gdep[sub.id])
        return deps

    # ------------------------------------------------------------ ASY003/ASY004

    def exec_stmt(self, stmt: ast.stmt, state: State) -> State:
        # a bare Call statement discards a freshly created coro/task;
        # `await task` (an Await expression) retires it instead
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            v = self.eval(stmt.value, state)
            if v.origin == _CORO:
                self.report(
                    "ASY004",
                    stmt,
                    "coroutine is created but never awaited: its body never "
                    "runs and any exception it would raise vanishes",
                    hint="await it, or hand it to create_task/gather and "
                    "keep the handle",
                )
            elif v.origin == _TASK:
                self.report(
                    "ASY004",
                    stmt,
                    "fire-and-forget task: the handle is dropped immediately, "
                    "so the task's exception is never retrieved",
                    hint="store the handle and await it (or add a "
                    "done-callback that observes the exception)",
                )
            return state
        return super().exec_stmt(stmt, state)

    def on_call(
        self,
        node: ast.Call,
        func_path: Optional[str],
        args: list[Value],
        kwargs: dict[str, Value],
        state: State,
    ) -> Optional[Value]:
        in_async = self.current is not None and self.current.is_async
        meth = ""
        recv_path: Optional[str] = None
        if isinstance(node.func, ast.Attribute):
            meth = node.func.attr
            recv_path = path_of(node.func.value)

        # ---- ASY002: explicit sync acquire/release tracking -----------
        # (an *awaited* acquire is an asyncio lock — that one is fine)
        if recv_path is not None and meth.startswith(("acquire", "release")):
            rv = state.env.get(recv_path)
            lockish = _name_lockish(terminal_name(recv_path)) or (
                rv is not None and rv.ctor in _LOCK_CTORS
            )
            if lockish:
                if meth.startswith("acquire"):
                    if id(node) not in self._awaited_calls:
                        self._sync_locks.add(recv_path)
                else:
                    self._sync_locks.discard(recv_path)

        # ---- ASY004: retire / escape bookkeeping ----------------------
        if recv_path is not None and recv_path in state.res and meth in _TASK_RETIRE_METHS:
            del state.res[recv_path]
            self._task_line.pop(recv_path, None)
        for arg in list(node.args) + [k.value for k in node.keywords]:
            p = path_of(arg)
            if p is not None and p in state.res:
                # gather()/wait()/shield()/container.add() take over the
                # handle; stop tracking rather than guess
                del state.res[p]
                self._task_line.pop(p, None)

        # ---- ASY003: blocking work on the event-loop thread -----------
        if in_async:
            self._check_blocking(node, func_path, meth, recv_path, state)

        # ---- ASY004: creation -----------------------------------------
        awaited = id(node) in self._awaited_calls
        if not awaited:
            if meth in _TASK_FACTORIES or func_path in _TASK_FACTORIES:
                return Value.obj(ctor="Task", origin=_TASK)
            if meth == "run_in_executor" and recv_path is not None:
                return Value.obj(ctor="Future", origin=_TASK)
            callee = self._resolve_callee(node, func_path, meth, recv_path)
            if callee is not None and callee.is_async:
                return Value.obj(origin=_CORO)
        return None

    def _resolve_callee(
        self,
        node: ast.Call,
        func_path: Optional[str],
        meth: str,
        recv_path: Optional[str],
    ) -> Optional[FuncInfo]:
        if func_path is not None and "." not in func_path:
            return self.ctx.functions.get(func_path)
        if (
            recv_path == "self"
            and self.current is not None
            and self.current.class_name
        ):
            return self.ctx.functions.get(f"{self.current.class_name}.{meth}")
        return None

    def _check_blocking(
        self,
        node: ast.Call,
        func_path: Optional[str],
        meth: str,
        recv_path: Optional[str],
        state: State,
    ) -> None:
        fn_name = self.current.node.name if self.current is not None else "?"
        why: Optional[str] = None
        if func_path in _BLOCKING_PATHS:
            why = f"`{func_path}()` blocks the calling thread"
        elif meth in _BLOCKING_METHS:
            why = f"`.{meth}()` runs a kernel on the calling thread"
        elif recv_path is not None and meth:
            recv = state.env.get(recv_path)
            if recv is None:
                recv = self.seed(recv_path)
            if recv.ctor is not None and (recv.ctor, meth) in _BLOCKING_CTOR_METHS:
                why = (
                    f"`{recv_path}.{meth}()` ({recv.ctor}) blocks until the "
                    "underlying threads/sockets finish"
                )
        if why is None:
            # one level of local synchronous callees
            callee = self._resolve_callee(node, func_path, meth, recv_path)
            if callee is not None and not callee.is_async:
                inner = self._sync_callee_blocks(callee)
                if inner is not None:
                    why = (
                        f"sync callee `{callee.qualname}` calls {inner} on "
                        "the event-loop thread"
                    )
        if why is not None:
            self.report(
                "ASY003",
                node,
                f"blocking call inside `async def {fn_name}`: {why}; every "
                "connection on this loop stalls until it returns",
                hint="offload with loop.run_in_executor/asyncio.to_thread, "
                "or use the asyncio-native equivalent",
            )

    def _sync_callee_blocks(self, callee: FuncInfo) -> Optional[str]:
        for n in _iter_own_nodes(callee.node):
            if isinstance(n, ast.Call):
                fp = path_of(n.func)
                if fp in _BLOCKING_PATHS:
                    return f"`{fp}()`"
                if isinstance(n.func, ast.Attribute) and n.func.attr in _BLOCKING_METHS:
                    return f"`.{n.func.attr}()`"
        return None

    def _asy004_on_assign(
        self, path: str, value: Value, node: ast.AST, state: State
    ) -> None:
        if value.origin in (_TASK, _CORO):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                src = path_of(node.value)
                if src is not None and src != path and src in state.res:
                    del state.res[src]
                    self._task_line.pop(src, None)
            state.res[path] = "task"
            self._task_line[path] = getattr(node, "lineno", 0)
        elif path in state.res and value.origin not in (_TASK, _CORO):
            if not path.startswith("self."):
                self._report_once(
                    "drop",
                    "ASY004",
                    node,
                    path,
                    f"rebinding `{path}` drops the last handle to a pending "
                    "task/coroutine; its exception is never retrieved",
                    "await the previous handle (or cancel it) before "
                    "rebinding",
                )
            del state.res[path]
            self._task_line.pop(path, None)

    def on_return(self, stmt: ast.Return, value: Optional[Value], state: State) -> None:
        if stmt.value is not None:
            p = path_of(stmt.value)
            if p is not None and p in state.res:
                del state.res[p]  # ownership transfers to the caller
                self._task_line.pop(p, None)
        self._check_end_drops(stmt, state)

    def on_function_end(self, state: State) -> None:
        anchor: ast.AST = self.current.node if self.current is not None else ast.Pass()
        self._check_end_drops(anchor, state)

    def _check_end_drops(self, node: ast.AST, state: State) -> None:
        for path, status in state.res.items():
            if status != "task" or path.startswith("self."):
                # ``maybe`` joins and self-stored handles are not flagged:
                # object-lifetime handles are the owner's concern
                continue
            line = self._task_line.get(path, 0)
            self._report_once(
                "drop",
                "ASY004",
                node,
                path,
                f"task/coroutine handle `{path}` (created at line {line}) is "
                "dropped when the function exits: it was never awaited, "
                "stored, cancelled or given a done-callback",
                "await it, store it on an owner that drains it, or add a "
                "done-callback that observes its exception",
            )


# ---------------------------------------------------------------------------
# ASY005: deadline propagation (lexical over the async call graph)
# ---------------------------------------------------------------------------


def _wait_for_calls(fn_node: ast.AST) -> list[ast.Call]:
    out = []
    for n in _iter_own_nodes(fn_node):
        if isinstance(n, ast.Call):
            fp = path_of(n.func)
            if fp is not None and fp.rsplit(".", 1)[-1] == "wait_for":
                out.append(n)
    return out


def _unbounded_reason(call: ast.Call) -> Optional[str]:
    f = call.func
    if not isinstance(f, ast.Attribute):
        return None
    recv = path_of(f.value) or "…"
    if f.attr in _UNBOUNDED_AWAIT_METHS:
        return f"`{recv}.{f.attr}()`"
    if f.attr == "wait":
        bounded = any(
            k.arg == "timeout"
            and not (isinstance(k.value, ast.Constant) and k.value.value is None)
            for k in call.keywords
        )
        if not bounded:
            return f"`{recv}.wait()` (no timeout)"
    return None


def _resolve_async_callee(call: ast.Call, fn: FuncInfo, ctx: ModuleContext) -> Optional[str]:
    f = call.func
    if isinstance(f, ast.Name) and f.id in ctx.functions:
        return f.id
    if (
        isinstance(f, ast.Attribute)
        and isinstance(f.value, ast.Name)
        and f.value.id == "self"
        and fn.class_name
    ):
        qn = f"{fn.class_name}.{f.attr}"
        if qn in ctx.functions:
            return qn
    return None


def _deadline_findings(ctx: ModuleContext, source_path: str) -> list[Finding]:
    protected: dict[str, set[int]] = {}
    for qn, fn in ctx.functions.items():
        if not fn.is_async:
            continue
        ids: set[int] = set()
        for call in _wait_for_calls(fn.node):
            for sub in ast.walk(call):
                ids.add(id(sub))
        protected[qn] = ids

    def _own_awaits(fn: FuncInfo) -> list[ast.Await]:
        return [n for n in _iter_own_nodes(fn.node) if isinstance(n, ast.Await)]

    blocking_memo: dict[str, bool] = {}

    def _blocks_unboundedly(qn: str, stack: frozenset[str]) -> bool:
        if qn in blocking_memo:
            return blocking_memo[qn]
        fn = ctx.functions[qn]
        result = False
        for aw in _own_awaits(fn):
            if id(aw) in protected.get(qn, set()):
                continue
            op = aw.value
            if not isinstance(op, ast.Call):
                continue
            fp = path_of(op.func)
            if fp is not None and fp.rsplit(".", 1)[-1] == "wait_for":
                continue
            if _unbounded_reason(op) is not None:
                result = True
                break
            callee = _resolve_async_callee(op, fn, ctx)
            if (
                callee is not None
                and callee not in stack
                and ctx.functions[callee].is_async
                and _blocks_unboundedly(callee, stack | {qn})
            ):
                result = True
                break
        blocking_memo[qn] = result
        return result

    findings: list[Finding] = []
    for qn, fn in ctx.functions.items():
        if not fn.is_async or not _wait_for_calls(fn.node):
            continue  # no deadline intent shown: not a root
        for aw in _own_awaits(fn):
            if id(aw) in protected[qn]:
                continue
            op = aw.value
            if not isinstance(op, ast.Call):
                continue
            fp = path_of(op.func)
            if fp is not None and fp.rsplit(".", 1)[-1] == "wait_for":
                continue
            reason = _unbounded_reason(op)
            via = ""
            if reason is None:
                callee = _resolve_async_callee(op, fn, ctx)
                if (
                    callee is not None
                    and ctx.functions[callee].is_async
                    and _blocks_unboundedly(callee, frozenset({qn}))
                ):
                    reason = f"local async callee `{callee}`"
                    via = " (transitively)"
            if reason is None:
                continue
            findings.append(
                Finding(
                    rule="ASY005",
                    path=source_path,
                    line=aw.lineno,
                    message=(
                        f"`async def {fn.node.name}` enforces deadlines with "
                        f"asyncio.wait_for, but this await of {reason} can "
                        f"block unboundedly{via} outside any wait_for"
                    ),
                    hint="wrap the await in asyncio.wait_for (or give the "
                    "callee its own bounded timeout) so the function's "
                    "deadline covers every path",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def asyncsafety_findings(
    source_path: str,
    source: str,
    tree: Optional[ast.Module] = None,
    ctx: Optional[ModuleContext] = None,
) -> list[Finding]:
    """Run the async-safety passes (ASY001–ASY005) over one module."""
    if tree is None:
        try:
            tree = ast.parse(source, filename=source_path)
        except SyntaxError:
            return []
    if ctx is None:
        ctx = ModuleContext.build(source_path, tree)
    if not any(fn.is_async for fn in ctx.functions.values()):
        return []  # nothing async: every rule is vacuous

    def make(c: ModuleContext, summaries: Mapping[str, Value]) -> Interpreter:
        return AsyncSafetyPass(c, summaries, source_path=source_path)

    findings, _ = analyze_module(source_path, tree, make, ctx=ctx)
    findings.extend(_deadline_findings(ctx, source_path))
    return findings
