"""Per-function abstract interpreter with call summaries.

The engine executes a function's AST over the lattices in
:mod:`~repro.analysis.dataflow.lattice`:

* an **environment** maps canonical access paths (``"q"``,
  ``"out.outliers"``, ``"arrays['q']"``) to abstract :class:`Value`\\ s;
* **branch refinement** narrows the environment on ``if``/``while``/
  ``assert`` edges, understanding the repo's guard idioms — ``x.size``
  truthiness, ``np.all(np.isfinite(x))``, ``np.abs(x).max() >= bound``,
  and the ``peak = |x|.max() + |y|`` / ``if peak >= Q_LIMIT: raise``
  shape, which records a *bound fact* proving ``x ± y`` stays in range;
* **raise pruning**: a branch that ends in ``raise`` contributes nothing
  to the join after the ``if``;
* **loops** run to a small fixpoint with interval widening;
* ``try``/``with`` maintain a protection stack that lifetime passes
  (shm) query, and handler entry states join every in-body raise point;
* **call summaries**: module-local functions are analyzed first with
  name-based seeds; a second pass re-analyzes private functions with the
  join of their observed call-site arguments and gives every caller the
  callee's return summary.

Passes subclass :class:`Interpreter` and override the ``check_*`` /
``on_*`` hooks; the engine itself emits no findings.

Known soundness caveats (documented in ``docs/ANALYSIS.md``): NumPy view
aliasing is only identity-tracked (the :class:`ArrayInfo` layer records
which buffer a view derives from for the NPA rules, but writes through a
view still do not update the base array's *element interval* — summary
returns widen bottom intervals to ⊤ to compensate), comprehension bodies
are opaque, and reseeding a havocked quantized name assumes callees
preserve the ``|q| < Q_LIMIT`` invariant their own analysis verifies.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.analysis.dataflow.lattice import (
    INIT_NO,
    INIT_YES,
    KIND_BOOL,
    KIND_FLOAT,
    KIND_I64,
    KIND_OBJ,
    KIND_PYINT,
    Q_LIMIT,
    ArrayInfo,
    Interval,
    Value,
    _join_kind,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules.numeric import QUANTIZED_NAMES

__all__ = [
    "FunctionResult",
    "Interpreter",
    "ModuleContext",
    "State",
    "analyze_module",
    "path_of",
    "terminal_name",
]

_NUMPY_ROOTS = {"np", "numpy"}

#: dtype spellings → value kind ("int" targets trigger the cast check).
_DTYPE_KINDS: dict[str, str] = {}
for _n in ("int64", "int32", "int16", "int8", "intp", "uint64", "uint32", "uint16", "uint8", "long"):
    _DTYPE_KINDS[_n] = KIND_I64
for _n in ("float64", "float32", "float16", "double", "single", "longdouble"):
    _DTYPE_KINDS[_n] = KIND_FLOAT
for _n in ("bool_", "bool"):
    _DTYPE_KINDS[_n] = KIND_BOOL
_DTYPE_STR_KINDS = {"i": KIND_I64, "u": KIND_I64, "f": KIND_FLOAT, "b": KIND_BOOL}

#: dtype spellings → itemsize in bytes (array-lattice layout facts).
_DTYPE_ITEMSIZE: dict[str, int] = {
    "int64": 8, "uint64": 8, "float64": 8, "double": 8, "intp": 8, "long": 8,
    "int32": 4, "uint32": 4, "float32": 4, "single": 4,
    "int16": 2, "uint16": 2, "float16": 2,
    "int8": 1, "uint8": 1, "bool_": 1, "bool": 1,
}

#: signed/unsigned integer dtypes → value range (NPA006 narrowing check).
INT_DTYPE_RANGES: dict[str, tuple[int, int]] = {}
for _b in (8, 16, 32, 64):
    INT_DTYPE_RANGES[f"int{_b}"] = (-(1 << (_b - 1)), (1 << (_b - 1)) - 1)
    INT_DTYPE_RANGES[f"uint{_b}"] = (0, (1 << _b) - 1)
INT_DTYPE_RANGES["intp"] = INT_DTYPE_RANGES["long"] = INT_DTYPE_RANGES["int64"]


def dtype_info_of(node: ast.expr) -> Optional[tuple[str, Optional[int], str]]:
    """``(name, itemsize, kind)`` of a dtype expression, or ``None``.

    Handles ``np.uint8`` / bare names / ``"<u2"``-style strings.  The
    itemsize is ``None`` for spellings whose width is unknown.
    """
    name: Optional[str] = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        s = node.value.lstrip("<>=|")
        if not s or s[:1] not in _DTYPE_STR_KINDS:
            return None
        kind = _DTYPE_STR_KINDS[s[:1]]
        try:
            width = int(s[1:]) if len(s) > 1 else None
        except ValueError:
            return None
        canon = {"i": "int", "u": "uint", "f": "float", "b": "bool"}[s[:1]]
        if width is None:
            return (canon, None, kind)
        return (f"{canon}{width * 8}", width, kind)
    if name is None or name not in _DTYPE_KINDS:
        return None
    return (name, _DTYPE_ITEMSIZE.get(name), _DTYPE_KINDS[name])


def path_of(node: ast.AST) -> Optional[str]:
    """Canonical access path of an l-value-shaped expression, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = path_of(node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Subscript):
        base = path_of(node.value)
        if base is None:
            return None
        if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
            return f"{base}[{node.slice.value!r}]"
        # positional/slice indexing shares the base array's element range
        return base
    if isinstance(node, ast.Call):
        return None
    return None


def _has_slice(node: ast.expr) -> bool:
    """True when a subscript's slice expression contains a ``:`` slice."""
    if isinstance(node, ast.Slice):
        return True
    if isinstance(node, ast.Tuple):
        return any(isinstance(e, ast.Slice) for e in node.elts)
    return False


def terminal_name(path: str) -> str:
    """Last meaningful component of a canonical path."""
    if path.endswith("]"):
        key = path[path.rfind("[") + 1 : -1]
        return key.strip("'\"")
    return path.rsplit(".", 1)[-1]


def _dtype_kind_of(node: ast.expr) -> Optional[str]:
    """Value kind named by a dtype expression (np.int64, "<i8", ...)."""
    if isinstance(node, ast.Attribute):
        return _DTYPE_KINDS.get(node.attr)
    if isinstance(node, ast.Name):
        return _DTYPE_KINDS.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        s = node.value.lstrip("<>=|")
        return _DTYPE_STR_KINDS.get(s[:1]) if s else None
    return None


def _annotation_ctor(ann: ast.expr) -> Optional[str]:
    """Class name an attribute annotation types it as, or ``None``.

    Understands ``X``, ``mod.X``, ``X | None`` / ``None | X`` and
    ``Optional[X]``; builtin scalar annotations are handled separately
    through ``class_field_kind``.
    """
    if isinstance(ann, ast.Name):
        return None if ann.id in ("int", "float", "bool", "str", "bytes", "None") else ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _annotation_ctor(ann.left) or _annotation_ctor(ann.right)
    if isinstance(ann, ast.Subscript):
        base = ann.value
        name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if name == "Optional" and isinstance(ann.slice, ast.expr):
            return _annotation_ctor(ann.slice)
        return None
    if isinstance(ann, ast.Constant) and ann.value is None:
        return None
    return None


# ---------------------------------------------------------------------------
# module context: function / class indexes shared by every pass
# ---------------------------------------------------------------------------


#: Either flavour of function definition: the engine analyzes both, and
#: the async-safety passes key on which one they are in.
FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FuncInfo:
    qualname: str
    node: FuncNode
    class_name: Optional[str] = None

    @property
    def is_private(self) -> bool:
        return self.node.name.startswith("_") and not self.node.name.startswith("__")

    @property
    def is_internal(self) -> bool:
        """Private function, or any method of a module-private class.

        Every call site of an internal function is visible in this
        module, so round 2 may refine its parameters to the join of the
        observed arguments (`_Reader.u16` sees the real wire taint).
        """
        return self.is_private or (
            self.class_name is not None
            and self.class_name.startswith("_")
            and not self.node.name.startswith("__")
        )

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)


@dataclass
class ModuleContext:
    """Indexes over one module: functions, classes, ctor-typed attributes."""

    path: str
    tree: ast.Module
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: class → method name → set of ``self.<attr>`` lock attrs it acquires
    #: (filled lazily by the lock pass; here for cross-pass sharing)
    class_attr_ctor: dict[str, dict[str, str]] = field(default_factory=dict)
    class_field_kind: dict[str, dict[str, str]] = field(default_factory=dict)
    #: memo space for per-module derived indexes (keyed by pass name);
    #: passes that instantiate one interpreter per function use this to
    #: avoid re-walking the module AST for every instance
    pass_cache: dict[str, object] = field(default_factory=dict)

    @staticmethod
    def build(path: str, tree: ast.Module) -> "ModuleContext":
        ctx = ModuleContext(path=path, tree=tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ctx.functions[node.name] = FuncInfo(node.name, node)
            elif isinstance(node, ast.ClassDef):
                ctx.classes[node.name] = node
                ctors: dict[str, str] = {}
                kinds: dict[str, str] = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qn = f"{node.name}.{item.name}"
                        ctx.functions[qn] = FuncInfo(qn, item, class_name=node.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        ann = item.annotation
                        if isinstance(ann, ast.Name):
                            if ann.id == "int":
                                kinds[item.target.id] = KIND_PYINT
                            elif ann.id == "float":
                                kinds[item.target.id] = KIND_FLOAT
                init = next(
                    (i for i in node.body if isinstance(i, ast.FunctionDef) and i.name == "__init__"),
                    None,
                )
                if init is not None:
                    for stmt in ast.walk(init):
                        if (
                            isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and isinstance(stmt.targets[0], ast.Attribute)
                            and isinstance(stmt.targets[0].value, ast.Name)
                            and stmt.targets[0].value.id == "self"
                            and isinstance(stmt.value, ast.Call)
                        ):
                            fn = stmt.value.func
                            cname = fn.id if isinstance(fn, ast.Name) else (
                                fn.attr if isinstance(fn, ast.Attribute) else None
                            )
                            if cname:
                                ctors[stmt.targets[0].attr] = cname
                        elif (
                            isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Attribute)
                            and isinstance(stmt.target.value, ast.Name)
                            and stmt.target.value.id == "self"
                        ):
                            # `self.backend: ExecutionBackend | None = ...`
                            # types the attribute even when the assigned
                            # expression is conditional
                            cname = _annotation_ctor(stmt.annotation)
                            if cname and stmt.target.attr not in ctors:
                                ctors[stmt.target.attr] = cname
                ctx.class_attr_ctor[node.name] = ctors
                ctx.class_field_kind[node.name] = kinds
        return ctx


# ---------------------------------------------------------------------------
# abstract state
# ---------------------------------------------------------------------------


@dataclass
class State:
    env: dict[str, Value] = field(default_factory=dict)
    #: proved |a ± b| bounds, keyed by the sorted path pair
    bounds: dict[tuple[str, str], int] = field(default_factory=dict)
    #: generic per-pass resource states (shm lifetime): path → state str
    res: dict[str, str] = field(default_factory=dict)
    reachable: bool = True

    def copy(self) -> "State":
        return State(dict(self.env), dict(self.bounds), dict(self.res), self.reachable)

    def same_as(self, other: "State") -> bool:
        return (
            self.reachable == other.reachable
            and self.env == other.env
            and self.bounds == other.bounds
            and self.res == other.res
        )


def _join_res(a: str, b: str) -> str:
    if a == b:
        return a
    open_ish = {"open", "maybe"}
    if a in open_ish or b in open_ish:
        return "maybe"
    return "maybe"


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------


@dataclass
class FunctionResult:
    return_value: Value
    findings: list[Finding]
    call_args: dict[str, list[tuple[list[Value], dict[str, Value]]]]
    end_state: State


class _TryFrame:
    __slots__ = ("node", "raise_states")

    def __init__(self, node: ast.Try) -> None:
        self.node = node
        self.raise_states: list[State] = []


class _WithFrame:
    __slots__ = ("node", "bound", "is_async")

    def __init__(self, node: Union[ast.With, ast.AsyncWith], bound: list[str]) -> None:
        self.node = node
        self.bound = bound
        self.is_async = isinstance(node, ast.AsyncWith)


class Interpreter:
    """Abstract interpreter for one function.  Subclass to add checks."""

    #: extra names treated as known constructors (pass-specific typing)
    CTOR_NAMES: frozenset[str] = frozenset()

    def __init__(
        self,
        ctx: ModuleContext,
        summaries: Optional[Mapping[str, Value]] = None,
        source_path: str = "<module>",
    ) -> None:
        self.ctx = ctx
        self.summaries = dict(summaries or {})
        self.source_path = source_path
        self.findings: list[Finding] = []
        self.call_args: dict[str, list[tuple[list[Value], dict[str, Value]]]] = {}
        self.frames: list[object] = []
        self.current: Optional[FuncInfo] = None
        self._break_states: list[list[State]] = []
        self._returns: list[Value] = []
        self._reported_sites: set[tuple[str, int, int]] = set()
        #: ids of Call nodes that are the direct operand of an ``await``
        #: (so ``on_call`` can tell an awaited call from a bare one)
        self._awaited_calls: set[int] = set()

    #: Array-lattice tracking is pay-for-what-you-use: only the NPA pass
    #: flips this on.  With it off, allocations carry no :class:`ArrayInfo`
    #: and every downstream arr join/hook short-circuits on ``None``, so
    #: the other passes keep their pre-array cost profile.
    track_arrays: bool = False

    def _fresh_arr(self, **kwargs: Any) -> Optional[ArrayInfo]:
        return ArrayInfo(**kwargs) if self.track_arrays else None

    # ------------------------------------------------------------------ hooks

    def seed(self, path: str) -> Value:
        """Abstract value assumed for a never-assigned load of ``path``."""
        name = terminal_name(path)
        if name == "Q_LIMIT":
            return Value.pyint(Interval.const(Q_LIMIT))
        if name in QUANTIZED_NAMES:
            return Value.quantized_plane()
        if self.current is not None and self.current.class_name and path.startswith("self."):
            attr = path.split(".", 1)[1]
            cls = self.current.class_name
            ctor = self.ctx.class_attr_ctor.get(cls, {}).get(attr)
            if ctor:
                return Value.obj(ctor=ctor)
            kind = self.ctx.class_field_kind.get(cls, {}).get(attr)
            if kind:
                return Value(kind)
        return Value.obj()

    def _seed_param(self, arg: ast.arg) -> Value:
        """Entry value of a parameter no call site specialized."""
        v = self.seed(arg.arg)
        ann = arg.annotation
        if isinstance(ann, ast.Name) and ann.id == "int" and not v.quantized:
            # an ``int``-annotated parameter is what ``int(k)`` would give
            return Value.pyint().with_tainted(v.tainted)
        return v

    def check_int_arith(
        self,
        node: ast.AST,
        opname: str,
        lv: Value,
        rv: Value,
        itv: Interval,
        state: State,
    ) -> None:
        """Called for int64 Add/Sub/Mult/Pow/LShift results (ranges pass)."""

    def check_cast(self, node: ast.AST, src: Value, dst_kind: str, state: State) -> None:
        """Called for every ``.astype(dtype)`` (ranges pass)."""

    def on_call(
        self,
        node: ast.Call,
        func_path: Optional[str],
        args: list[Value],
        kwargs: dict[str, Value],
        state: State,
    ) -> Optional[Value]:
        """Observe every call after evaluation; return a Value to override."""
        return None

    def on_assign(self, path: str, value: Value, node: ast.AST, state: State) -> None:
        """Observe every strong store to a path."""

    def on_attr_load(self, base_path: str, attr: str, node: ast.AST, state: State) -> None:
        """Observe attribute loads whose base has a canonical path."""

    def on_possible_raise(self, stmt: ast.stmt, state: State) -> None:
        """Called before each simple statement that may raise."""

    def on_return(self, stmt: ast.Return, value: Optional[Value], state: State) -> None:
        """Called at each return, after pending finallys ran."""

    def on_function_end(self, state: State) -> None:
        """Called on the fall-off-the-end state (if reachable)."""

    def on_with_enter(self, item: ast.withitem, value: Value, path: Optional[str], state: State) -> None:
        """Called when a with-item context is entered."""

    def on_with_exit(self, node: Union[ast.With, ast.AsyncWith], state: State) -> None:
        """Called when a with-block exits normally."""

    def on_raise(self, stmt: ast.Raise, state: State) -> None:
        """Called at explicit raise statements."""

    def on_await(self, node: ast.AST, value: Optional[Value], state: State) -> None:
        """Called at every await point — an ``await`` expression, an
        ``async with`` enter/exit, or an ``async for`` iteration step.

        Every await is an interleaving point: any other coroutine on the
        event loop (and, through ``run_in_executor`` hand-offs, any pool
        thread) may run before control returns.  The async-safety passes
        key their atomicity and lock-discipline checks on this hook.
        """

    def check_slice(self, node: ast.Subscript, bounds: list[Value], state: State) -> None:
        """Called for every slice expression with its bound values (taint)."""

    def check_index(self, node: ast.Subscript, index: Value, state: State) -> None:
        """Called for every non-slice subscript with its index value (taint)."""

    def check_array_write(
        self,
        node: ast.AST,
        path: Optional[str],
        target: Value,
        value: Value,
        index: Optional[Value],
        state: State,
    ) -> None:
        """Called for every element store into an array-lattice value.

        Covers subscript assignment/augassignment, ``.fill(...)``, and
        ``out=`` keyword writes.  ``target`` is the array's binding
        *before* the store; ``index`` is the evaluated non-slice index
        (``None`` for slice stores and full-array writes).  The NPA pass
        keys its aliasing/writability/extent/narrowing rules here.
        """

    def check_view_cast(
        self,
        node: ast.AST,
        src: Value,
        dtype_name: str,
        itemsize: Optional[int],
        state: State,
    ) -> None:
        """Called for every ``.view(dtype)`` with a resolvable dtype (NPA002)."""

    def check_astype(
        self,
        node: ast.AST,
        src: Value,
        dtype_name: str,
        itemsize: Optional[int],
        state: State,
    ) -> None:
        """Called for every ``.astype(dtype)`` with a resolvable dtype name.

        Unlike :meth:`check_cast` (int64-kind targets only), this fires
        for every named dtype so narrowing checks see uint8/uint16/...
        """

    def check_array_read(self, node: ast.AST, value: Value, state: State) -> None:
        """Called when array *contents* are read: element loads, numpy
        reductions/ufuncs, ``astype``/``copy``/``byteswap``, and binary
        operator operands.  The NPA pass keys the uninitialized-read
        check (NPA005) here."""

    # ------------------------------------------------------------------ report

    def report(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        hint: str = "",
        severity: Severity = Severity.ERROR,
    ) -> None:
        # loop bodies run to a small fixpoint, re-visiting each node up to
        # four times — report each site once
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (rule, line, col)
        if key in self._reported_sites:
            return
        self._reported_sites.add(key)
        self.findings.append(
            Finding(
                rule=rule,
                path=self.source_path,
                line=line,
                message=message,
                hint=hint,
                severity=severity,
            )
        )

    # ------------------------------------------------------------------ driver

    def run(self, fn: FuncInfo, params: Optional[Mapping[str, Value]] = None) -> FunctionResult:
        self.current = fn
        self._returns = []
        state = State()
        args = fn.node.args
        for i, a in enumerate(args.posonlyargs + args.args + args.kwonlyargs):
            name = a.arg
            if i == 0 and name == "self" and fn.class_name:
                state.env["self"] = Value.obj(ctor=fn.class_name)
            elif params is not None and name in params:
                state.env[name] = params[name]
            else:
                state.env[name] = self._seed_param(a)
        end = self.exec_block(fn.node.body, state)
        if end.reachable:
            self.on_function_end(end)
        ret = Value.obj()
        if self._returns:
            ret = self._returns[0]
            for v in self._returns[1:]:
                ret = ret.join(v)
            if ret.itv.empty:
                # widen ⊥ element ranges at the summary boundary: a function
                # whose return was only ever written through views looks
                # uninitialized to us (aliasing caveat)
                ret = ret.with_itv(Interval.top())
        if ret.arr is not None:
            # strip the buffer identity at the summary boundary: two
            # distinct calls of the same function return distinct buffers,
            # so a per-site base id must not alias them to each other
            ret = ret.with_arr(replace(ret.arr, base=None, view=False))
        return FunctionResult(ret, self.findings, self.call_args, end)

    # ------------------------------------------------------------------ stmts

    _SIMPLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return, ast.Raise, ast.Assert, ast.Delete)

    def exec_block(self, stmts: Sequence[ast.stmt], state: State) -> State:
        for stmt in stmts:
            if not state.reachable:
                break
            if isinstance(stmt, self._SIMPLE):
                self._note_raise_point(stmt, state)
            state = self.exec_stmt(stmt, state)
        return state

    def _note_raise_point(self, stmt: ast.stmt, state: State) -> None:
        # Awaits may raise even without a call operand (CancelledError,
        # or the awaited task's stored exception).
        may_raise = isinstance(stmt, ast.Raise) or any(
            isinstance(n, (ast.Call, ast.Subscript, ast.Await)) for n in ast.walk(stmt)
        )
        if not may_raise:
            return
        for fr in self.frames:
            if isinstance(fr, _TryFrame):
                fr.raise_states.append(state.copy())
        self.on_possible_raise(stmt, state)

    def exec_stmt(self, stmt: ast.stmt, state: State) -> State:
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, state)
            return state
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, state)
            for target in stmt.targets:
                self.assign_target(target, value, stmt.value, stmt, state)
            return state
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, state)
                self.assign_target(stmt.target, value, stmt.value, stmt, state)
            return state
        if isinstance(stmt, ast.AugAssign):
            return self._exec_augassign(stmt, state)
        if isinstance(stmt, ast.Return):
            return self._exec_return(stmt, state)
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, state)
            self.on_raise(stmt, state)
            state.reachable = False
            return state
        if isinstance(stmt, ast.Assert):
            return self.refine(state, stmt.test, True)
        if isinstance(stmt, ast.If):
            t = self.exec_block(stmt.body, self.refine(state.copy(), stmt.test, True))
            f = self.exec_block(stmt.orelse, self.refine(state.copy(), stmt.test, False))
            return self.join_states(t, f)
        if isinstance(stmt, ast.While):
            return self._exec_loop(stmt, state, test=stmt.test)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._exec_loop(stmt, state, for_node=stmt)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, state)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, state)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            if isinstance(stmt, ast.Break) and self._break_states:
                self._break_states[-1].append(state.copy())
            state.reachable = False
            return state
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state  # nested defs are opaque
        if isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                p = path_of(t)
                if p:
                    state.env.pop(p, None)
                    self.invalidate(p, state)
            return state
        return state

    # ------------------------------------------------------------------ pieces

    def _exec_return(self, stmt: ast.Return, state: State) -> State:
        value = self.eval(stmt.value, state) if stmt.value is not None else None
        # returns run pending finally blocks (inner → outer)
        for fr in reversed(self.frames):
            if isinstance(fr, _TryFrame) and fr.node.finalbody:
                state = self.exec_block(fr.node.finalbody, state)
        self.on_return(stmt, value, state)
        self._returns.append(value if value is not None else Value.obj())
        state.reachable = False
        return state

    def _exec_augassign(self, stmt: ast.AugAssign, state: State) -> State:
        tpath = path_of(stmt.target)
        lv = self._load_path(tpath, state) if tpath else Value.obj()
        rv = self.eval(stmt.value, state)
        rpath = path_of(stmt.value)
        result = self.binop(stmt.op, lv, rv, stmt, state, lpath=tpath, rpath=rpath)
        if tpath:
            if isinstance(stmt.target, ast.Subscript) and not tpath.endswith("]"):
                idx_v: Optional[Value] = None
                if isinstance(stmt.target.slice, ast.expr):
                    sv = self.eval(stmt.target.slice, state)
                    if not _has_slice(stmt.target.slice):
                        idx_v = sv
                cur = state.env.get(tpath, self.seed(tpath))
                # the aliasing check sees the RHS operand, not the binop
                # result (`a[i] += b` reads b, not a ⊕ b)
                self.check_array_write(stmt, tpath, cur, rv, idx_v, state)
                state.env[tpath] = self._element_store(cur, result)
            else:
                state.env[tpath] = result
            self.invalidate(tpath, state)
            self.on_assign(tpath, result, stmt, state)
        return state

    def assign_target(
        self,
        target: ast.expr,
        value: Value,
        value_node: Optional[ast.expr],
        stmt: ast.stmt,
        state: State,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            elts_vals: list[Value]
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(value_node.elts) == len(target.elts):
                elts_vals = [self.eval(e, state) for e in value_node.elts]
            else:
                # elements of a tainted aggregate are tainted
                # (`(length,) = struct.unpack("<I", header)`)
                elt = Value(tainted=value.tainted)
                elts_vals = [elt] * len(target.elts)
            for sub, sv in zip(target.elts, elts_vals):
                self.assign_target(sub, sv, None, stmt, state)
            return
        if isinstance(target, ast.Starred):
            self.assign_target(target.value, Value.obj(), None, stmt, state)
            return
        path = path_of(target)
        if path is None:
            return
        if isinstance(target, ast.Subscript) and not path.endswith("]"):
            # element store: weak update of the base array's element range
            idx_v: Optional[Value] = None
            if isinstance(target.slice, ast.expr):
                sv = self.eval(target.slice, state)
                if not _has_slice(target.slice):
                    idx_v = sv
            cur = state.env.get(path, self.seed(path))
            self.check_array_write(stmt, path, cur, value, idx_v, state)
            state.env[path] = self._element_store(cur, value)
        else:
            self.invalidate(path, state)
            state.env[path] = value
        self.on_assign(path, value, stmt, state)

    def _element_store(self, cur: Value, value: Value) -> Value:
        """Weak update of an array binding for an element store.

        The element range joins, but the buffer identity is the
        *target's* own (storing a scalar into ``a`` does not erase what
        we know about ``a``'s buffer), and a store initializes: the
        contents are no longer ⊥ on this path.
        """
        joined = cur.join(value)
        if cur.arr is not None:
            joined = joined.with_arr(cur.arr.initialized())
        return joined

    def invalidate(self, path: str, state: State) -> None:
        """Reassignment of ``path`` retires facts and bindings built on it."""
        for key in [k for k in state.bounds if path in k]:
            del state.bounds[key]
        for k in [k for k in state.env if k != path and (k.startswith(path + ".") or k.startswith(path + "["))]:
            del state.env[k]
        for k, v in list(state.env.items()):
            if v.origin and path in v.origin[1:]:
                state.env[k] = v.with_origin(None)

    def _exec_loop(
        self,
        stmt: ast.stmt,
        state: State,
        test: Optional[ast.expr] = None,
        for_node: Optional[Union[ast.For, ast.AsyncFor]] = None,
    ) -> State:
        body = stmt.body  # type: ignore[attr-defined]
        orelse = stmt.orelse  # type: ignore[attr-defined]
        elem = Value.obj()
        if for_node is not None:
            it = self.eval(for_node.iter, state)
            ipath = path_of(for_node.iter)
            if ipath and it.kind in (KIND_I64, KIND_FLOAT):
                elem = it
            elif isinstance(for_node.iter, ast.Call):
                fp = path_of(for_node.iter.func)
                if fp in ("range", "enumerate"):
                    elem = Value.pyint(Interval(0, None))
        self._break_states.append([])
        st = state
        for i in range(4):
            body_in = st.copy()
            if for_node is not None:
                self.assign_target(for_node.target, elem, None, stmt, body_in)
                if isinstance(for_node, ast.AsyncFor):
                    # each __anext__ is an await: an interleaving point at
                    # the top of every iteration
                    self.on_await(stmt, None, body_in)
            elif test is not None:
                body_in = self.refine(body_in, test, True)
            body_out = self.exec_block(body, body_in)
            new = self.join_states(st.copy(), body_out)
            if new.same_as(st):
                break
            st = self._widen_states(st, new) if i >= 2 else new
        breaks = self._break_states.pop()
        exit_state = st
        if test is not None:
            exit_state = self.refine(exit_state, test, False)
        for b in breaks:
            exit_state = self.join_states(exit_state, b)
        if orelse:
            exit_state = self.exec_block(orelse, exit_state)
        return exit_state

    def _exec_with(self, stmt: Union[ast.With, ast.AsyncWith], state: State) -> State:
        is_async = isinstance(stmt, ast.AsyncWith)
        bound: list[str] = []
        for item in stmt.items:
            v = self.eval(item.context_expr, state)
            p: Optional[str] = None
            if item.optional_vars is not None:
                p = path_of(item.optional_vars)
                if p:
                    state.env[p] = v
                    self.on_assign(p, v, stmt, state)
            else:
                p = path_of(item.context_expr)
            if p:
                bound.append(p)
            self.on_with_enter(item, v, p, state)
        if is_async:
            # __aenter__ awaits *before* this frame's context is held
            self.on_await(stmt, None, state)
        frame = _WithFrame(stmt, bound)
        self.frames.append(frame)
        out = self.exec_block(stmt.body, state)
        self.frames.pop()
        if is_async and out.reachable:
            # __aexit__ awaits after the frame's own context is released
            self.on_await(stmt, None, out)
        self.on_with_exit(stmt, out)
        return out

    def _exec_try(self, stmt: ast.Try, state: State) -> State:
        entry = state.copy()
        frame = _TryFrame(stmt)
        self.frames.append(frame)
        body_out = self.exec_block(stmt.body, state)
        self.frames.pop()
        handler_entry = entry
        for rs in frame.raise_states:
            handler_entry = self.join_states(handler_entry, rs)
        handler_entry.reachable = True
        handler_outs: list[State] = []
        for handler in stmt.handlers:
            h = handler_entry.copy()
            h.bounds.clear()
            if handler.name:
                h.env[handler.name] = Value.obj()
            handler_outs.append(self.exec_block(handler.body, h))
        if body_out.reachable and stmt.orelse:
            body_out = self.exec_block(stmt.orelse, body_out)
        out = body_out
        for h in handler_outs:
            out = self.join_states(out, h)
        if stmt.finalbody:
            if out.reachable:
                out = self.exec_block(stmt.finalbody, out)
            else:
                # every path raised/returned: finally still runs
                fstate = handler_entry.copy()
                self.exec_block(stmt.finalbody, fstate)
        return out

    # ------------------------------------------------------------------ joins

    def join_states(self, a: State, b: State) -> State:
        if not a.reachable:
            return b
        if not b.reachable:
            return a
        env: dict[str, Value] = {}
        for k in set(a.env) | set(b.env):
            va = a.env.get(k)
            vb = b.env.get(k)
            if va is None:
                va = self.seed(k)
            if vb is None:
                vb = self.seed(k)
            env[k] = va.join(vb)
        bounds = {
            k: max(a.bounds[k], b.bounds[k]) for k in set(a.bounds) & set(b.bounds)
        }
        res: dict[str, str] = {}
        for k in set(a.res) | set(b.res):
            ra, rb = a.res.get(k), b.res.get(k)
            if ra is None:
                res[k] = rb if rb == "released" else "maybe"  # type: ignore[assignment]
            elif rb is None:
                res[k] = ra if ra == "released" else "maybe"
            else:
                res[k] = _join_res(ra, rb)
        return State(env, bounds, res, True)

    def _widen_states(self, old: State, new: State) -> State:
        env = {}
        for k, v in new.env.items():
            ov = old.env.get(k)
            env[k] = v.with_itv(ov.itv.widen(v.itv)) if ov is not None else v.with_itv(Interval.top())
        return State(env, new.bounds, new.res, new.reachable)

    # ------------------------------------------------------------------ eval

    def _load_path(self, path: str, state: State) -> Value:
        v = state.env.get(path)
        if v is None:
            v = self.seed(path)
            state.env[path] = v
        if v.origin is None:
            v = v.with_origin(("id", path))
        return v

    def eval(self, node: ast.expr, state: State) -> Value:
        if isinstance(node, ast.Constant):
            c = node.value
            if isinstance(c, bool):
                return Value(KIND_BOOL, Interval(int(c), int(c)))
            if isinstance(c, int):
                return Value.pyint(Interval.const(c))
            if isinstance(c, float):
                import math

                return Value.flt(Interval.const(c), finite=math.isfinite(c))
            return Value.obj()
        if isinstance(node, ast.Name):
            return self._load_path(node.id, state)
        if isinstance(node, ast.Attribute):
            base = path_of(node.value)
            if base is not None:
                if node.attr in ("size", "nbytes"):
                    return Value(KIND_PYINT, Interval(0, None), origin=("size", base))
                self.on_attr_load(base, node.attr, node, state)
                return self._load_path(f"{base}.{node.attr}", state)
            self.eval(node.value, state)
            return Value.obj()
        if isinstance(node, ast.Subscript):
            sliced = _has_slice(node.slice)
            if isinstance(node.slice, ast.Slice):
                sbounds = [
                    self.eval(b, state)
                    for b in (node.slice.lower, node.slice.upper)
                    if b is not None
                ]
                if node.slice.step is not None:
                    self.eval(node.slice.step, state)
                self.check_slice(node, sbounds, state)
            elif isinstance(node.slice, ast.expr):
                idx = self.eval(node.slice, state)
                self.check_index(node, idx, state)
            p = path_of(node)
            if p is not None:
                # Evaluate the base too so attribute-load hooks see it
                # (`shm.buf[0]` must still count as a read of shm.buf).
                self.eval(node.value, state)
                v = self._load_path(p, state)
                if v.arr is not None and not p.endswith("]"):
                    if sliced:
                        # a slice of an array is a *view* of the same
                        # buffer, with an arbitrary sub-extent
                        return v.with_arr(
                            replace(
                                v.arr.as_view(),
                                count_multiple=1,
                                nelems=Interval(0, v.arr.nelems.hi),
                            )
                        )
                    # element read (possibly a fancy-index copy)
                    self.check_array_read(node, v, state)
                    return v.with_arr(None)
                return v
            bv = self.eval(node.value, state)
            if bv.arr is not None:
                if sliced:
                    return Value(
                        KIND_OBJ,
                        Interval.top(),
                        tainted=bv.tainted,
                        arr=replace(
                            bv.arr.as_view(),
                            count_multiple=1,
                            nelems=Interval(0, bv.arr.nelems.hi),
                        ),
                    )
                self.check_array_read(node, bv, state)
            # an element of tainted bytes is tainted
            return Value(KIND_OBJ, Interval.top(), tainted=bv.tainted)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand, state)
            if isinstance(node.op, ast.USub):
                # -x.min() keeps its origin so max(x.max(), -x.min()) is |x|.max()
                origin = ("negmin", v.origin[1]) if v.origin and v.origin[0] == "min" else None
                out = replace(v, itv=v.itv.neg(), origin=origin)
                if v.arr is not None:
                    # negation materializes a temp: fresh, writable buffer
                    self.check_array_read(node, v, state)
                    out = replace(
                        out,
                        arr=replace(v.arr, base=self._site(node), view=False, writable=True),
                    )
                return out
            if isinstance(node.op, ast.Not):
                return Value(KIND_BOOL, Interval(0, 1))
            if isinstance(node.op, ast.UAdd):
                return v
            return Value(v.kind, Interval.top())
        if isinstance(node, ast.BinOp):
            lv = self.eval(node.left, state)
            rv = self.eval(node.right, state)
            return self.binop(node.op, lv, rv, node, state, lpath=path_of(node.left), rpath=path_of(node.right))
        if isinstance(node, ast.BoolOp):
            out = self.eval(node.values[0], state)
            for v in node.values[1:]:
                out = out.join(self.eval(v, state))
            return out
        if isinstance(node, ast.Compare):
            self.eval(node.left, state)
            for c in node.comparators:
                self.eval(c, state)
            return Value(KIND_BOOL, Interval(0, 1))
        if isinstance(node, ast.IfExp):
            t = self.eval(node.body, self.refine(state.copy(), node.test, True))
            f = self.eval(node.orelse, self.refine(state.copy(), node.test, False))
            return t.join(f)
        if isinstance(node, ast.Call):
            return self.eval_call(node, state)
        if isinstance(node, ast.Await):
            inner = node.value
            if isinstance(inner, ast.Call):
                self._awaited_calls.add(id(inner))
            v = self.eval(inner, state)
            self.on_await(node, v, state)
            return v
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for e in node.elts:
                self.eval(e, state)
            return Value.obj()
        if isinstance(node, ast.Dict):
            for k in node.keys:
                if k is not None:
                    self.eval(k, state)
            for v in node.values:
                self.eval(v, state)
            return Value.obj()
        if isinstance(node, ast.Starred):
            return self.eval(node.value, state)
        return Value.obj()

    # ------------------------------------------------------------------ binop

    _CHECKED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.LShift)

    def binop(
        self,
        op: ast.operator,
        lv: Value,
        rv: Value,
        node: ast.AST,
        state: State,
        lpath: Optional[str] = None,
        rpath: Optional[str] = None,
    ) -> Value:
        kind = _join_kind(lv.kind, rv.kind)
        if isinstance(op, ast.Div):
            kind = KIND_FLOAT if kind in (KIND_PYINT, KIND_I64, KIND_FLOAT, KIND_BOOL) else KIND_OBJ
        itv = self._binop_itv(op, lv.itv, rv.itv)
        # a previously proved |a ± b| bound overrides the raw interval
        if isinstance(op, (ast.Add, ast.Sub)) and lpath and rpath:
            key = tuple(sorted((lpath, rpath)))
            bound = state.bounds.get(key)  # type: ignore[arg-type]
            if bound is not None:
                itv = Interval(-bound, bound)
        quantized = (lv.quantized or rv.quantized) and kind in (KIND_I64, KIND_PYINT)
        if kind == KIND_I64 and isinstance(op, self._CHECKED_OPS):
            self.check_int_arith(node, type(op).__name__, lv, rv, itv, state)
            if not itv.fits_int64():
                itv = Interval.top()  # the concrete op wraps
        origin = self._abssum_origin(op, lv, rv, lpath, rpath)
        if origin is None and isinstance(op, ast.Mod):
            # `buf.size % 8` carries a symbolic origin so an `== 0` guard
            # can refine buf's proven element-count divisor (NPA002)
            if (
                lv.origin is not None
                and lv.origin[0] == "size"
                and rv.itv.lo is not None
                and rv.itv.lo == rv.itv.hi
                and isinstance(rv.itv.lo, int)
                and rv.itv.lo > 0
            ):
                origin = ("sizemod", lv.origin[1], str(rv.itv.lo))
        arr = self._binop_arr(lv, rv, node, state)
        return Value(
            kind=kind,
            itv=itv,
            quantized=quantized,
            origin=origin,
            tainted=lv.tainted or rv.tainted,
            arr=arr,
        )

    def _binop_arr(
        self, lv: Value, rv: Value, node: ast.AST, state: State
    ) -> Optional[ArrayInfo]:
        """Array-lattice element of an elementwise binary op result.

        The result is a *fresh* buffer (``base=None`` — never provably
        aliased) with the array operand's layout; mixed-dtype operands
        promote to an unknown dtype.  Operands with array contents are
        reads (NPA005).
        """
        la, ra = lv.arr, rv.arr
        if la is not None:
            self.check_array_read(node, lv, state)
        if ra is not None:
            self.check_array_read(node, rv, state)
        src: Optional[ArrayInfo]
        if la is not None and ra is not None:
            if la.dtype is not None and la.dtype == ra.dtype:
                src = la
            else:
                src = ArrayInfo()
        else:
            src = la if la is not None else ra
        if src is None:
            return None
        return ArrayInfo(
            base=None,
            view=False,
            provenance=None,
            dtype=src.dtype,
            itemsize=src.itemsize,
            count_multiple=src.count_multiple,
            nelems=src.nelems,
            writable=True,
            init=INIT_YES,
        )

    @staticmethod
    def _abssum_origin(
        op: ast.operator, lv: Value, rv: Value, lpath: Optional[str], rpath: Optional[str]
    ) -> Optional[tuple[str, ...]]:
        if not isinstance(op, ast.Add):
            return None
        lo, ro = lv.origin, rv.origin
        if lo and lo[0] == "absmax" and ro and ro[0] in ("abs", "absmax"):
            return ("abssum", lo[1], ro[1])
        if ro and ro[0] == "absmax" and lo and lo[0] in ("abs", "absmax"):
            return ("abssum", ro[1], lo[1])
        return None

    @staticmethod
    def _binop_itv(op: ast.operator, a: Interval, b: Interval) -> Interval:
        if isinstance(op, ast.Add):
            return a.add(b)
        if isinstance(op, ast.Sub):
            return a.sub(b)
        if isinstance(op, ast.Mult):
            return a.mul(b)
        if isinstance(op, (ast.Pow, ast.LShift)):
            if (
                a.lo is not None
                and a.lo == a.hi
                and b.lo is not None
                and b.lo == b.hi
                and isinstance(a.lo, int)
                and isinstance(b.lo, int)
                and 0 <= b.lo <= 128
            ):
                v = a.lo**b.lo if isinstance(op, ast.Pow) else a.lo << b.lo
                return Interval.const(v)
            return Interval.top()
        if isinstance(op, ast.Mod):
            if b.lo is not None and b.lo == b.hi and isinstance(b.lo, int) and b.lo > 0:
                return Interval(0, b.lo - 1)
            return Interval.top()
        return Interval.top()

    # ------------------------------------------------------------------ calls

    def eval_call(self, node: ast.Call, state: State) -> Value:
        fp = path_of(node.func)
        args = [self.eval(a, state) for a in node.args]
        kwargs = {k.arg: self.eval(k.value, state) for k in node.keywords if k.arg is not None}
        for k in node.keywords:
            if k.arg is None:
                self.eval(k.value, state)
        result = self._eval_known_call(node, fp, args, kwargs, state)
        hooked = self.on_call(node, fp, args, kwargs, state)
        if hooked is not None:
            return hooked
        return result

    def _eval_known_call(
        self,
        node: ast.Call,
        fp: Optional[str],
        args: list[Value],
        kwargs: dict[str, Value],
        state: State,
    ) -> Value:
        if fp is None:
            if isinstance(node.func, ast.Attribute):
                # method call on a computed receiver, e.g. np.abs(x).max()
                recv = self.eval(node.func.value, state)
                handled = self._eval_method_call(
                    node, recv, None, node.func.attr, args, kwargs, state
                )
                if handled is not None:
                    return handled
            self._havoc_args(node, state)
            return Value.obj()
        root = fp.split(".", 1)[0]
        leaf = fp.rsplit(".", 1)[-1]

        # ---- builtins -------------------------------------------------
        if fp == "int" and args:
            a = args[0]
            return Value(
                KIND_PYINT,
                a.itv,
                quantized=a.quantized,
                origin=a.origin or self._arg_id(node, 0),
                tainted=a.tainted,
            )
        if fp == "float" and args:
            a = args[0]
            finite = a.kind in (KIND_PYINT, KIND_I64, KIND_BOOL) or a.finite
            return Value(KIND_FLOAT, a.itv, quantized=a.quantized, finite=finite, origin=a.origin, tainted=a.tainted)
        if fp == "abs" and args:
            a = args[0]
            origin = None
            # prefer the syntactic argument path: bound facts are keyed by
            # the paths at the use site, not by where the value came from
            src = self._arg_id(node, 0) or a.origin
            if src and src[0] == "id":
                origin = ("abs", src[1])
            return Value(a.kind if a.kind != KIND_BOOL else KIND_PYINT, a.itv.abs(), quantized=a.quantized, origin=origin, tainted=a.tainted)
        if fp == "len" and node.args:
            p = path_of(node.args[0])
            return Value(KIND_PYINT, Interval(0, None), origin=("size", p) if p else None)
        if fp == "bool":
            return Value(KIND_BOOL, Interval(0, 1))
        if fp in ("min", "max") and args:
            out = args[0]
            for a in args[1:]:
                out = out.join(a)
            if fp == "max" and len(args) == 2:
                o1, o2 = args[0].origin, args[1].origin
                if o1 and o2 and {o1[0], o2[0]} == {"max", "negmin"} and o1[1:] == o2[1:]:
                    # max(x.max(), -x.min()) is |x|.max() with no |x| temporary
                    return out.with_origin(("absmax", o1[1]))
            return out.with_origin(None)
        if fp in ("range", "enumerate", "zip", "sorted", "list", "tuple", "dict", "set", "isinstance", "print", "repr", "str", "format", "getattr", "hasattr"):
            return Value.obj()

        # ---- struct: unpacking tainted bytes yields tainted numbers ---
        if root == "struct" and leaf in ("unpack", "unpack_from"):
            tainted = any(a.tainted for a in args) or any(
                v.tainted for v in kwargs.values()
            )
            return Value(KIND_OBJ, Interval.top(), tainted=tainted)

        # ---- numpy / math --------------------------------------------
        if root in _NUMPY_ROOTS:
            return self._eval_numpy_call(node, leaf, args, kwargs, state)
        if root == "math":
            if leaf == "isfinite" and node.args:
                p = path_of(node.args[0])
                return Value(KIND_BOOL, Interval(0, 1), origin=("allfinite", p) if p else None)
            return Value(KIND_FLOAT, Interval.top())
        if fp == "as_strided":
            # ``from numpy.lib.stride_tricks import as_strided`` spelling
            return self._eval_numpy_call(node, leaf, args, kwargs, state)

        # ---- method calls on pathed receivers ------------------------
        if isinstance(node.func, ast.Attribute):
            recv_node = node.func.value
            recv_path = path_of(recv_node)
            meth = node.func.attr
            recv = self.eval(recv_node, state) if recv_path is None else self._load_path(recv_path, state)
            handled = self._eval_method_call(node, recv, recv_path, meth, args, kwargs, state)
            if handled is not None:
                return handled

        # ---- module-local functions and constructors ------------------
        callee = self._resolve_local(fp)
        if callee is not None:
            rec = self.call_args.setdefault(callee.qualname, [])
            rec.append((args, kwargs))
            self._havoc_args(node, state)
            summary = self.summaries.get(callee.qualname)
            return summary if summary is not None else Value.obj()
        cname = leaf if (leaf in self.ctx.classes or leaf in self.CTOR_NAMES) else None
        if cname is not None:
            self._havoc_args(node, state)
            return Value.obj(ctor=cname)

        # ---- unknown --------------------------------------------------
        self._havoc_args(node, state)
        return Value.obj()

    @staticmethod
    def _arg_id(node: ast.Call, i: int) -> Optional[tuple[str, ...]]:
        if i < len(node.args):
            p = path_of(node.args[i])
            if p:
                return ("id", p)
        return None

    def _site(self, node: ast.AST) -> str:
        """Allocation-site buffer id, unique within one function analysis."""
        qn = self.current.qualname if self.current is not None else "<module>"
        return f"{qn}:{getattr(node, 'lineno', 0)}:{getattr(node, 'col_offset', 0)}"

    @staticmethod
    def _shape_facts(
        shape_node: Optional[ast.expr], shape_val: Optional[Value]
    ) -> tuple[Interval, int]:
        """``(nelems, count_multiple)`` proven by an allocation's shape.

        A constant trailing-dim tuple like ``(n, 8)`` proves the element
        count is a multiple of 8 — which is what the byte-view emit
        kernels need for ``.view(np.uint64)`` reinterpretation proofs.
        """
        if shape_node is None:
            return (Interval.top(), 1)
        if isinstance(shape_node, ast.Tuple):
            mult = 1
            all_const = True
            for e in shape_node.elts:
                if (
                    isinstance(e, ast.Constant)
                    and isinstance(e.value, int)
                    and e.value > 0
                ):
                    mult *= e.value
                else:
                    all_const = False
            if all_const and mult > 0:
                return (Interval.const(mult), mult)
            return (Interval(0, None), max(mult, 1))
        if shape_val is not None and shape_val.kind in (KIND_PYINT, KIND_I64):
            itv = shape_val.itv.meet(Interval(0, None))
            cm = 1
            if (
                itv.lo is not None
                and itv.lo == itv.hi
                and isinstance(itv.lo, int)
                and itv.lo > 0
            ):
                cm = itv.lo
            return (itv, cm)
        return (Interval(0, None), 1)

    def _dtype_info(self, node: ast.Call) -> Optional[tuple[str, Optional[int], str]]:
        """``(name, itemsize, kind)`` of a call's dtype argument, if any."""
        for k in node.keywords:
            if k.arg == "dtype":
                return dtype_info_of(k.value)
        if len(node.args) >= 2:
            return dtype_info_of(node.args[1])
        return None

    #: numpy leafs that read their array arguments' contents (NPA005).
    _NP_READ_LEAFS = frozenset(
        {
            "abs", "absolute", "fabs", "floor", "ceil", "rint", "trunc",
            "round", "add", "subtract", "multiply", "negative", "cumsum",
            "sum", "nansum", "prod", "max", "amax", "min", "amin", "mean",
            "std", "var", "median", "dot", "vdot", "diff", "where",
            "isfinite", "all", "any", "packbits", "unpackbits", "copy",
            "array", "repeat", "tile", "sqrt", "exp", "log", "hypot",
            "searchsorted", "argsort", "sort", "unique", "count_nonzero",
            "bincount", "clip",
        }
    )

    def _eval_numpy_call(
        self,
        node: ast.Call,
        leaf: str,
        args: list[Value],
        kwargs: dict[str, Value],
        state: State,
    ) -> Value:
        a0 = args[0] if args else Value.obj()
        if leaf in self._NP_READ_LEAFS:
            for a in args:
                if a.arr is not None:
                    self.check_array_read(node, a, state)
        out: Optional[Value] = None
        if leaf in ("abs", "absolute", "fabs"):
            p = path_of(node.args[0]) if node.args else None
            # opaque input stays opaque: laundering OBJ to FLOAT here would
            # let the cast check fire on values we know nothing about
            kind = a0.kind if a0.kind != KIND_BOOL else KIND_PYINT
            out = Value(kind, a0.itv.abs(), quantized=a0.quantized, finite=a0.finite, origin=("abs", p) if p else None)
        elif leaf in ("asarray", "ascontiguousarray", "array", "copy"):
            kind = a0.kind
            finite = a0.finite
            info = self._dtype_info(node)
            dt = info[2] if info is not None else None
            if dt is not None:
                if dt == KIND_FLOAT and a0.kind in (KIND_PYINT, KIND_I64, KIND_BOOL):
                    finite = True
                kind = dt
            if leaf in ("array", "copy"):
                # definitely a fresh, writable buffer
                arr = self._fresh_arr(
                    base=self._site(node),
                    dtype=info[0] if info is not None else (a0.arr.dtype if a0.arr else None),
                    itemsize=info[1] if info is not None else (a0.arr.itemsize if a0.arr else None),
                    count_multiple=a0.arr.count_multiple if a0.arr else 1,
                    nelems=a0.arr.nelems if a0.arr else Interval(0, None),
                )
            elif a0.arr is not None:
                # asarray/ascontiguousarray may return the input itself:
                # same buffer identity (may-alias), layout carried over
                arr = a0.arr
                if info is not None and info[0] != arr.dtype:
                    arr = replace(arr, dtype=info[0], itemsize=info[1])
            else:
                arr = self._fresh_arr(
                    base=self._site(node),
                    dtype=info[0] if info is not None else None,
                    itemsize=info[1] if info is not None else None,
                )
            out = Value(kind if kind != KIND_OBJ else KIND_OBJ, a0.itv, quantized=a0.quantized, finite=finite, arr=arr)
        elif leaf in ("floor", "ceil", "rint", "trunc", "round"):
            out = Value(KIND_FLOAT, a0.itv.expand(1), quantized=a0.quantized, finite=a0.finite)
        elif leaf in ("add", "subtract", "multiply") and len(args) >= 2:
            opmap = {"add": ast.Add(), "subtract": ast.Sub(), "multiply": ast.Mult()}
            out = self.binop(
                opmap[leaf],
                args[0],
                args[1],
                node,
                state,
                lpath=path_of(node.args[0]),
                rpath=path_of(node.args[1]),
            )
        elif leaf == "negative":
            out = replace(a0, itv=a0.itv.neg(), origin=None)
        elif leaf in ("cumsum", "sum", "nansum", "prod"):
            dt = self._dtype_kw(node)
            kind = dt if dt is not None else (a0.kind if a0.kind in (KIND_I64, KIND_FLOAT) else KIND_OBJ)
            out = Value(kind, Interval.top(), quantized=a0.quantized and kind == KIND_I64)
        elif leaf in ("ravel", "reshape"):
            # element count and buffer identity survive a reshape
            out = replace(
                a0,
                origin=None,
                arr=a0.arr.as_view() if a0.arr is not None else None,
            )
        elif leaf in ("repeat", "tile"):
            arr = (
                replace(a0.arr, base=self._site(node), view=False, count_multiple=1, nelems=Interval(0, None))
                if a0.arr is not None
                else None
            )
            out = replace(a0, origin=None, arr=arr)
        elif leaf in ("empty", "empty_like", "zeros", "zeros_like", "ones", "ones_like", "full", "full_like"):
            info = self._dtype_info(node)
            dt = info[2] if info is not None else None
            like = leaf.endswith("_like")
            kind = dt if dt is not None else (a0.kind if like else KIND_OBJ)
            if like and a0.arr is not None:
                nelems, cm = a0.arr.nelems, a0.arr.count_multiple
                if info is None:
                    info = (a0.arr.dtype, a0.arr.itemsize, kind) if a0.arr.dtype else None
            elif like:
                # prototype carries no layout facts (args[0] is an array,
                # not a shape)
                nelems, cm = Interval(0, None), 1
            else:
                nelems, cm = self._shape_facts(
                    node.args[0] if node.args else None, a0 if args else None
                )
            arr = self._fresh_arr(
                base=self._site(node),
                provenance=leaf.split("_")[0],
                dtype=info[0] if info is not None else None,
                itemsize=info[1] if info is not None else None,
                count_multiple=cm,
                nelems=nelems,
                init=INIT_NO if leaf.startswith("empty") else INIT_YES,
            )
            if leaf.startswith("empty"):
                # uninitialized contents: element range is ⊥ until written
                out = Value(kind, Interval.bottom(), arr=arr)
            else:
                if leaf.startswith("zeros"):
                    itv = Interval.const(0)
                elif leaf.startswith("ones"):
                    itv = Interval.const(1)
                else:
                    fill = args[1] if len(args) > 1 else kwargs.get("fill_value", Value.obj())
                    itv = fill.itv
                out = Value(kind, itv, arr=arr)
        elif leaf == "frombuffer":
            info = self._dtype_info(node)
            rng = INT_DTYPE_RANGES.get(info[0]) if info is not None else None
            arr = self._fresh_arr(
                base=self._site(node),
                view=True,
                provenance="frombuffer",
                dtype=info[0] if info is not None else None,
                itemsize=info[1] if info is not None else None,
                writable=False,
            )
            out = Value(
                info[2] if info is not None else KIND_OBJ,
                Interval(rng[0], rng[1]) if rng is not None else Interval.top(),
                tainted=a0.tainted,
                arr=arr,
            )
        elif leaf == "broadcast_to":
            src = a0.arr
            arr = self._fresh_arr(
                base=src.base if src is not None and src.base else self._site(node),
                view=True,
                provenance="broadcast_to",
                dtype=src.dtype if src is not None else None,
                itemsize=src.itemsize if src is not None else None,
                writable=False,
                init=src.init if src is not None else INIT_YES,
            )
            out = replace(a0, origin=None, arr=arr)
        elif leaf == "ndarray":
            info = self._dtype_info(node)
            nelems, cm = self._shape_facts(
                node.args[0] if node.args else None, a0 if args else None
            )
            buf_node = next(
                (k.value for k in node.keywords if k.arg == "buffer"), None
            )
            if buf_node is None and len(node.args) >= 3:
                buf_node = node.args[2]
            if buf_node is not None:
                bp = path_of(buf_node)
                arr = self._fresh_arr(
                    base=f"buf:{bp}" if bp else self._site(node),
                    view=True,
                    provenance="ndarray",
                    dtype=info[0] if info is not None else None,
                    itemsize=info[1] if info is not None else None,
                    count_multiple=cm,
                    nelems=nelems,
                )
            else:
                arr = self._fresh_arr(
                    base=self._site(node),
                    provenance="ndarray",
                    dtype=info[0] if info is not None else None,
                    itemsize=info[1] if info is not None else None,
                    count_multiple=cm,
                    nelems=nelems,
                    init=INIT_NO,
                )
            out = Value(info[2] if info is not None else KIND_OBJ, Interval.top(), arr=arr)
        elif leaf == "arange":
            info = next(
                (dtype_info_of(k.value) for k in node.keywords if k.arg == "dtype"),
                None,
            )
            nelems, cm = Interval(0, None), 1
            itv = Interval.top()
            if len(args) == 1:
                n = self._const_of(a0)
                if n is not None and isinstance(n, int) and n > 0:
                    nelems, cm, itv = Interval.const(n), n, Interval(0, n - 1)
                elif a0.itv.hi is not None:
                    nelems, itv = Interval(0, a0.itv.hi), Interval(0, a0.itv.hi - 1)
                else:
                    nelems, itv = Interval(0, None), Interval(0, None)
            arr = self._fresh_arr(
                base=self._site(node),
                provenance="arange",
                dtype=info[0] if info is not None else None,
                itemsize=info[1] if info is not None else None,
                count_multiple=cm,
                nelems=nelems,
            )
            out = Value(info[2] if info is not None else KIND_I64, itv, arr=arr)
        elif leaf in ("packbits", "unpackbits"):
            arr = self._fresh_arr(base=self._site(node), provenance=leaf, dtype="uint8", itemsize=1)
            out = Value(
                KIND_I64,
                Interval(0, 1) if leaf == "unpackbits" else Interval(0, 255),
                arr=arr,
            )
        elif leaf == "as_strided":
            shape_node = next(
                (k.value for k in node.keywords if k.arg == "shape"), None
            )
            if shape_node is None and len(node.args) >= 2:
                shape_node = node.args[1]
            nelems, cm = self._shape_facts(shape_node, None)
            arr = (
                replace(
                    a0.arr.as_view(),
                    provenance="as_strided",
                    count_multiple=cm,
                    nelems=nelems,
                )
                if a0.arr is not None
                else self._fresh_arr(
                    base=self._site(node),
                    view=True,
                    provenance="as_strided",
                    count_multiple=cm,
                    nelems=nelems,
                )
            )
            out = replace(a0, origin=None, arr=arr)
        elif leaf == "clip" and len(args) >= 3:
            lo_c = self._const_of(args[1])
            hi_c = self._const_of(args[2])
            lo, hi = a0.itv.lo, a0.itv.hi
            if lo_c is not None:
                lo = lo_c if lo is None else max(lo, lo_c)
            if hi_c is not None:
                hi = hi_c if hi is None else min(hi, hi_c)
            itv = a0.itv if a0.itv.empty else Interval(lo, hi)
            arr = (
                replace(a0.arr, base=self._site(node), view=False, writable=True)
                if a0.arr is not None
                else None
            )
            out = replace(a0, itv=itv, origin=None, arr=arr)
        elif leaf == "isfinite" and node.args:
            p = path_of(node.args[0])
            out = Value(KIND_BOOL, Interval(0, 1), origin=("allfinite", p) if p else None)
        elif leaf in ("all", "any"):
            src = a0.origin
            origin = src if leaf == "all" and src and src[0] == "allfinite" else None
            out = Value(KIND_BOOL, Interval(0, 1), origin=origin)
        elif leaf in ("max", "amax", "min", "amin"):
            out = self._reduce_minmax(a0, node.args[0] if node.args else None, leaf.lstrip("a"))
        elif leaf == "where" and len(args) == 3:
            out = args[1].join(args[2])
        elif leaf in ("sqrt", "exp", "log", "mean", "std", "var", "median", "dot", "vdot", "hypot", "spacing", "nextafter", "diff"):
            out = Value(KIND_FLOAT, Interval.top())
        elif leaf in ("int64", "int32", "intp"):
            out = Value(KIND_I64, a0.itv if args else Interval.top(), quantized=a0.quantized)
        elif leaf in ("uint8", "uint16", "uint32", "uint64", "int8", "int16"):
            lo, hi = INT_DTYPE_RANGES[leaf]
            rng = Interval(lo, hi)
            if args and not a0.itv.empty and a0.itv.meet(rng) == a0.itv:
                out = Value(KIND_I64, a0.itv, quantized=a0.quantized)
            else:
                # value may wrap: all we know is the dtype range
                out = Value(KIND_I64, rng)
        elif leaf in ("float64", "float32"):
            out = Value(KIND_FLOAT, a0.itv if args else Interval.top())
        elif leaf in ("errstate", "dtype", "iinfo", "finfo", "seterr"):
            out = Value.obj()
        if out is None:
            out = Value.obj()
        # out= kwarg writes the result through the named array
        out_node = next((k.value for k in node.keywords if k.arg == "out"), None)
        if out_node is not None:
            op = path_of(out_node)
            if op is not None:
                base = op
                cur = state.env.get(base, self.seed(base))
                self.check_array_write(node, base, cur, out, None, state)
                if isinstance(out_node, ast.Subscript) and not base.endswith("]"):
                    stored = self._element_store(cur, out)
                else:
                    stored = out
                    if cur.arr is not None:
                        stored = stored.with_arr(cur.arr.initialized())
                state.env[base] = stored
                self.invalidate(base, state)
                self.on_assign(base, stored, node, state)
            elif isinstance(out_node, ast.Subscript):
                # ``out=buf[1:]``: a write through an anonymous view of buf
                bp = path_of(out_node.value)
                if bp is not None:
                    cur = state.env.get(bp, self.seed(bp))
                    self.check_array_write(node, bp, cur, out, None, state)
                    state.env[bp] = self._element_store(cur, out)
                    self.invalidate(bp, state)
        return out

    def _dtype_kw(self, node: ast.Call) -> Optional[str]:
        for k in node.keywords:
            if k.arg == "dtype":
                return _dtype_kind_of(k.value)
        # positional dtype in np.zeros(n, np.int64) style
        if len(node.args) >= 2:
            return _dtype_kind_of(node.args[1])
        return None

    @staticmethod
    def _reduce_minmax(a0: Value, arg_node: Optional[ast.expr], which: str) -> Value:
        origin = None
        src = a0.origin
        if src and src[0] == "abs":
            origin = ("absmax", src[1]) if which == "max" else None
        elif src and src[0] == "id":
            origin = (which, src[1])
        elif arg_node is not None:
            p = path_of(arg_node)
            if p:
                origin = (which, p)
        return Value(a0.kind if a0.kind in (KIND_I64, KIND_FLOAT, KIND_PYINT) else KIND_OBJ, a0.itv, quantized=a0.quantized, finite=a0.finite, origin=origin)

    def _eval_method_call(
        self,
        node: ast.Call,
        recv: Value,
        recv_path: Optional[str],
        meth: str,
        args: list[Value],
        kwargs: dict[str, Value],
        state: State,
    ) -> Optional[Value]:
        if meth in ("max", "min") and not args:
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
            return self._reduce_minmax(recv, node.func.value if isinstance(node.func, ast.Attribute) else None, meth)
        if meth == "astype" and node.args:
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
            info = dtype_info_of(node.args[0])
            dst = info[2] if info is not None else _dtype_kind_of(node.args[0])
            if info is not None:
                self.check_astype(node, recv, info[0], info[1], state)
            arr = (
                replace(
                    recv.arr,
                    base=self._site(node),
                    view=False,
                    provenance="astype",
                    dtype=info[0] if info is not None else None,
                    itemsize=info[1] if info is not None else None,
                    writable=True,
                    init=INIT_YES,
                )
                if recv.arr is not None
                else None
            )
            if dst is None:
                return Value(KIND_OBJ, Interval.top(), arr=arr) if arr is not None else Value.obj()
            if dst == KIND_I64:
                self.check_cast(node, recv, dst, state)
                itv = recv.itv.meet(Interval(-(1 << 63), (1 << 63) - 1)) if recv.kind == KIND_FLOAT else recv.itv
                rng = INT_DTYPE_RANGES.get(info[0]) if info is not None else None
                if rng is not None and (
                    itv.empty or itv.lo is None or itv.hi is None or itv.lo < rng[0] or itv.hi > rng[1]
                ):
                    # narrowing may wrap: all we know is the dtype range
                    itv = Interval(rng[0], rng[1])
                return Value(KIND_I64, itv, quantized=recv.quantized, arr=arr)
            if dst == KIND_FLOAT:
                finite = recv.finite or recv.kind in (KIND_PYINT, KIND_I64, KIND_BOOL)
                return Value(KIND_FLOAT, recv.itv, quantized=recv.quantized, finite=finite, arr=arr)
            return Value(dst, Interval.top(), arr=arr)
        if meth == "copy" and not args:
            out = recv.with_origin(None)
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
                out = out.with_arr(
                    replace(recv.arr, base=self._site(node), view=False, provenance="copy", writable=True)
                )
            return out
        if meth in ("reshape", "ravel", "flatten", "squeeze", "transpose"):
            arr = recv.arr
            if arr is not None:
                if meth == "flatten":
                    # flatten always copies; the rest return views
                    arr = replace(arr, base=self._site(node), view=False, writable=True)
                else:
                    arr = arr.as_view()
                if meth == "reshape" and node.args:
                    dims = list(node.args)
                    if len(dims) == 1 and isinstance(dims[0], ast.Tuple):
                        dims = list(dims[0].elts)
                    mult = 1
                    for e in dims:
                        if isinstance(e, ast.Constant) and isinstance(e.value, int) and e.value > 0:
                            mult *= e.value
                    if mult > 1:
                        # a constant positive dim divides the element count
                        arr = replace(arr, count_multiple=math.lcm(arr.count_multiple, mult))
            return recv.with_origin(None).with_arr(arr)
        if meth == "view" and node.args:
            info = dtype_info_of(node.args[0])
            if info is not None:
                self.check_view_cast(node, recv, info[0], info[1], state)
            dst = info[2] if info is not None else _dtype_kind_of(node.args[0])
            arr = None
            if recv.arr is not None:
                src = recv.arr
                cm = 1
                ne = Interval(0, None)
                if info is not None and info[1] and src.itemsize:
                    old_bytes = src.count_multiple * src.itemsize
                    if old_bytes % info[1] == 0:
                        cm = old_bytes // info[1]
                    if src.nelems.lo is not None and src.nelems.lo == src.nelems.hi:
                        tot = src.nelems.lo * src.itemsize
                        if tot % info[1] == 0:
                            ne = Interval.const(tot // info[1])
                arr = replace(
                    src.as_view(),
                    provenance="view",
                    dtype=info[0] if info is not None else None,
                    itemsize=info[1] if info is not None else None,
                    count_multiple=cm,
                    nelems=ne,
                )
            rng = INT_DTYPE_RANGES.get(info[0]) if info is not None else None
            itv = Interval(rng[0], rng[1]) if rng is not None else Interval.top()
            return Value(dst or KIND_OBJ, itv, arr=arr)
        if meth == "byteswap":
            arr = None
            itv = Interval.top()
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
                # byteswap() without inplace=True returns a fresh buffer
                arr = replace(recv.arr, base=self._site(node), view=False, writable=True)
                rng = INT_DTYPE_RANGES.get(recv.arr.dtype) if recv.arr.dtype else None
                if rng is not None:
                    itv = Interval(rng[0], rng[1])
            return Value(recv.kind, itv, arr=arr)
        if meth in ("item", "tobytes", "tolist") and not args:
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
            if meth != "item":
                return Value(KIND_OBJ, Interval.top(), tainted=recv.tainted)
            kind = KIND_PYINT if recv.kind == KIND_I64 else recv.kind
            return Value(kind, recv.itv, quantized=recv.quantized, finite=recv.finite)
        if meth == "sum":
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
            dt = self._dtype_kw(node)
            kind = dt if dt else (recv.kind if recv.kind in (KIND_I64, KIND_FLOAT) else KIND_OBJ)
            return Value(kind, Interval.top(), quantized=recv.quantized and kind == KIND_I64)
        if meth in ("mean", "std", "var"):
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
            return Value(KIND_FLOAT, Interval.top())
        if meth in ("any", "all"):
            if recv.arr is not None:
                self.check_array_read(node, recv, state)
            return Value(KIND_BOOL, Interval(0, 1))
        if meth == "fill" and recv_path and args:
            cur = state.env.get(recv_path, self.seed(recv_path))
            self.check_array_write(node, recv_path, cur, args[0], None, state)
            nv = replace(args[0], quantized=recv.quantized or args[0].quantized)
            if cur.arr is not None:
                # fill overwrites every element: initialized on this path
                nv = nv.with_arr(cur.arr.initialized())
            state.env[recv_path] = nv
            self.invalidate(recv_path, state)
            return Value.obj()
        # self.<method> → module-local method of the current class
        if recv_path == "self" and self.current is not None and self.current.class_name:
            qn = f"{self.current.class_name}.{meth}"
            callee = self.ctx.functions.get(qn)
            if callee is not None:
                self.call_args.setdefault(qn, []).append((args, kwargs))
                self._havoc_args(node, state)
                summary = self.summaries.get(qn)
                return summary if summary is not None else Value.obj()
        # ctor-typed receiver → method of that module-local class
        # (`r = _Reader(buf); r.u16(...)` resolves to `_Reader.u16`)
        if recv.ctor is not None and recv_path != "self":
            qn = f"{recv.ctor}.{meth}"
            callee = self.ctx.functions.get(qn)
            if callee is not None:
                self.call_args.setdefault(qn, []).append((args, kwargs))
                self._havoc_args(node, state)
                summary = self.summaries.get(qn)
                return summary if summary is not None else Value.obj()
        return None

    def _resolve_local(self, fp: str) -> Optional[FuncInfo]:
        if "." in fp:
            return None
        return self.ctx.functions.get(fp)

    def _havoc_args(self, node: ast.Call, state: State) -> None:
        """Unknown callee may mutate its arguments: retire derived bindings."""
        for arg in list(node.args) + [k.value for k in node.keywords]:
            p = path_of(arg)
            if p is None:
                continue
            v = state.env.get(p)
            if v is not None and v.kind in (KIND_I64, KIND_FLOAT):
                # mutable array contents may have changed: reseed by name
                state.env.pop(p, None)
            for k in [k for k in state.env if k.startswith(p + ".") or k.startswith(p + "[")]:
                del state.env[k]
            self.invalidate(p, state)

    # ------------------------------------------------------------------ refine

    def refine(self, state: State, test: ast.expr, branch: bool) -> State:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self.refine(state, test.operand, not branch)
        if isinstance(test, ast.BoolOp):
            is_and = isinstance(test.op, ast.And)
            if is_and == branch:
                # all conjuncts true (And-true) / all disjuncts false (Or-false)
                for v in test.values:
                    state = self.refine(state, v, branch)
                return state
            # De Morgan split: join the per-operand early exits
            outs: list[State] = []
            cur = state
            for v in test.values:
                outs.append(self.refine(cur.copy(), v, branch))
                cur = self.refine(cur, v, not branch)
            out = outs[0]
            for o in outs[1:]:
                out = self.join_states(out, o)
            return out
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            return self._refine_compare(state, test, branch)
        # bare truthiness
        v = self.eval(test, state.copy())
        p = path_of(test)
        if v.origin and v.origin[0] == "size":
            base = v.origin[1]
            bv = state.env.get(base, self.seed(base))
            if not branch:
                state.env[base] = bv.with_itv(Interval.bottom())
            return state
        if v.origin and v.origin[0] == "sizemod" and not branch:
            # falsy ``buf.size % k`` proves the element count divides by k
            base = v.origin[1]
            try:
                k = int(v.origin[2])
            except (ValueError, IndexError):
                k = 0
            bv = state.env.get(base, self.seed(base))
            if bv.arr is not None and k > 1:
                arr = replace(bv.arr, count_multiple=math.lcm(bv.arr.count_multiple, k))
                state.env[base] = bv.with_arr(arr)
            return state
        if v.origin and v.origin[0] == "allfinite" and branch:
            base = v.origin[1]
            bv = state.env.get(base, self.seed(base))
            state.env[base] = replace(bv, finite=True)
            return state
        if p and not branch and v.kind in (KIND_PYINT, KIND_I64):
            pv = state.env.get(p, self.seed(p))
            state.env[p] = pv.with_itv(pv.itv.meet(Interval.const(0)))
        return state

    def _refine_compare(self, state: State, test: ast.Compare, branch: bool) -> State:
        op = test.ops[0]
        left, right = test.left, test.comparators[0]
        lv = self.eval(left, state.copy())
        rv = self.eval(right, state.copy())
        if isinstance(op, (ast.In, ast.NotIn)):
            # membership in a known table is a validation fact
            if branch == isinstance(op, ast.In):
                self._clear_taint(state, left)
            return state
        lc = self._const_of(lv)
        rc = self._const_of(rv)
        if rc is not None and lc is None:
            self._refine_against_const(state, left, lv, op, rc, branch, mirrored=False)
        elif lc is not None and rc is None:
            self._refine_against_const(state, right, rv, op, lc, branch, mirrored=True)
        else:
            # No interval information without a constant side, but an
            # upper-bound comparison against *anything* (`n <= max_frame`,
            # `pos + n > len(buf)` on the false edge) still counts as a
            # bounds check: the guarded side stops being tainted.
            opname = type(op).__name__
            if not branch:
                opname = {"Lt": "GtE", "LtE": "Gt", "Gt": "LtE", "GtE": "Lt"}.get(opname, "skip")
            if opname in ("Lt", "LtE"):
                self._clear_taint(state, left)
            elif opname in ("Gt", "GtE"):
                self._clear_taint(state, right)
        return state

    def _clear_taint(self, state: State, node: ast.expr) -> None:
        """Clear the taint bit on every pathed load inside ``node``."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute, ast.Subscript)):
                p = path_of(sub)
                if p is None:
                    continue
                v = state.env.get(p)
                if v is not None and v.tainted:
                    state.env[p] = v.with_tainted(False)

    @staticmethod
    def _const_of(v: Value) -> Optional[float]:
        if not v.itv.empty and v.itv.lo is not None and v.itv.lo == v.itv.hi:
            return v.itv.lo
        return None

    @staticmethod
    def _finite_if_held(v: Value, held: bool) -> Value:
        """Finiteness from a ``x.max() < c`` / ``x.min() > c`` that *held*.

        ``max``/``min`` propagate NaN and every ordered comparison with NaN
        is False, so the comparison evaluating True proves ``x`` NaN-free;
        with both interval bounds then finite (the other bound from any
        guard), ``x`` has no ±inf either.  A comparison that failed proves
        nothing: ``if x.max() >= c: raise`` lets NaN through.
        """
        if (
            held
            and v.kind == KIND_FLOAT
            and not v.itv.empty
            and v.itv.lo is not None
            and v.itv.hi is not None
        ):
            return replace(v, finite=True)
        return v

    def _refine_against_const(
        self,
        state: State,
        node: ast.expr,
        val: Value,
        op: ast.cmpop,
        c: float,
        branch: bool,
        mirrored: bool,
    ) -> None:
        # normalize to  expr <op> c  on the True branch
        held = branch  # the comparison as written evaluated True
        opname = type(op).__name__
        if mirrored:
            opname = {"Lt": "Gt", "LtE": "GtE", "Gt": "Lt", "GtE": "LtE"}.get(opname, opname)
        if not branch:
            opname = {"Lt": "GtE", "LtE": "Gt", "Gt": "LtE", "GtE": "Lt", "Eq": "NotEq", "NotEq": "Eq"}.get(opname, "skip")
        is_int = val.kind in (KIND_PYINT, KIND_I64)
        step = 1 if is_int and isinstance(c, int) else 0
        if opname == "Lt":
            upper: Interval = Interval(None, c - step)
        elif opname == "LtE":
            upper = Interval(None, c)
        elif opname == "Gt":
            upper = Interval(c + step, None)
        elif opname == "GtE":
            upper = Interval(c, None)
        elif opname == "Eq":
            upper = Interval.const(c)
        else:
            return
        # 1) narrow the compared l-value itself
        p = path_of(node)
        if p:
            pv = state.env.get(p, self.seed(p))
            pv = pv.with_itv(pv.itv.meet(upper))
            if opname in ("Lt", "LtE", "Eq") and pv.tainted:
                # a finite upper bound is a bounds-check guard fact
                pv = pv.with_tainted(False)
            state.env[p] = pv
        elif opname in ("Lt", "LtE", "Eq"):
            # compound left side (`pos + n < limit`): no single binding to
            # narrow, but the upper bound still sanitizes its operands
            self._clear_taint(state, node)
        # 2) origin-directed effects
        origin = val.origin
        if origin is None:
            return
        tag = origin[0]
        if tag in ("abs", "absmax") and opname in ("Lt", "LtE"):
            bound = upper.hi
            if bound is not None:
                base = origin[1]
                bv = state.env.get(base, self.seed(base))
                state.env[base] = bv.with_itv(bv.itv.meet(Interval(-bound, bound)))
        elif tag == "abssum" and opname in ("Lt", "LtE"):
            bound = upper.hi
            if bound is not None and isinstance(bound, int):
                key = tuple(sorted((origin[1], origin[2])))
                prev = state.bounds.get(key)  # type: ignore[arg-type]
                state.bounds[key] = bound if prev is None else min(prev, bound)  # type: ignore[index]
        elif tag == "max" and opname in ("Lt", "LtE"):
            base = origin[1]
            bv = state.env.get(base, self.seed(base))
            bv = bv.with_itv(bv.itv.meet(Interval(None, upper.hi)))
            state.env[base] = self._finite_if_held(bv, held)
        elif tag == "min" and opname in ("Gt", "GtE"):
            base = origin[1]
            bv = state.env.get(base, self.seed(base))
            bv = bv.with_itv(bv.itv.meet(Interval(upper.lo, None)))
            state.env[base] = self._finite_if_held(bv, held)
        elif tag == "size" and opname == "Eq" and c == 0:
            base = origin[1]
            bv = state.env.get(base, self.seed(base))
            state.env[base] = bv.with_itv(Interval.bottom())
        elif tag == "sizemod" and opname == "Eq" and c == 0:
            # ``buf.size % k == 0`` proves the element count divides by k
            base = origin[1]
            try:
                k = int(origin[2])
            except (ValueError, IndexError):
                return
            bv = state.env.get(base, self.seed(base))
            if bv.arr is not None and k > 1:
                arr = replace(bv.arr, count_multiple=math.lcm(bv.arr.count_multiple, k))
                state.env[base] = bv.with_arr(arr)


# ---------------------------------------------------------------------------
# module driver: two analysis rounds with call summaries
# ---------------------------------------------------------------------------


def analyze_module(
    source_path: str,
    tree: ast.Module,
    make_interp: Callable[[ModuleContext, Mapping[str, Value]], Interpreter],
    ctx: Optional[ModuleContext] = None,
) -> tuple[list[Finding], dict[str, FunctionResult]]:
    """Run a pass over every function with two-round call summaries.

    Round 1 analyzes each function with name-based seeds, collecting
    return summaries and observed call-site arguments.  Round 2
    re-analyzes everything with the full summary table, refining private
    functions' parameters to the join of their observed arguments.
    Findings are taken from round 2 only.

    ``ctx`` lets the driver share one :class:`ModuleContext` (and the
    parse it indexes) across every pass over the same file; the context
    is read-only during analysis.
    """
    if ctx is None:
        ctx = ModuleContext.build(source_path, tree)
    summaries: dict[str, Value] = {}
    observed: dict[str, list[tuple[list[Value], dict[str, Value]]]] = {}
    for qn, fn in ctx.functions.items():
        interp = make_interp(ctx, summaries)
        res = interp.run(fn)
        summaries[qn] = res.return_value
        for callee, calls in res.call_args.items():
            observed.setdefault(callee, []).extend(calls)

    findings: list[Finding] = []
    results: dict[str, FunctionResult] = {}
    for qn, fn in ctx.functions.items():
        params = _observed_params(fn, observed.get(qn)) if fn.is_internal else None
        interp = make_interp(ctx, summaries)
        res = interp.run(fn, params=params)
        findings.extend(res.findings)
        results[qn] = res
    return findings, results


def _observed_params(
    fn: FuncInfo, calls: Optional[list[tuple[list[Value], dict[str, Value]]]]
) -> Optional[dict[str, Value]]:
    if not calls:
        return None
    argnames = [a.arg for a in fn.node.args.posonlyargs + fn.node.args.args]
    if argnames and argnames[0] == "self":
        argnames = argnames[1:]
    joined: dict[str, Value] = {}
    complete: dict[str, bool] = {}
    for args, kwargs in calls:
        seen: dict[str, Value] = {}
        for i, v in enumerate(args):
            if i < len(argnames):
                seen[argnames[i]] = v
        seen.update({k: v for k, v in kwargs.items() if k in argnames})
        for name in argnames:
            if name in seen:
                if name in joined:
                    joined[name] = joined[name].join(seen[name])
                else:
                    joined[name] = seen[name]
                complete.setdefault(name, True)
            else:
                complete[name] = False
    # only refine parameters observed at every call site
    return {k: v for k, v in joined.items() if complete.get(k)} or None
