"""LCK001 / LCK002: lock discipline and lock-order verification.

One lexical walk of every method, with a stack of held locks, serves two
rules.

**LCK001 (lock discipline).**  Shared mutable state — the decoded-block
cache's LRU dict and byte counter, the executor's pool handle, the
service store's index — must only change under its owner's lock.  A
mutation outside it is a data race no unit test reliably catches.
Classes opt in by declaring the attributes ``self._lock`` guards::

    class DecodedBlockCache:
        _GUARDED_ATTRS = ("_entries", "_nbytes", "stats")

Every assignment, augmented assignment or deletion of ``self.<attr>``
(or a subscript or sub-attribute of it), and every mutating method call
(``append``, ``pop``, ``update``, ...) on it, must then sit lexically
inside ``with self._lock:``.  ``__init__`` is exempt (no other thread
holds a reference yet), and so are ``*_locked`` methods — the suffix
promises the caller holds the lock, so a *call* to one outside the lock
is itself a finding.  A nested ``def`` holds nothing: a closure may
escape the block that created it.  A declaration that is not a
non-empty tuple of literal strings is reported and guards nothing.

**LCK002 (lock order).**  Two classes whose methods call into each other
while holding their own locks can deadlock even though each class is
individually correct.  The walk builds the **acquires-while-holding**
relation across every analyzed file:

* a lock is identified as ``(ClassName, attr)`` for every instance
  attribute assigned ``threading.Lock()``;
* acquiring ``B`` while holding ``A`` adds the edge ``A → B``;
* self-calls (``self.helper()``) and calls through constructor-typed
  attributes (``self._cache = BlockCache(...)`` in ``__init__`` followed
  by ``self._cache.get()``) propagate the callee's transitive
  acquisitions to the call site, so an edge is found even when the two
  ``with`` statements live in different methods or classes;
* a cycle in the resulting graph — including the self-cycle of acquiring
  a ``threading.Lock`` already held, which self-deadlocks because the
  lock is not reentrant — is reported as LCK002.

Both rules are lexical and therefore conservative in a *bounded* way:
LCK001 cannot prove the *right* lock is held across helper boundaries,
but catches the failure that actually occurs — a mutation written
without thinking about the lock at all; LCK002 only resolves receivers
it can type (``self`` and ctor-typed attributes), so it cannot invent
edges between unrelated locks, and every reported cycle corresponds to
a concrete call path in the analyzed source.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping, Optional

from repro.analysis.findings import Finding

__all__ = ["guarded_attrs", "lockorder_findings"]

#: A lock identity: (class name, instance attribute name).
LockId = tuple[str, str]

#: The attribute the ``with self.<lock>:`` block must use for LCK001.
_LOCK_ATTR = "_lock"

#: Method names on a guarded attribute that mutate it in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "move_to_end",
        "record",
        "increment",
        "sort",
        "reverse",
    }
)


def guarded_attrs(cls: ast.ClassDef) -> Optional[tuple[int, frozenset[str]]]:
    """``(line, attrs)`` of the class's ``_GUARDED_ATTRS`` declaration.

    ``None`` when the class declares nothing.  A declaration that is not
    a non-empty tuple/list of literal strings reads as guarding nothing
    (LCK001 reports it at ``line``); ASY001 reads the same set.
    """
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_GUARDED_ATTRS" for t in node.targets
        ):
            value = node.value
            elts = value.elts if isinstance(value, (ast.Tuple, ast.List)) else []
            names = [
                e.value
                for e in elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            # one non-literal element makes the whole declaration malformed
            return node.lineno, frozenset(names if len(names) == len(elts) else ())
    return None


def _is_lock_ctor(node: ast.expr) -> bool:
    """``threading.Lock()`` (the non-reentrant kind only — RLock cannot
    self-deadlock and is excluded from the self-cycle rule)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "Lock":
        return True
    if isinstance(func, ast.Name) and func.id == "Lock":
        return True
    return False


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` → attr name, else ``None``."""
    if isinstance(node, ast.Attribute) and _is_self(node.value):
        return node.attr
    return None


def _mutated_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>``, ``self.<attr>[...]``, ``self.<attr>.<sub>`` → attr."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    return _self_attr(node) or _mutated_attr(node.value)


class _ClassInfo:
    """Everything the pass needs to know about one class."""

    def __init__(self, path: str, node: ast.ClassDef) -> None:
        self.path = path
        self.name = node.name
        self.methods: dict[str, ast.FunctionDef] = {}
        self.lock_attrs: set[str] = set()
        #: ``self.X = C(...)`` in ``__init__`` → ``{X: C}``; lets the walk
        #: type method calls through composed objects.
        self.attr_ctor: dict[str, str] = {}
        self.decl = guarded_attrs(node)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                self.methods[stmt.name] = stmt
        for meth in self.methods.values():
            for sub in ast.walk(meth):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if _is_lock_ctor(sub.value):
                        self.lock_attrs.add(attr)
                    elif (
                        meth.name == "__init__"
                        and isinstance(sub.value, ast.Call)
                        and isinstance(sub.value.func, ast.Name)
                    ):
                        self.attr_ctor[attr] = sub.value.func.id


class _Walker:
    """Lexical walk of one method with a held-lock stack.

    ``order`` feeds the LCK002 graph; ``guarded`` (``None`` = off) is the
    attribute set LCK001 checks against ``with self._lock:`` nesting.
    """

    def __init__(
        self,
        pass_: "_LockOrderPass",
        cls: _ClassInfo,
        meth: str,
        order: bool,
        guarded: Optional[frozenset[str]],
    ) -> None:
        self.pass_ = pass_
        self.cls = cls
        self.meth = meth
        self.order = order
        self.guarded = guarded
        self.held: list[LockId] = []
        #: nesting depth of ``with self._lock:`` (LCK001)
        self.guard_depth = 0
        #: Locks this method acquires directly (seed for the fixpoint).
        self.acquired: set[LockId] = set()
        #: Deferred call sites: (held snapshot, callee qualname, lineno).
        self.calls: list[tuple[tuple[LockId, ...], str, int]] = []

    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With):
            self._walk_with(stmt)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_nested(stmt)
            return
        self._check_mutation(stmt)
        for expr in _stmt_exprs(stmt):
            self._scan_calls(expr)
        for body in _stmt_bodies(stmt):
            self.walk_body(body)

    def _walk_nested(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # A nested def runs later under an unknown lock set: it adds no
        # LCK002 edges, and LCK001 treats it as holding nothing.
        if self.guarded is None:
            return
        saved = (self.order, self.held, self.guard_depth)
        self.order, self.held, self.guard_depth = False, [], 0
        self.walk_body(fn.body)
        self.order, self.held, self.guard_depth = saved

    def _walk_with(self, stmt: ast.With) -> None:
        pushed = guards = 0
        for item in stmt.items:
            expr = item.context_expr
            self._scan_calls(expr)
            if _self_attr(expr) == _LOCK_ATTR:
                guards += 1
            lock = self._lock_of(expr)
            if lock is not None:
                if self.order:
                    self.pass_.note_acquire(self, lock, expr.lineno)
                self.held.append(lock)
                pushed += 1
        self.guard_depth += guards
        self.walk_body(stmt.body)
        self.guard_depth -= guards
        del self.held[len(self.held) - pushed :]

    def _lock_of(self, expr: ast.expr) -> Optional[LockId]:
        attr = _self_attr(expr)
        if attr is not None and attr in self.cls.lock_attrs:
            return (self.cls.name, attr)
        return None

    def _scan_calls(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            self._check_call(node)
            if self.order:
                qual = self._callee_qualname(node.func)
                if qual is not None:
                    self.calls.append((tuple(self.held), qual, node.lineno))

    def _callee_qualname(self, func: ast.expr) -> Optional[str]:
        """``self.m`` → ``Cls.m``; ``self.X.m`` with typed ``X`` → ``C.m``."""
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        attr = _self_attr(recv)
        if _is_self(recv):
            return f"{self.cls.name}.{func.attr}"
        if attr is not None and attr in self.cls.attr_ctor:
            ctor = self.cls.attr_ctor[attr]
            return f"{ctor}.{func.attr}"
        return None

    # ------------------------------------------------------------- LCK001

    def _unguarded(self) -> frozenset[str]:
        """Attributes a mutation here would touch unguarded (LCK001)."""
        if self.guarded is None or self.guard_depth:
            return frozenset()
        return self.guarded

    def _check_mutation(self, stmt: ast.stmt) -> None:
        guarded = self._unguarded()
        if not guarded:
            return
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, what = stmt.targets, "assignment"
        elif isinstance(stmt, ast.AugAssign):
            targets, what = [stmt.target], "augmented assignment"
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, what = [stmt.target], "assignment"
        elif isinstance(stmt, ast.Delete):
            targets, what = stmt.targets, "deletion"
        else:
            return
        for target in targets:
            attr = _mutated_attr(target)
            if attr is not None and attr in guarded:
                self._report(stmt, attr, what)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        guarded = self._unguarded()
        if not guarded or not isinstance(func, ast.Attribute):
            return
        # self.<attr>...<mutator>(...) mutates a guarded attribute.
        if func.attr in _MUTATOR_METHODS:
            attr = _mutated_attr(func.value)
            if attr is not None and attr in guarded:
                self._report(node, attr, f"mutating call .{func.attr}()")
        # self.<helper>_locked(...) promises the caller holds the lock.
        elif func.attr.endswith("_locked") and _is_self(func.value):
            self.pass_.findings.append(
                Finding(
                    rule="LCK001",
                    path=self.cls.path,
                    line=node.lineno,
                    message=(
                        f"call to {self.cls.name}.{func.attr}() outside "
                        f"'with self.{_LOCK_ATTR}:'; the _locked "
                        "suffix promises the caller holds the lock"
                    ),
                    hint="take the lock around the call, or rename the "
                    "helper if it does not touch guarded state",
                )
            )

    def _report(self, node: ast.AST, attr: str, what: str) -> None:
        self.pass_.findings.append(
            Finding(
                rule="LCK001",
                path=self.cls.path,
                line=getattr(node, "lineno", 0),
                message=(
                    f"{what} of guarded attribute {attr!r} in "
                    f"{self.cls.name}.{self.meth} outside "
                    f"'with self.{_LOCK_ATTR}:'"
                ),
                hint=f"wrap the mutation in 'with self.{_LOCK_ATTR}:', or "
                "move it into a *_locked helper called under the lock",
            )
        )


def _stmt_bodies(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    for field in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field, None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            yield body
    for handler in getattr(stmt, "handlers", []) or []:
        yield handler.body
    for case in getattr(stmt, "cases", []) or []:
        yield case.body


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    for field, value in ast.iter_fields(stmt):
        if field in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item


class _LockOrderPass:
    def __init__(self) -> None:
        #: top-level classes by name: the receivers LCK002 can type
        self.classes: dict[str, _ClassInfo] = {}
        #: every class of every module, nested ones included (LCK001)
        self.infos: list[_ClassInfo] = []
        #: edge (A, B) = "B acquired while holding A" → first site seen.
        self.edges: dict[tuple[LockId, LockId], tuple[str, int]] = {}
        self.findings: list[Finding] = []
        #: direct acquisitions per method qualname (fixpoint seed).
        self.method_acquires: dict[str, set[LockId]] = {}
        self.method_calls: dict[str, set[str]] = {}
        self.call_sites: list[tuple[str, tuple[LockId, ...], str, int]] = []

    # ------------------------------------------------------------ collection

    def add_module(self, path: str, tree: ast.Module) -> None:
        top = {id(stmt) for stmt in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = _ClassInfo(path, node)
                self.infos.append(info)
                if id(node) in top:
                    self.classes[node.name] = info

    def note_acquire(self, walker: _Walker, lock: LockId, lineno: int) -> None:
        walker.acquired.add(lock)
        path = walker.cls.path
        if lock in walker.held:
            self.findings.append(
                Finding(
                    rule="LCK002",
                    path=path,
                    line=lineno,
                    message=(
                        f"self-deadlock: {lock[0]}.{lock[1]} is acquired while "
                        "already held on this path (threading.Lock is not "
                        "reentrant)"
                    ),
                    hint="restructure so the inner code runs lock-free, or "
                    "split the guarded state",
                )
            )
            return
        for held in walker.held:
            self.edges.setdefault((held, lock), (path, lineno))

    def analyze(self) -> None:
        for cls in self.infos:
            guarded = self._declared(cls)
            # a class shadowed by a same-named later one is not typeable
            order = self.classes.get(cls.name) is cls
            for name, meth in cls.methods.items():
                exempt = name == "__init__" or name.endswith("_locked")
                check = None if exempt else guarded
                if not order and check is None:
                    continue
                walker = _Walker(self, cls, name, order, check)
                walker.walk_body(meth.body)
                if not order:
                    continue
                qual = f"{cls.name}.{name}"
                self.method_acquires[qual] = set(walker.acquired)
                self.method_calls[qual] = {
                    callee for _, callee, _ in walker.calls
                }
                for held, callee, lineno in walker.calls:
                    self.call_sites.append((cls.path, held, callee, lineno))
        self._propagate()
        self._find_cycles()

    def _declared(self, cls: _ClassInfo) -> Optional[frozenset[str]]:
        """LCK001's attribute set for ``cls``; reports a malformed one."""
        if cls.decl is None:
            return None
        line, attrs = cls.decl
        if attrs:
            return attrs
        self.findings.append(
            Finding(
                rule="LCK001",
                path=cls.path,
                line=line,
                message=f"{cls.name}._GUARDED_ATTRS must be a non-empty "
                "tuple of literal attribute-name strings",
                hint="declare the attributes self._lock guards, e.g. "
                '_GUARDED_ATTRS = ("_entries", "_nbytes")',
            )
        )
        return None

    # -------------------------------------------------------------- fixpoint

    def _propagate(self) -> None:
        """Push callee acquisitions up to call sites until stable.

        A call to ``C.m`` transitively acquires whatever ``C.m`` acquires;
        iterating lets chains (``A.f`` → ``B.g`` → ``C.h``) converge.  The
        lattice is finite (subsets of lock ids), so this terminates.
        """
        changed = True
        while changed:
            changed = False
            for qual, callees in self.method_calls.items():
                acq = self.method_acquires.setdefault(qual, set())
                for callee in callees:
                    if not self._known_method(callee):
                        continue
                    extra = self.method_acquires.get(callee, set())
                    if not extra <= acq:
                        acq |= extra
                        changed = True
        # Now close call sites that held locks over a resolvable callee.
        for path, held, callee, lineno in self.call_sites:
            if not held or not self._known_method(callee):
                continue
            for lock in self.method_acquires.get(callee, set()):
                for h in held:
                    if h == lock:
                        self.findings.append(
                            Finding(
                                rule="LCK002",
                                path=path,
                                line=lineno,
                                message=(
                                    f"self-deadlock: call to {callee} acquires "
                                    f"{lock[0]}.{lock[1]} which is already "
                                    "held at this call site"
                                ),
                                hint="call the helper outside the lock, or "
                                "factor the locked region out of the helper",
                            )
                        )
                    else:
                        self.edges.setdefault((h, lock), (path, lineno))

    def _known_method(self, qual: str) -> bool:
        cls, _, meth = qual.partition(".")
        info = self.classes.get(cls)
        return info is not None and meth in info.methods

    # ---------------------------------------------------------------- cycles

    def _find_cycles(self) -> None:
        graph: dict[LockId, list[LockId]] = {}
        for (a, b) in self.edges:
            graph.setdefault(a, []).append(b)
        reported: set[tuple[LockId, ...]] = set()
        color: dict[LockId, int] = {}
        stack: list[LockId] = []

        def visit(node: LockId) -> None:
            color[node] = 1
            stack.append(node)
            for succ in graph.get(node, []):
                if color.get(succ, 0) == 0:
                    visit(succ)
                elif color.get(succ) == 1:
                    cycle = tuple(stack[stack.index(succ) :])
                    self._report_cycle(cycle, reported)
            stack.pop()
            color[node] = 2

        for node in sorted(graph):
            if color.get(node, 0) == 0:
                visit(node)

    def _report_cycle(
        self, cycle: tuple[LockId, ...], reported: set[tuple[LockId, ...]]
    ) -> None:
        # Canonicalize by rotating the smallest lock id to the front so a
        # cycle is reported once regardless of DFS entry point.
        pivot = cycle.index(min(cycle))
        canon = cycle[pivot:] + cycle[:pivot]
        if canon in reported:
            return
        reported.add(canon)
        # Anchor at the edge closing the cycle back to the first lock.
        closing = (canon[-1], canon[0])
        path, line = self.edges.get(closing, (self.classes_path_fallback(), 0))
        order = " -> ".join(f"{c}.{a}" for c, a in canon + (canon[0],))
        self.findings.append(
            Finding(
                rule="LCK002",
                path=path,
                line=line,
                message=f"lock-order cycle: {order} can deadlock",
                hint="pick one global acquisition order for these locks and "
                "restructure the call that violates it",
            )
        )

    def classes_path_fallback(self) -> str:
        for cls in self.classes.values():
            return cls.path
        return "<unknown>"


def lockorder_findings(
    sources: Mapping[str, str],
    trees: Optional[Mapping[str, ast.Module]] = None,
) -> list[Finding]:
    """LCK001 and LCK002 over a set of modules (path → source).

    ``trees`` supplies already-parsed modules keyed by the same paths so
    the driver's single parse is shared; missing entries are parsed here.
    """
    pass_ = _LockOrderPass()
    for path, source in sources.items():
        tree = trees.get(path) if trees is not None else None
        if tree is None:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
        pass_.add_module(path, tree)
    pass_.analyze()
    return pass_.findings
