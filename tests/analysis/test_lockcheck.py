"""LCK001: lock-discipline verification on guarded attributes.

LCK001 is a check on the lock-order pass's held-lock walk
(:mod:`repro.analysis.dataflow.lockorder`), so these cases drive that
pass; the declaration reader it shares with ASY001 is tested here too.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.dataflow import lockorder_findings


def lock_findings(source: str, path: str) -> list:
    return lockorder_findings({path: source})

GUARDED_CACHE = textwrap.dedent(
    """
    import threading

    class Cache:
        _GUARDED_ATTRS = ("_entries", "_nbytes")

        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}
            self._nbytes = 0

        def put(self, key, value, size):
            with self._lock:
                self._entries[key] = value
                self._nbytes += size

        def clear(self):
            with self._lock:
                self._entries.clear()
                self._nbytes = 0
    """
)


UNGUARDED_CACHE = textwrap.dedent(
    """
    import threading

    class Cache:
        _GUARDED_ATTRS = ("_entries", "_nbytes")

        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}
            self._nbytes = 0

        def put(self, key, value, size):
            self._entries[key] = value
            self._nbytes += size
    """
)


def test_guarded_class_is_clean() -> None:
    assert lock_findings(GUARDED_CACHE, "cache.py") == []


def test_unguarded_mutation_is_caught() -> None:
    findings = lock_findings(UNGUARDED_CACHE, "cache.py")
    assert findings, "deliberately unguarded mutation must be flagged"
    assert all(f.rule == "LCK001" for f in findings)
    assert any("_entries" in f.message for f in findings)
    assert any("_nbytes" in f.message for f in findings)


def test_init_is_exempt() -> None:
    # __init__ publishes the object before any concurrent access exists,
    # so its unlocked stores to _entries/_nbytes must not be findings.
    findings = lock_findings(GUARDED_CACHE, "cache.py")
    assert findings == []


def test_mutating_method_call_is_caught() -> None:
    src = GUARDED_CACHE + textwrap.dedent(
        """
        class Leaky(Cache):
            _GUARDED_ATTRS = ("_entries",)

            def __init__(self):
                super().__init__()

            def drop(self, key):
                self._entries.pop(key, None)
        """
    )
    findings = lock_findings(src, "cache.py")
    assert [f.rule for f in findings] == ["LCK001"]
    assert "pop" in findings[0].message or "_entries" in findings[0].message


def test_locked_suffix_method_exempt_but_call_site_checked() -> None:
    src = textwrap.dedent(
        """
        import threading

        class Store:
            _GUARDED_ATTRS = ("_items",)

            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def _append_locked(self, item):
                self._items.append(item)

            def add_ok(self, item):
                with self._lock:
                    self._append_locked(item)

            def add_bad(self, item):
                self._append_locked(item)
        """
    )
    findings = lock_findings(src, "store.py")
    assert len(findings) == 1
    assert findings[0].rule == "LCK001"
    assert "add_bad" in findings[0].message or "_append_locked" in findings[0].message


def test_empty_guarded_attrs_is_a_finding() -> None:
    src = "class C:\n    _GUARDED_ATTRS = ()\n"
    findings = lock_findings(src, "c.py")
    assert [f.rule for f in findings] == ["LCK001"]
    assert "non-empty" in findings[0].message


def test_class_without_declaration_is_skipped() -> None:
    src = "class C:\n    def poke(self):\n        self._entries = {}\n"
    assert lock_findings(src, "c.py") == []


def test_every_class_is_checked_nested_and_same_named_ones_too() -> None:
    nested = "def make():\n" + textwrap.indent(UNGUARDED_CACHE, "    ")
    findings = lockorder_findings({"a.py": UNGUARDED_CACHE, "b.py": nested})
    assert {(f.rule, f.path) for f in findings} == {
        ("LCK001", "a.py"),
        ("LCK001", "b.py"),
    }


_ASYNC_COUNTER = textwrap.dedent(
    """
    import asyncio

    class Counter:
        _GUARDED_ATTRS = {decl}

        def __init__(self) -> None:
            self._total = 0

        async def bump(self) -> None:
            base = self._total
            await asyncio.sleep(0)
            self._total = base + 1
    """
)


def test_malformed_guarded_attrs_is_one_lck001_and_guards_nothing(
    tmp_path: Path,
) -> None:
    target = tmp_path / "counter.py"
    target.write_text(_ASYNC_COUNTER.format(decl='("_total", 3)'))
    findings = analyze_paths([target])
    # reported once, at the declaration; ASY001 reads the same (empty) set
    assert [(f.rule, f.line) for f in findings] == [("LCK001", 5)]
    assert "non-empty" in findings[0].message


def test_asy001_reads_the_declared_guarded_attrs(tmp_path: Path) -> None:
    target = tmp_path / "counter.py"
    target.write_text(_ASYNC_COUNTER.format(decl='("_total",)'))
    assert [f.rule for f in analyze_paths([target])] == ["ASY001"]


def test_shipped_runtime_and_parallel_layers_are_clean(package_report) -> None:
    assert package_report.rendered({"LCK001", "LCK002"}) == ""
