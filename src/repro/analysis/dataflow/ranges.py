"""SZL101/SZL102: dataflow value-range proofs for quantized arithmetic.

``SZL101`` upgrades the syntactic SZL001: an int64 arithmetic result
involving a quantized plane is flagged only when the engine cannot prove
the result interval fits int64 — a kernel guarded by the
``ensure_quantized_range`` idiom (``peak = max(x.max(), -x.min()) + |y|;
if peak >= Q_LIMIT: raise``, or the same with ``|x|.max()``) is *proven*
safe and needs no suppression.

``SZL102`` upgrades the syntactic SZL002 for casts: ``x.astype(int64)``
on a float value is flagged unless the engine proved both finiteness and
a bound within int64.  Finiteness comes from an ``np.all(np.isfinite(x))``
guard, or from ``x.max() < bound and x.min() > -bound`` holding (``max``
and ``min`` propagate NaN, and NaN fails every ordered comparison); a
guard that raises when ``np.abs(x).max() >= bound`` bounds ``x`` but lets
NaN through, so it needs the ``isfinite`` arm as well.
"""

from __future__ import annotations

import ast
from typing import Mapping, Optional, Union

from repro.analysis.dataflow.engine import Interpreter, ModuleContext, analyze_module
from repro.analysis.dataflow.lattice import KIND_FLOAT, Interval, Value
from repro.analysis.findings import Finding

__all__ = ["range_findings", "RangesPass"]

_OP_SYMBOL = {"Add": "+", "Sub": "-", "Mult": "*", "Pow": "**", "LShift": "<<"}


def _fmt_bound(b: Union[int, float, None], *, low: bool = False) -> str:
    if b is None:
        return "-inf" if low else "inf"
    if isinstance(b, int) and abs(b) >= 1 << 16:
        sign = "-" if b < 0 else ""
        mag = abs(b)
        if mag & (mag - 1) == 0:
            return f"{sign}2^{mag.bit_length() - 1}"
    return str(b)


def _fmt(itv: Interval) -> str:
    if itv.empty:
        return "[]"
    return f"[{_fmt_bound(itv.lo, low=True)}, {_fmt_bound(itv.hi)}]"


class RangesPass(Interpreter):
    """Value-range + dtype lattice pass (SZL101, SZL102)."""

    def check_int_arith(
        self,
        node: ast.AST,
        opname: str,
        lv: Value,
        rv: Value,
        itv: Interval,
        state: object,
    ) -> None:
        if itv.empty or itv.fits_int64():
            return
        if not (lv.quantized or rv.quantized):
            return
        sym = _OP_SYMBOL.get(opname, opname)
        self.report(
            "SZL101",
            node,
            f"quantized int64 `{sym}` may overflow: result range "
            f"{_fmt(lv.itv)} {sym} {_fmt(rv.itv)} is not provably within int64",
            hint=(
                "guard the peak magnitude before the operation "
                "(`peak = max(int(x.max()), -int(x.min())) + abs(y); "
                "if peak >= int(Q_LIMIT): raise`, "
                "as in ensure_quantized_range) or widen to float64/python int "
                "first"
            ),
        )

    def check_cast(self, node: ast.AST, src: Value, dst_kind: str, state: object) -> None:
        if src.kind != KIND_FLOAT or src.itv.empty:
            return
        if src.finite and src.itv.fits_int64():
            return
        if not src.finite:
            why = "the value is not proven finite (NaN/inf casts are undefined)"
            how = (
                "reject non-finite input first: `if not np.all(np.isfinite(x)): raise`, "
                "or `if not (x.max() < L and x.min() > -L): raise`"
            )
        else:
            why = f"the value range {_fmt(src.itv)} is not provably within int64"
            how = "bound the magnitude first: `if np.abs(x).max() >= float(Q_LIMIT): raise`"
        self.report(
            "SZL102",
            node,
            f"float → int64 cast is unguarded: {why}",
            hint=f"{how}; a guard raising on `x >= L` alone lets NaN through",
        )


def range_findings(
    source_path: str,
    source: str,
    tree: Optional[ast.Module] = None,
    ctx: Optional[ModuleContext] = None,
) -> list[Finding]:
    """Run the value-range pass over one module's source.

    ``tree``/``ctx`` let the driver share one parse and one module index
    across every pass over the same file.
    """
    if tree is None:
        try:
            tree = ast.parse(source, filename=source_path)
        except SyntaxError:
            return []

    def make(c: ModuleContext, summaries: Mapping[str, Value]) -> Interpreter:
        return RangesPass(c, summaries, source_path=source_path)

    findings, _ = analyze_module(source_path, tree, make, ctx=ctx)
    return findings
