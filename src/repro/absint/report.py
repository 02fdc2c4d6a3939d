"""Text and JSON renderings of an :class:`~repro.absint.engine.AbsIntResult`.

Backs ``ermes analyze``: :func:`format_result` is the human-readable
report, :func:`result_to_dict` the JSON document (stable key order,
plain types only).  Both are pure functions of the result, so two IRs
with the same structural hash render byte-identically.
"""

from __future__ import annotations

from repro.absint.engine import AbsIntResult


def format_result(result: AbsIntResult) -> str:
    """The multi-line ``ermes analyze`` static-analysis report."""
    lines = [
        f"static analysis of {result.system_name!r} "
        f"(ir {result.ir_hash[:12]}...)",
    ]
    if result.bounds:
        lines.append("  occupancy bounds:")
        for bound in result.bounds:
            provisioning = ""
            if bound.hi < bound.declared_capacity:
                provisioning = (
                    f"  <- over-provisioned (declared "
                    f"{bound.declared_capacity})"
                )
            lines.append(
                f"    {bound.channel}: {bound.format()} of "
                f"{bound.effective_capacity}{provisioning}"
            )
    else:
        lines.append("  occupancy bounds: none (no buffered channels)")
    if result.invariants:
        lines.append("  invariants:")
        process_cycles = [
            inv for inv in result.invariants if inv.kind == "process-cycle"
        ]
        if process_cycles:
            lines.append(
                f"    [process-cycle] {len(process_cycles)} process "
                "chain(s), each carrying exactly one token under every "
                "firing sequence"
            )
        for invariant in result.invariants:
            if invariant.kind == "process-cycle":
                continue
            lines.append(
                f"    [{invariant.kind}] {invariant.subject}: "
                f"{invariant.detail}"
            )
    if result.dead_channels:
        lines.append(
            "  dead channels: " + ", ".join(result.dead_channels)
        )
    if result.unreachable_ops:
        lines.append("  unreachable statements:")
        for op in result.unreachable_ops:
            subject = f" {op.channel}" if op.channel else ""
            lines.append(
                f"    {op.process}[{op.index}]: {op.kind}{subject}"
            )
    if result.certificate is not None:
        lines.append(
            "  deadlock-freedom: CERTIFIED "
            f"(method {result.certificate.method}, "
            f"{len(result.certificate.ranks)} ranked transitions)"
        )
    else:
        cycle = " -> ".join(result.token_free_cycle or ())
        lines.append(
            f"  deadlock-freedom: REFUTED (token-free cycle: {cycle})"
        )
    return "\n".join(lines) + "\n"


def result_to_dict(result: AbsIntResult) -> dict[str, object]:
    """The JSON-safe document of ``ermes analyze --format json``."""
    return {
        "system": result.system_name,
        "ir_hash": result.ir_hash,
        "deadlock_free": result.deadlock_free,
        "bounds": [
            {
                "channel": bound.channel,
                "declared_capacity": bound.declared_capacity,
                "effective_capacity": bound.effective_capacity,
                "initial_tokens": bound.initial_tokens,
                "lo": bound.lo,
                "hi": bound.hi,
            }
            for bound in result.bounds
        ],
        "invariants": [
            {
                "kind": invariant.kind,
                "subject": invariant.subject,
                "tokens": invariant.tokens,
                "detail": invariant.detail,
            }
            for invariant in result.invariants
        ],
        "dead_channels": list(result.dead_channels),
        "unreachable_ops": [
            {
                "process": op.process,
                "index": op.index,
                "kind": op.kind,
                "channel": op.channel,
            }
            for op in result.unreachable_ops
        ],
        "certificate": (
            result.certificate.to_dict()
            if result.certificate is not None
            else None
        ),
        "token_free_cycle": (
            list(result.token_free_cycle)
            if result.token_free_cycle is not None
            else None
        ),
    }
