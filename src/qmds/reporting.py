"""The check record every verification suite returns, and the one status-line
format that it and every section of ``qmds verify`` print in."""

from __future__ import annotations

from dataclasses import dataclass


def status_line(ok: bool, text: str) -> str:
    """``[ok] text`` or ``[FAIL] text``."""
    return f"[{'ok' if ok else 'FAIL'}] {text}"


@dataclass(frozen=True)
class Check:
    """One verified claim: its outcome, its title and its finished detail lines."""

    ok: bool
    title: str
    details: tuple[str, ...]

    def lines(self) -> list[str]:
        """The block ``qmds verify`` prints: the status line, then each detail indented."""
        return [status_line(self.ok, self.title), *("  " + line for line in self.details)]
