"""Pass/fail report containers shared by the verification suites, and the one
status-line format that they and every section of ``qmds verify`` print in."""

from __future__ import annotations

from dataclasses import dataclass, field


def _status_lines(ok: bool, header: str, details=()) -> list[str]:
    """``[ok] header`` or ``[FAIL] header``, then each detail indented two spaces."""
    return [f"[{'ok' if ok else 'FAIL'}] {header}", *("  " + line for line in details)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        header = f"{self.name}: {self.detail}" if self.detail else self.name
        return _status_lines(self.passed, header)[0]


@dataclass
class CheckReport:
    title: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results.append(CheckResult(name, passed, detail))

    def lines(self) -> list[str]:
        """The report as ``qmds verify`` prints it: its status line, then one per result."""
        return _status_lines(self.ok, self.title, [r.line() for r in self.results])

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }
