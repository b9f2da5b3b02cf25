"""Machine-checkable certificates: ordered lists of verified computational
steps with an overall verdict.

A step records a description, the boolean outcome, and (for golden
comparisons) string renderings of the expected and actual values.  The
verdict is the conjunction of all step checks, and false for a certificate
with no steps; re-running a certificate is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def render_value(value) -> str:
    """Human-readable rendering; tuples and lists flatten item-wise."""
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(render_value(v) for v in value) + ")"
    return str(value)


@dataclass
class Step:
    description: str
    check: bool
    expected: str | None = None
    actual: str | None = None

    def as_dict(self) -> dict:
        return {
            "step": self.description,
            "check": self.check,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass
class Certificate:
    title: str
    steps: list[Step] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict, repr=False)

    @property
    def verdict(self) -> bool:
        return bool(self.steps) and all(s.check for s in self.steps)

    def check(self, description: str, ok: bool, expected=None, actual=None) -> bool:
        """Record one boolean check."""
        self.steps.append(
            Step(
                description,
                bool(ok),
                None if expected is None else render_value(expected),
                None if actual is None else render_value(actual),
            )
        )
        return bool(ok)

    def expect_equal(self, description: str, expected, actual) -> bool:
        """Record an exact comparison of two values."""
        ok = expected == actual
        self.steps.append(
            Step(description, bool(ok), render_value(expected), render_value(actual))
        )
        return bool(ok)

    def merge(self, other: "Certificate", prefix: str | None = None) -> None:
        """Append another certificate's steps, optionally prefixed."""
        pre = f"{prefix}: " if prefix else ""
        for s in other.steps:
            self.steps.append(Step(pre + s.description, s.check, s.expected, s.actual))

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "verdict": self.verdict,
            "steps": [s.as_dict() for s in self.steps],
        }

    def render(self) -> str:
        lines = [f"certificate: {self.title}"]
        for s in self.steps:
            mark = "ok" if s.check else "FAIL"
            line = f"  [{mark:4}] {s.description}"
            if s.expected is not None or s.actual is not None:
                line += f"  (expected {s.expected}, got {s.actual})"
            lines.append(line)
        passed = sum(1 for s in self.steps if s.check)
        status = "PASS" if self.verdict else "FAIL"
        lines.append(f"verdict: {status} ({passed}/{len(self.steps)} checks)")
        return "\n".join(lines)
