"""Check/report containers shared by the verification suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Check:
    """One measured quantity against its bound.

    `statement` names the mathematical identity or estimate being exercised
    so a failed check is self-describing.
    """

    id: str
    description: str
    measured: float
    bound: float
    statement: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.bound)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "measured": float(self.measured),
            "bound": float(self.bound),
            "pass": self.passed,
            "statement": self.statement,
        }


@dataclass
class VerifyReport:
    """Checks of one suite, or of several merged by `extend`; `suites` maps
    each suite of a merged run to its wall time."""

    suite: str
    checks: list[Check] = field(default_factory=list)
    wall_time_ms: int = 0
    suites: dict[str, int] = field(default_factory=dict)

    def add(
        self,
        id: str,
        description: str,
        measured: float,
        bound: float,
        statement: str = "",
    ) -> Check:
        check = Check(id, description, float(measured), float(bound), statement)
        self.checks.append(check)
        return check

    def extend(self, other: "VerifyReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.as_dict() for c in self.checks],
            "wall_time_ms": int(self.wall_time_ms),
            "suites": self.suites or {self.suite: int(self.wall_time_ms)},
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{status}] {c.id}: {c.description} "
                f"(measured={c.measured:.6g}, bound={c.bound:.6g})"
            )
        return lines


def format_float(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
