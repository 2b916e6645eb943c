"""Pass/fail reports with failure witnesses.

Checks never throw on mathematical failure: a corrupted multiplication table
or a non-commuting square is reported, with the witness that exposed it, so
planted defects surface as data instead of crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    witness: object = None

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        return out


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, witness=None) -> None:
        self.checks.append(Check(name, bool(passed), None if passed else witness))

    def add_first(self, name: str, witnesses) -> bool:
        """Record the first witness ``witnesses`` yields as the failure, or a pass.

        Only the first item is drawn, so a generator stops at the first
        counterexample; witnesses must not be None.  Returns whether the
        check passed.
        """
        witness = next(iter(witnesses), None)
        self.add(name, witness is None, witness)
        return witness is None

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def merge(self, other: "Report") -> None:
        for c in other.checks:
            self.checks.append(Check("%s: %s" % (other.title, c.name), c.passed, c.witness))
        for k, v in other.data.items():
            self.data["%s: %s" % (other.title, k)] = v

    def to_json(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "data": _jsonable(self.data),
        }

    def summary(self) -> str:
        bad = self.failures()
        status = "pass" if not bad else "FAIL (%d)" % len(bad)
        return "%s: %s [%d checks]" % (self.title, status, len(self.checks))


def _jsonable(value):
    from fractions import Fraction

    from .scalars import scalar_to_json

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, Fraction)):
        return scalar_to_json(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(v) for v in items]
    return str(value)
