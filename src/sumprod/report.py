"""Verification report objects shared by the checkers and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field


class ConstraintViolation(RuntimeError):
    """A size-vs-p hypothesis needed by a positive-characteristic bound fails."""


@dataclass
class VerificationReport:
    """One inequality check: exact sides, fitted constant, pass/fail."""

    lemma: str
    inputs: dict
    lhs: float
    rhs_shape: float
    fitted_constant: float
    slack: float
    passed: bool
    notes: str = ""
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs_shape": self.rhs_shape,
            "fitted_constant": self.fitted_constant,
            "slack": self.slack,
            "pass": self.passed,
            "notes": self.notes,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        return VerificationReport(
            lemma=d["lemma"], inputs=d["inputs"], lhs=d["lhs"],
            rhs_shape=d["rhs_shape"], fitted_constant=d["fitted_constant"],
            slack=d["slack"], passed=d["pass"], notes=d.get("notes", ""),
            elapsed_ms=d.get("elapsed_ms", 0.0))

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        return VerificationReport.from_dict(json.loads(text))


@dataclass
class ConstraintCheck:
    """One of the p-constraints (i)-(iv): product of set sizes vs p^2 or p^4."""

    constraint_id: str
    product: int
    budget: int
    margin: float = dc_field(init=False)
    satisfied: bool = dc_field(init=False)

    def __post_init__(self):
        self.satisfied = self.product <= self.budget
        self.margin = self.budget / self.product if self.product else float("inf")

    def to_dict(self) -> dict:
        return {
            "constraint": self.constraint_id,
            "product": self.product,
            "budget": self.budget,
            "margin": self.margin,
            "satisfied": self.satisfied,
        }
