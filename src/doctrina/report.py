"""Structured pass/fail reports shared by every verification suite.

A report is a list of clauses.  Each clause counts the instances it
checked and keeps the first few failing witnesses (enumeration order is
deterministic everywhere in this package, so reports are byte-identical
across runs with the same configuration).  A witness given as a callable
is called only for a failure the clause keeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

MAX_WITNESSES = 5


@dataclass
class Clause:
    clause: str
    law: str
    instances: int = 0
    failures: int = 0
    witnesses: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(
        self, ok: bool, witness: str | Callable[[], str] = "", count: int = 1
    ) -> bool:
        """Record ``count`` checked instances with the verdict ``ok``; keep
        the witness of a failure while a slot is free, calling it first if
        it is a callable.  Passing instances are recorded in bulk with a
        count; a failing one is best checked on its own, so each keeps its
        witness slot."""
        self.instances += count
        if not ok:
            self.failures += count
            if len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(witness() if callable(witness) else witness)
        return ok

    def check_call(self, test: Callable[[], bool], witness: Callable[[], str], refusals) -> bool:
        """Record the verdict ``test()``; a ``refusals`` exception it raises
        is a failed instance whose witness ends with the reason."""
        try:
            ok, why = test(), ""
        except refusals as e:
            ok, why = False, f": {e}"
        return self.check(ok, lambda: witness() + why)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_record(self) -> dict:
        rec = {
            "clause": self.clause,
            "law": self.law,
            "instances": self.instances,
            "failures": self.failures,
            "witnesses": self.witnesses,
        }
        if self.notes:
            rec["notes"] = self.notes
        return rec


@dataclass
class Report:
    clauses: list[Clause] = field(default_factory=list)

    def clause(self, clause_id: str, law: str) -> Clause:
        c = Clause(clause_id, law)
        self.clauses.append(c)
        return c

    def extend(self, other: "Report") -> "Report":
        self.clauses.extend(other.clauses)
        return self

    def find(self, clause_id: str) -> Clause:
        for c in self.clauses:
            if c.clause == clause_id:
                return c
        raise KeyError(clause_id)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.clauses)

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(c.to_record(), sort_keys=True) for c in self.clauses
        )

    def summary(self) -> str:
        lines = []
        width = max((len(c.clause) for c in self.clauses), default=0)
        for c in self.clauses:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status}  {c.clause:<{width}}  instances={c.instances}"
            if c.failures:
                line += f" failures={c.failures} witness={c.witnesses[0]!r}"
            lines.append(line)
        lines.append(
            f"{'OK' if self.passed else 'FAILED'}: "
            f"{len(self.clauses)} clauses, {self.failures} failures"
        )
        return "\n".join(lines)
