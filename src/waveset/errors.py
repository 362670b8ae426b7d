"""The one verdict shape, and the exceptions shared across the package."""

from __future__ import annotations


class Verdict:
    """What every decider answers: ``witnesses``, one (reason, interval or lattice point or
    None) pair per failure found, none on a yes, and ``status``, "fail" when there are
    witnesses and "pass" otherwise unless a result names its own.  The CLI prints just these."""

    witnesses: tuple = ()

    @property
    def status(self) -> str:
        return "fail" if self.witnesses else "pass"


class InputError(ValueError, Verdict):
    """Malformed or out-of-contract input (CLI exit code 2), with an interval showing it."""

    status = "error"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

    @property
    def witnesses(self) -> tuple:
        return (str(self), self.witness),


class PreconditionError(InputError):
    """A documented precondition failed: its reason leads with the condition's name."""

    def __init__(self, condition: str, message: str, witness=None):
        super().__init__(message, witness)
        self.condition = condition

    @property
    def witnesses(self) -> tuple:
        return (f"{self.condition}: {self}", self.witness),


class InconsistentSpectrumError(InputError):
    """Spectrum arithmetic produced an impossible value (negative squared modulus)."""
