"""Exception hierarchy for the factor-witness engine.

Everything raised deliberately by this package derives from EngineError,
so callers can catch one type at the boundary.  The command line layer
maps the leaf types onto distinct exit codes.

An exception pickles as its type and args, which here hold the message
alone, so each error with its own constructor arguments rebuilds itself
from them (__reduce__): a pooled sweep's worker pipes the error of its
span to the caller as a pickle.
"""

from __future__ import annotations

class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EngineError):
    """A parameter combination is malformed (bad range, bad worker count, ...)."""


class PreconditionError(EngineError):
    """An argument violates a documented precondition of a single call."""


class OutOfRangeError(PreconditionError):
    """A value lies outside the domain of a lookup table."""


class CoverageError(EngineError):
    """The prime table is too small for the requested computation."""


class ProofViolationError(EngineError):
    """A step of the constructive argument failed its inequality check.

    This should be unreachable for correct inputs; seeing it means either
    the tables are corrupt or the mathematics has been falsified.  The
    offending inequality is kept verbatim in ``detail``.
    """

    def __init__(self, detail: str):
        super().__init__(f"proof step violated: {detail}")
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.detail,)


class CounterexampleFoundError(EngineError):
    """A sweep found (n, k) pairs where every n - p_i has only small factors.

    Raised only under fail-fast; a plain sweep records the pairs in the
    summary instead.
    """

    def __init__(self, pairs):
        self.pairs = list(pairs)
        head = ", ".join(f"(n={n}, k={k})" for n, k in self.pairs[:5])
        super().__init__(f"counterexample candidates found: {head}")

    def __reduce__(self):
        return type(self), (self.pairs,)


class AnomalyFoundError(EngineError):
    """A sweep hit n - p_i == 1, which has no prime factor at all."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        head = ", ".join(f"(n={n}, i={i})" for n, i in self.pairs[:5])
        super().__init__(f"unit anomaly: n - p_i = 1 at {head}")

    def __reduce__(self):
        return type(self), (self.pairs,)


class GoldbachCounterexampleError(EngineError):
    """No odd prime p < n has n - p prime.

    Carries whatever evidence the descent produced: either a constructed
    prime contradicting the maximality of the scanned prefix, or the raw
    factor list showing the witness property failed as well.
    """

    def __init__(self, n: int, detail: str, evidence=None):
        super().__init__(f"no two-prime decomposition for n={n}: {detail}")
        self.n = n
        self.detail = detail
        self.evidence = evidence

    def __reduce__(self):
        return type(self), (self.n, self.detail, self.evidence)


class CheckpointMismatchError(EngineError):
    """A checkpoint file does not belong to the job being resumed."""


class SweepInterrupted(EngineError):
    """A sweep stopped early on request, leaving a resumable checkpoint."""

    def __init__(self, path, blocks_done: int):
        super().__init__(
            f"sweep interrupted after {blocks_done} block(s); checkpoint at {path}"
        )
        self.path = path
        self.blocks_done = blocks_done

    def __reduce__(self):
        return type(self), (self.path, self.blocks_done)


class ReportFormatError(EngineError):
    """A record stream cannot be parsed back into a summary."""


class ReportWriteError(EngineError):
    """Writing a record stream failed; output is marked partial if possible."""
