"""Truncated multimode Fock-space types shared by the run path and the oracle.

A Register lists bosonic modes, each with an occupation cutoff; a pure state
stores a complex amplitude array with one axis per mode, and a density
operator a matrix over the joint space. The flat index of an occupation
tuple follows C order (the last listed mode varies fastest).

All values are immutable in intent: operations return new objects and never
mutate their inputs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError, integer

__all__ = [
    "ModeSpec",
    "Register",
    "PureState",
    "DensityOperator",
    "build_register",
    "log_factorials",
]

HERMITICITY_TOL = 1e-10


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    factorials = itertools.accumulate(range(1, size), operator.mul, initial=1)
    table = np.fromiter(map(math.log, factorials), float, size)
    table.setflags(write=False)
    return table


def log_factorials(size: int) -> np.ndarray:
    """log n! for n = 0 .. size - 1, each the log of the exact integer n!,
    as a read-only slice of one cached table (its length a power of two,
    at least 64, so that the sizes one run asks for share it)."""
    return _log_factorial_table(max(64, 1 << max(size - 1, 0).bit_length()))[:size]


@dataclass(frozen=True)
class ModeSpec:
    """A single bosonic mode: unique label plus maximum kept occupation."""

    label: str
    cutoff: int

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValidationError("mode label must be a nonempty string")
        name = f"mode {self.label!r}: cutoff"
        if integer(name, self.cutoff) < 0:
            raise ValidationError(f"{name} must be >= 0, got {self.cutoff}")

    @property
    def dim(self) -> int:
        """Dimension of the truncated single-mode space (cutoff + 1)."""
        return self.cutoff + 1


class Register:
    """Ordered collection of modes fixing the tensor layout of joint states.

    Equality and hashing consider only the mode list, so two registers built
    from the same specs are interchangeable.
    """

    __slots__ = ("modes", "labels", "dims", "size", "_axis")

    def __init__(self, modes: Iterable[ModeSpec]):
        modes = tuple(modes)
        if not modes:
            raise ValidationError("register needs at least one mode")
        labels = tuple(m.label for m in modes)
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate mode labels in {labels}")
        self.modes = modes
        self.labels = labels
        self.dims = tuple(m.dim for m in modes)
        self.size = int(np.prod(self.dims))
        self._axis = {label: k for k, label in enumerate(labels)}

    # -- lookups ---------------------------------------------------------

    def axis(self, label: str) -> int:
        try:
            return self._axis[label]
        except KeyError:
            raise ValidationError(
                f"unknown mode label {label!r}; register has {self.labels}"
            ) from None

    def mode(self, label: str) -> ModeSpec:
        return self.modes[self.axis(label)]

    def __contains__(self, label: str) -> bool:
        return label in self._axis

    # -- derived registers -------------------------------------------------

    def subset(self, labels: Sequence[str]) -> "Register":
        return Register(self.mode(label) for label in labels)

    def relabeled(self, mapping: Mapping[str, str]) -> "Register":
        for old in mapping:
            self.axis(old)
        return Register(
            ModeSpec(mapping.get(m.label, m.label), m.cutoff) for m in self.modes
        )

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Register) and self.modes == other.modes

    def __hash__(self) -> int:
        return hash(self.modes)

    def __repr__(self) -> str:
        body = ", ".join(f"{m.label}:{m.cutoff}" for m in self.modes)
        return f"Register({body})"


def build_register(specs: Iterable) -> Register:
    """Build a register from ModeSpec entries or (label, cutoff) pairs."""
    modes = []
    for item in specs:
        if isinstance(item, ModeSpec):
            modes.append(item)
        else:
            label, cutoff = item
            modes.append(ModeSpec(str(label), int(cutoff)))
    return Register(modes)


class PureState:
    """Dense pure state over a register; not necessarily normalized."""

    __slots__ = ("register", "amps")

    def __init__(self, register: Register, amps, *, copy: bool = True):
        arr = (np.array if copy else np.asarray)(amps, dtype=np.complex128)
        if arr.shape != register.dims:
            if arr.size != register.size:
                raise ValidationError(
                    f"amplitude array has {arr.size} entries, register "
                    f"{register!r} needs {register.size}"
                )
            arr = arr.reshape(register.dims)
        self.register = register
        self.amps = arr

    # -- basic quantities ----------------------------------------------------

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValidationError("cannot normalize the zero state")
        return PureState(self.register, self.amps / n, copy=False)

    def amplitude(self, occupations: Sequence[int]) -> complex:
        return complex(self.amps[tuple(occupations)])

    # -- structural helpers ----------------------------------------------------

    def relabeled(self, mapping: Mapping[str, str]) -> "PureState":
        return PureState(self.register.relabeled(mapping), self.amps, copy=False)

    def reordered(self, labels: Sequence[str]) -> "PureState":
        """Same state with modes listed in the given order."""
        labels = tuple(labels)
        if sorted(labels) != sorted(self.register.labels):
            raise ValidationError(
                f"reorder labels {labels} must be a permutation of "
                f"{self.register.labels}"
            )
        axes = tuple(self.register.axis(label) for label in labels)
        return PureState(
            self.register.subset(labels), np.transpose(self.amps, axes), copy=False
        )

    # -- small algebra ----------------------------------------------------------

    def __add__(self, other: "PureState") -> "PureState":
        if self.register != other.register:
            raise ValidationError("cannot add states on different registers")
        return PureState(self.register, self.amps + other.amps, copy=False)

    def __mul__(self, scalar) -> "PureState":
        return PureState(self.register, self.amps * complex(scalar), copy=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"PureState({self.register!r}, norm={self.norm():.6g})"


class DensityOperator:
    """Dense Hermitian operator over a register's joint space."""

    __slots__ = ("register", "matrix")

    def __init__(self, register: Register, matrix, *, check: bool = True,
                 copy: bool = True):
        arr = (np.array if copy else np.asarray)(matrix, dtype=np.complex128)
        if arr.shape != (register.size, register.size):
            raise ValidationError(
                f"density matrix shape {arr.shape} does not match register "
                f"dimension {register.size}"
            )
        if check:
            scale = max(1.0, float(np.abs(arr).max()))
            defect = float(np.abs(arr - arr.conj().T).max())
            if defect > HERMITICITY_TOL * scale:
                raise ValidationError(
                    f"matrix is not Hermitian (defect {defect:.3e})"
                )
        self.register = register
        self.matrix = arr

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def relabeled(self, mapping: Mapping[str, str]) -> "DensityOperator":
        return DensityOperator(self.register.relabeled(mapping), self.matrix,
                               check=False, copy=False)

    def reordered(self, labels: Sequence[str]) -> "DensityOperator":
        """Same operator with modes listed in the given order."""
        labels = tuple(labels)
        if sorted(labels) != sorted(self.register.labels):
            raise ValidationError(
                f"reorder labels {labels} must be a permutation of "
                f"{self.register.labels}"
            )
        n = len(self.register.dims)
        axes = tuple(self.register.axis(label) for label in labels)
        tens = self.matrix.reshape(self.register.dims * 2)
        tens = np.transpose(tens, axes + tuple(n + a for a in axes))
        target = self.register.subset(labels)
        return DensityOperator(
            target, tens.reshape(target.size, target.size), check=False, copy=False
        )

    def expectation(self, state: PureState) -> float:
        """Real part of <psi| rho |psi> for a state on the same register."""
        if state.register != self.register:
            raise ValidationError("state register does not match the operator")
        vec = state.amps.reshape(-1)
        value = np.vdot(vec, self.matrix @ vec)
        return float(value.real)

    def __repr__(self) -> str:
        return f"DensityOperator({self.register!r}, trace={self.trace:.6g})"
