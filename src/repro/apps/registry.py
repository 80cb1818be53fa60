"""Application registry: uniform access to the paper's four workloads.

Each entry in :data:`APPLICATIONS` maps a single scalar *size knob* to a
hierarchical program, so the toolflow, benchmarks, and scaling models can
treat workloads uniformly.  The knob follows the paper's Table 2 problem
sizes: molecule size ``m`` for GSE, operand bits ``n`` for SQ, message
word width for SHA-1, spin-chain length ``n`` for IM.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..frontend.flatten import flatten
from ..frontend.program import Program
from ..qasm.circuit import Circuit
from .gse import GseParams, build_gse
from .ising import IsingParams, build_ising
from .sha1 import Sha1Params, build_sha1
from .sq import SqParams, build_sq

__all__ = ["AppSpec", "APPLICATIONS", "SIM_SIZES", "get_app", "build_circuit"]


@dataclasses.dataclass(frozen=True)
class AppSpec:
    """One registered application.

    Attributes:
        name: Short identifier (``gse``, ``sq``, ``sha1``, ``im``).
        title: Paper display name.
        purpose: Table 2's "Purpose" column.
        paper_parallelism: Parallelism factor reported in Table 2.
        build: Size knob -> hierarchical program.
        default_size: Size used by benchmarks when none is given.
        sim_size: "Small" instance size for cycle-accurate simulation:
            large enough to exhibit the app's contention regime, small
            enough to simulate all seven braid policies in seconds.
        serial: True for the paper's "mostly-serial" class (GSE, SQ).
        scaling_build: Optional alternate builder for the *scaling*
            calibration, when the asymptotic growth regime differs from
            the instance-size knob (e.g. SHA-1 grows by Grover
            iterations at fixed width, not by word width).
    """

    name: str
    title: str
    purpose: str
    paper_parallelism: float
    build: Callable[[int], Program]
    default_size: int
    sim_size: int
    serial: bool
    scaling_build: Optional[Callable[[int], Program]] = None

    def scaling_program(self, size: int) -> Program:
        """Build a calibration instance in the asymptotic-growth regime."""
        return (self.scaling_build or self.build)(size)

    def circuit(
        self, size: Optional[int] = None, inline_depth: Optional[int] = None
    ) -> Circuit:
        """Build and flatten an instance (still containing composites)."""
        chosen = self.default_size if size is None else size
        program = self.build(chosen)
        circuit = flatten(program, inline_depth=inline_depth)
        circuit.name = (
            f"{self.name}[{chosen}]"
            if inline_depth is None
            else f"{self.name}[{chosen},inline={inline_depth}]"
        )
        return circuit


APPLICATIONS: dict[str, AppSpec] = {
    spec.name: spec
    for spec in [
        AppSpec(
            name="gse",
            title="Ground State Estimation (GSE)",
            purpose="Compute ground state energy for molecule of size m",
            paper_parallelism=1.2,
            build=lambda size: build_gse(GseParams(num_orbitals=size)),
            default_size=6,
            sim_size=4,
            serial=True,
        ),
        AppSpec(
            name="sq",
            title="Square Root (SQ)",
            purpose="Find square root of an n-bit number",
            paper_parallelism=1.5,
            build=lambda size: build_sq(SqParams(num_bits=size)),
            default_size=4,
            sim_size=3,
            serial=True,
        ),
        AppSpec(
            name="sha1",
            title="SHA-1 Decryption (SHA-1)",
            purpose="SHA-1 decryption of n-bit message",
            paper_parallelism=29.0,
            build=lambda size: build_sha1(Sha1Params(word_bits=size)),
            default_size=8,
            sim_size=4,
            serial=False,
            # Asymptotically a SHA-1 attack grows by Grover iterations
            # (fixed width) and by digest/word width for larger hashes;
            # the scaling family grows both, giving qubits ~ sqrt(ops).
            scaling_build=lambda size: build_sha1(
                Sha1Params(word_bits=4 + 2 * size, grover_iterations=size)
            ),
        ),
        AppSpec(
            name="im",
            title="Ising Model (IM)",
            purpose="Finding ground state for ising model on n-qubit spin chain",
            paper_parallelism=66.0,
            # A larger Ising instance needs both more spins and a longer
            # digitized anneal (adiabatic runtime grows with n), so the
            # size knob scales Trotter steps alongside the chain length.
            build=lambda size: build_ising(
                IsingParams(num_spins=size, trotter_steps=max(2, size // 2))
            ),
            default_size=32,
            sim_size=12,
            serial=False,
        ),
    ]
}


SIM_SIZES: dict[str, int] = {
    spec.name: spec.sim_size for spec in APPLICATIONS.values()
}
"""Per-app "small" simulation sizes (each spec's ``sim_size`` knob),
shared by the calibration layer and the sweep runner."""


def get_app(name: str) -> AppSpec:
    """Look up an application by name (case-insensitive)."""
    key = name.lower().replace("-", "").replace("_", "")
    aliases = {"ising": "im", "sha": "sha1"}
    key = aliases.get(key, key)
    try:
        return APPLICATIONS[key]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; available: "
            f"{sorted(APPLICATIONS)}"
        ) from None


def build_circuit(
    name: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
) -> Circuit:
    """Shorthand: build the flattened circuit for a named application."""
    return get_app(name).circuit(size, inline_depth)
