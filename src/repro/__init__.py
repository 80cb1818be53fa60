"""repro: reproduction of "Optimized Surface Code Communication in
Superconducting Quantum Computers" (Javadi-Abhari et al., MICRO-50, 2017).

The package is organized bottom-up:

* :mod:`repro.tech` -- physical technology models.
* :mod:`repro.qasm` -- circuit IR, QASM parsing, dependence DAGs.
* :mod:`repro.frontend` -- compilation frontend (decompose/flatten/schedule).
* :mod:`repro.apps` -- the paper's four workloads (Table 2).
* :mod:`repro.partition` -- multilevel graph partitioner (METIS substitute).
* :mod:`repro.qec` -- planar and double-defect surface code models.
* :mod:`repro.network` -- braid simulator, teleportation, EPR pipelining.
* :mod:`repro.arch` -- Multi-SIMD and tiled microarchitectures.
* :mod:`repro.core` -- resource model and design-space exploration.
* :mod:`repro.runner` -- the staged end-to-end toolflow (``run_point``),
  sweeps and the command line.
"""

from .tech import CURRENT, INTERMEDIATE, OPTIMISTIC, Technology

__version__ = "1.0.0"

__all__ = ["Technology", "CURRENT", "INTERMEDIATE", "OPTIMISTIC", "__version__"]
