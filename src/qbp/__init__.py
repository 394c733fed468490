"""Sparse recovery from systems of quadratic equations.

The package lifts quadratic measurements of an unknown vector to linear
constraints on a rank-one Hermitian matrix, solves the resulting
trace-plus-l1 semidefinite relaxation with a consensus ADMM, and ships the
recoverability diagnostics and classical baselines used to evaluate it.
Each name is imported from its submodule, e.g. ``from qbp.admm import solve``.
"""

# `import qbp` loads every library submodule: perfbench/workloads.py:import_qbp
# reads qbp.model, qbp.admm, qbp.recovery, qbp.generators and qbp.montecarlo
# from sys.modules after it.
from qbp import model, admm, recovery, baselines, generators, serialize, montecarlo  # noqa: F401
