"""Exact simulator for block one-hot constrained QAOA, plus a grid-search hybrid TSP solver.

Import each name from its module: encoded, hamiltonian, instances, layers,
phqc, analysis, qubitref, verify or cli.  The package re-exports nothing.
"""

__version__ = "0.1.0"
