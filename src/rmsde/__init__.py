"""Random-matrix SDE toolkit.

Simulation, symbolic moment expansion, and paired-ensemble experiments for
linear-drift diffusions whose interaction matrix is drawn from a scaled
random ensemble.  The package root exports nothing: import the
submodules (``rmsde.cli``, ``rmsde.experiments``, ...).
"""
