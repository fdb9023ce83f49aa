"""Numerical workbench for singular convective p-Laplacian systems.

Desk-scale companion to the existence-and-regularity theory for pairs of
quasilinear Dirichlet equations with reactions that are singular in the
unknowns and grow in the gradients.  The modules check that exponent
configurations satisfy the structural hypotheses, solve regularized
p-Laplacian problems on lattice boxes, evaluate the nonlinear potential
that controls gradient sup bounds, run the shifted approximating scheme
level by level, and test the compactness and monotonicity inequalities the
theory rests on, with explicit constants and no fitted factors.  Names
are imported from the modules; the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
