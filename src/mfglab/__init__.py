"""Numerical laboratory for a coefficient inverse problem in a coupled
value/density system: geometry and discrete calculus, interaction kernels,
forward solvers, exponential-weight functionals, data extraction, and the
difference machinery behind the stability estimate."""

__version__ = "0.1.0"
