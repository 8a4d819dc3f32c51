"""Numerical laboratory for weakly coupled damped sigma-evolution systems.

The package splits into arithmetic ground truth (exponents), per-mode
linear theory (kernels), the pseudo-spectral time stepper (solver), the
blow-up test-function machinery (testfunc), experiment drivers
(harness), and configuration / persistence / CLI (config, outputs, cli).
Names are imported from the modules that define them, as listed in
README's Layout table; the package root loads none of them.
"""

__version__ = "0.1.0"
