"""Exact-arithmetic workbench for derived-equivalence invariants of
canonical (bound quiver) algebras and poset incidence algebras."""

# recorded by benchmark runs; there is one elimination, written in Python
KERNEL_BACKEND = "python"

__version__ = "0.1.0"
