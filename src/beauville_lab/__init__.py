"""Exact-arithmetic verification engine for generalized Beauville
decompositions: Lie-algebra identities for Fourier-conjugate sl2 triples,
the motivic decomposition of an elliptic surface fibration, and
tautological-ring obstructions to theta divisors on nodal Jacobian
families.  Callers import the submodules, such as beauville_lab.llv."""

__version__ = "0.1.0"
