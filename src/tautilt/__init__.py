"""Exact tau-tilting machinery for bound quiver algebras.

The package computes, in exact rational arithmetic, the tau-tilting pairs of
a finite-dimensional bound quiver algebra together with their G- and
C-matrices, extracts the stability bricks realising the c-vectors, checks
the structural identities relating them (C = X D, sign-coherence,
T(B+) = Fac M), and emits the brick-labelled exchange graph and the
wall-and-chamber geometry.  The API lives in the submodules; the package
namespace holds only the parser, so ``import tautilt`` loads no engine.
"""

from .algebra import AlgebraError, BoundQuiver, parse_algebra

__version__ = "0.1.0"
