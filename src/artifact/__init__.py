"""Exact workbench for torus invariants of flag and spin varieties.

Enumerate invariant standard monomials, straighten polynomial relations,
factor invariants through degree-one generators with graph-theoretic
certificates, and verify generation-degree bounds by exact linear
algebra.  Library names live in their submodules (``artifact.weights``,
``artifact.tableau_a``, ``artifact.plucker``, ``artifact.verifier`` and
so on); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
