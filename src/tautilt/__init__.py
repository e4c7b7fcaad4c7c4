"""Exact tau-tilting machinery for bound quiver algebras.

The package computes, in exact rational arithmetic, the tau-tilting pairs of
a finite-dimensional bound quiver algebra together with their G- and
C-matrices, extracts the stability bricks realising the c-vectors, checks
the structural identities relating them (C = X D, sign-coherence,
T(B+) = Fac M), and emits the brick-labelled exchange graph and the
wall-and-chamber geometry.
"""

from .algebra import AlgebraError, BoundQuiver, parse_algebra
from .modules import (
    ModuleMap,
    ProjectivePresentation,
    Representation,
    ar_pairing,
    cokernel,
    decompose,
    direct_sum,
    ext1_dim,
    g_vector,
    hom_basis,
    image,
    injective,
    is_isomorphic,
    kernel,
    minimal_left_approximation,
    minimal_projective_presentation,
    minimal_right_approximation,
    projective,
    radical,
    tau,
    top,
    trace,
)
from .tautilting import (
    ExchangeGraph,
    TauPair,
    c_matrix,
    complete_almost_pair,
    enumerate_exchange_graph,
    g_matrix,
    is_tau_rigid_pair,
    remove_summand,
    sign_coherence,
    signed_g_vectors,
)
from .stability import (
    BrickSlate,
    b_plus,
    brick_of_slot,
    brick_slate,
    fac_contains,
    is_semistable_bruteforce,
    is_semistable_hom,
    is_stable_bruteforce,
    minimal_torsion_contains,
    semibrick_to_pair,
    submodule_dim_vectors,
    theta_of_pair,
    theta_of_slot,
    verify_facm_theorem,
)
from .wallchamber import (
    Chamber,
    Fan,
    Wall,
    build_fan,
    chamber_of_pair,
    emit_dot,
    emit_fan_json,
    emit_svg_stereographic,
    shared_wall,
    wall_of_brick,
)

__version__ = "0.1.0"
