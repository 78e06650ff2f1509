"""Exact computations with Hecke pairs of semidirect products.

The package works with pairs (G, H) = (N x| Q, M x| R): double-coset
enumeration and the associated *-algebra, stabilizer-index verification,
finite stages of the completion of H, and the concrete matrix, quadratic
and Heisenberg families, all over exact rational arithmetic.
"""

from .arith import (
    INFINITE_VALUATION,
    Lattice,
    Mat2,
    QuadInt,
    ResidueRing,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    smith_invariants,
    transform_lattice,
    val_p,
)
from .cosets import (
    DoubleCoset,
    HeckeElement,
    convolve,
    delta,
    double_coset,
    involution,
    l_of,
)
from .families import (
    QuadUnitData,
    TriangularSplit,
    fundamental_unit,
    heis_orbit,
    quad_unit_data,
    slpm_surjectivity,
    split_global,
    split_padic,
    unit_image_gap,
    unit_order_mod,
)
from .grouppair import (
    GElem,
    PairDescriptor,
    ResidueSubgroup,
    downward_directed_report,
    hecke_indices_report,
    index_m_cap_conj,
    index_r_cap_conj,
    index_r_coset_stab,
    m_cap_conj,
    reduced_stage_report,
    stabilizer_identities_report,
)
from .tower import (
    ConnectingMap,
    CosetFamily,
    EnvelopeLattice,
    TowerStage,
    build_stage,
    core_lattice,
    make_coset_family,
    make_envelope,
    verify_stage_invariants,
)

__version__ = "0.1.0"
