"""hklab: exact fiberwise hyperkahler operator algebra and flux-torus spectra."""

from .exterior import ExteriorAlgebra
from .fiber import (FiberOperator, HyperkahlerFiber, bidegree_projectors,
                    complex_structure, contraction_operator,
                    holomorphic_symplectic, kahler_form, slice_basis,
                    standard_fiber, wedge_operator)
from .gengeo import (GCStructure, GeneralizedTangentSpace, GHCFamily,
                     LinearBraneDatum, brane_condition, fiber_families,
                     gc_from_complex, gc_from_symplectic, generalized_metric,
                     ghc_from_holsymplectic, ghc_from_hypercomplex,
                     hyperbrane_condition)
from .quaternions import (TwistorPoint, UnitQuaternion, adjoint_action,
                          axis_points, fibonacci_sphere, hopf_section,
                          sample_zetas)
from .report import CheckResult
from .reptheory import (LefschetzTriple, antiholomorphic_triple,
                        irrep_operators, irrep_sp1_eval, lefschetz_triple,
                        phi_isomorphism, primitive_decompose)
from .symmetry import (OperatorAlgebra, check_ids, chi, chi_k, clifford,
                       clifford_2form, hodge_star_twisted, rho_j_sp1, rho_sp1,
                       ten_operators, verify_identity)
from .torus import (IndexResult, LatticeGaugeField, LatticeOperator,
                    LatticeSpec, build_gauge_field, covariant_laplacian,
                    dirac_index, dirac_vs_lichnerowicz, dolbeault_pair,
                    flux_spectra, flux_sweep, lattice_dirac,
                    lichnerowicz_laplacian, verify_theorem)

__version__ = "0.1.0"
