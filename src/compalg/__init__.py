"""Real division composition algebras with non-abelian derivation algebras:
construction, analysis, canonical forms and classification."""

from .algebra import (Algebra, DoubleSign, double_sign, from_family, from_isotope,
                      from_json, g_family, is_division, j_family, k_family,
                      lambda_family, norm_multiplicative, octonion_algebra,
                      okubo_p11, p35, quat4, standard_isotope, transport)
from .classify import (AnalysisReport, BlockLabel, CanonicalForm, IsoVerdict,
                       analyze, canonical, canonical_algebra, enumerate_block,
                       isomorphic)
from .derivations import (DerivationAlgebra, LieTypeLabel, ModuleDecomposition,
                          decompose, derivation_basis, is_irreducible, lie_type,
                          trivial_submodule)
from .maps import (B_map, C_map, F_map, G_map, OrthoMap8, T_map, eps_hat,
                   g2_from_triples, is_automorphism, kappa_hat_map, lambda_map,
                   sigma_map, tau_map)
from .normal_form import (BracketTT, NFResult, PairTT, StabilizerCase, act_TxT,
                          act_bracket, act_pair, nf_M1, nf_TxT, nf_pair,
                          stabilizer_case)
from .numerics import (DEFAULT_SEED, TolerancePolicy, det_sign, is_orthogonal,
                       nullspace, sym_eigen)
from .octonion import CayleyTriple, Octonion, is_cayley_triple
from .triality import TrialityPair, iso_isotopes, triality_pair
from .verify import verify_suite

__version__ = "0.1.0"
