"""Exact-arithmetic generic initial ideals, combinatorial shifting, and
exhaustive verification sweeps over small graphs."""

from .fields import GFP, QQ, PrimeField, RationalField, InvalidInputError
from .monomials import (EXT, POLY, ExtMonomial, PolyMonomial, ext_monomial,
                        poly_monomial, squarefree_poly, all_monomials,
                        parse_monomial)
from .orders import LEX, REVLEX, Inverse, WeightOrder, TermOrder, parse_order
from .ideals import MonomialIdeal, is_strongly_stable, stable_closure
from .changes import CoordinateChange
from .gin import (gin, gin_adaptive, gin_space, combinatorial_shift,
                  trans_search, trans_witnesses, complement_dual,
                  CertificationError, DualityViolationError)
from .graphs import (Graph, GRAPH_A, GRAPH_B, GRAPH_C, condition_v,
                     condition_vi, base_form, contains_induced, is_chordal,
                     is_near_cone, complete_graph, complete_bipartite,
                     disjoint_cliques, path_graph, cycle_graph)
from .complexes import (SimplicialComplex, flag_complex, cone, face_ideal,
                        edge_ideal, combinatorial_ideal, shifted_complex)
from .invariants import (BettiTable, betti_stable, resolution_oracle,
                         shifted_graph_edges, edge_stat, m_count,
                         bipartite_profile, two_cliques_profile,
                         two_cliques_profile_from_h, regularity_from_gin)
from .verifier import (SweepReport, enumerate_graphs, sweep_theorem1,
                       sweep_theorem2, property_suite)

__version__ = "0.1.0"
