"""Exact verification of quantum GL(2) representations on 4x4 matrices
and their inner actions on the Clifford algebra of signature (1,3).

All arithmetic is exact, over rational functions in q with Gaussian
rational coefficients; nothing is ever approximated.  See the README for
the catalog of built-in representations and the command-line interface.
"""

from .scalars import GaussRational, Scalar, Q, I, ONE, ZERO, scalar, \
    parse_scalar
from .matrices import Mat, MatSpace, centralizer, subalgebra_closure, \
    stacked_nullspace, invertible_element
from .conjugacy import Verdict
from .spinors import QSpinorRep, check_spinor, \
    q_commutant, admissibility, spinor_equivalent
from .gl2 import GL2Rep, RelationReport, InvertibilityReport, \
    PowerCommutatorReport, QuantumPlaneReport, verify_relations, \
    invertibility_nilpotency_check, power_commutator_check, \
    quantum_plane_split, gl2_equivalent
from .clifford import CliffordAlgebra, InnerAction, BASIS_NAMES, \
    build_clifford, build_action, unitality_ok, module_algebra_shadow, \
    seeded_pairs, counit_invariance_space
from .catalog import CATALOG, CatalogEntry, Claims, Param, list_entries, \
    get_entry, instantiate, family_assignments, closure_generators
from .report import build_report, render_table, report_exit_code

__version__ = "0.1.0"

__all__ = [
    "GaussRational", "Scalar", "Q", "I", "ONE", "ZERO", "scalar",
    "parse_scalar",
    "Mat", "MatSpace", "Verdict", "centralizer", "subalgebra_closure",
    "stacked_nullspace", "invertible_element",
    "QSpinorRep", "check_spinor", "q_commutant",
    "admissibility", "spinor_equivalent",
    "GL2Rep", "RelationReport", "InvertibilityReport",
    "PowerCommutatorReport", "QuantumPlaneReport", "verify_relations",
    "invertibility_nilpotency_check", "power_commutator_check",
    "quantum_plane_split", "gl2_equivalent",
    "CliffordAlgebra", "InnerAction", "BASIS_NAMES", "build_clifford",
    "build_action", "unitality_ok", "module_algebra_shadow",
    "seeded_pairs", "counit_invariance_space",
    "CATALOG", "CatalogEntry", "Claims", "Param", "list_entries",
    "get_entry", "instantiate", "family_assignments",
    "closure_generators",
    "build_report", "render_table", "report_exit_code",
    "__version__",
]
