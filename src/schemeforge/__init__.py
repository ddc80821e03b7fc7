"""Association schemes from permutation groups, finite groups and the
simple Moufang loops over GF(q), with numerically verified character tables.

The pipeline: build a structure (zorn / permgroup / loopcore), derive an
association scheme (scheme), diagonalize its intersection matrices
(chartab), and certify the result against orthogonality relations and
closed-form reference tables.
"""

from .config import DEFAULT_SEED
from .errors import SchemeForgeError
from .gf import FieldSpec, field_for
from .zorn import PaigeLoop, build_paige_loop, paige_loop_order
from .permgroup import (PermutationGroup, closure, cyclic,
                        symmetric, psl2, sl2, load_generators, orbitals,
                        group_scheme, coset_action, double_cosets, stabilizer)
from .loopcore import (LoopStructure, TableLoop, quasigroup_check,
                       moufang_check, associativity_counterexample,
                       inner_orbits, loop_scheme, load_loop_table,
                       loop_from_group)
from .scheme import (AssociationScheme, IntersectionNumbers,
                     intersection_numbers, verify_scheme_axioms, fuse,
                     complete_graph_scheme)
from .chartab import (CharacterTable, GroupCharacterTable,
                      compute_character_table, multiplicities,
                      verify_orthogonality, verify_candidate_table,
                      closed_form_mstar, closed_form_psl2,
                      transfer_to_group_table, group_character_table,
                      gelfand_check, double_coset_table, compare_tables)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED", "SchemeForgeError",
    "FieldSpec", "field_for",
    "PaigeLoop", "build_paige_loop", "paige_loop_order",
    "PermutationGroup", "closure", "cyclic", "symmetric",
    "psl2", "sl2", "load_generators", "orbitals", "group_scheme",
    "coset_action", "double_cosets", "stabilizer",
    "LoopStructure", "TableLoop", "quasigroup_check", "moufang_check",
    "associativity_counterexample", "inner_orbits", "loop_scheme",
    "load_loop_table", "loop_from_group",
    "AssociationScheme", "IntersectionNumbers", "intersection_numbers",
    "verify_scheme_axioms", "fuse", "complete_graph_scheme",
    "CharacterTable", "GroupCharacterTable", "compute_character_table",
    "multiplicities", "verify_orthogonality", "verify_candidate_table",
    "closed_form_mstar", "closed_form_psl2", "transfer_to_group_table",
    "group_character_table", "gelfand_check", "double_coset_table",
    "compare_tables",
]
