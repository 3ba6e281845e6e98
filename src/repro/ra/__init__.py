"""Relational algebra: the SJUD query class and the classical algebra.

* :mod:`repro.ra.sjud` -- Hippo's supported query class (normalized form,
  SQL conversion, the projection restriction).
* :mod:`repro.ra.compile` -- compilation of SJUD trees to engine plans
  with tid provenance and per-relation restrictions.
* :mod:`repro.ra.to_sql` -- rendering SJUD trees back to SQL.
* :mod:`repro.ra.algebra` -- textbook named-attribute algebra with a naive
  evaluator (test oracle / programmatic API).
"""

from repro.ra.compile import evaluate_core, evaluate_tree, compile_core, unrestricted
from repro.ra.sjud import (
    Atom,
    CatalogSchemaProvider,
    Difference,
    OutputColumn,
    SJUDCore,
    SJUDTree,
    Union_,
    cores_of,
    from_sql_body,
    from_sql_query,
    output_arity_of,
    output_names_of,
    reconstruction_map,
    validate_tree,
)
from repro.ra.to_sql import (
    ParameterizedSQL,
    render_core_tids,
    render_query,
    render_tree,
    tree_to_query,
    tree_to_sql,
)

__all__ = [
    "Atom",
    "CatalogSchemaProvider",
    "Difference",
    "OutputColumn",
    "SJUDCore",
    "SJUDTree",
    "Union_",
    "cores_of",
    "from_sql_body",
    "from_sql_query",
    "output_arity_of",
    "output_names_of",
    "reconstruction_map",
    "validate_tree",
    "compile_core",
    "evaluate_core",
    "evaluate_tree",
    "unrestricted",
    "ParameterizedSQL",
    "render_core_tids",
    "render_query",
    "render_tree",
    "tree_to_query",
    "tree_to_sql",
]
