"""Core rewritings toward TPNF' (paper Section 3)."""

# the driver first: the rule families are built on it.
from .pipeline import RewriteOptions, RewriteTrace, rewrite_to_tpnf
from .annotate import annotated_pretty, collect_annotations, facts_label, whole_expression_facts
from .docorder import remove_redundant_ddo
from .facts import Facts, sequence_facts
from .flwor import rewrite_flwor
from .loopsplit import split_loops
from .tpnf import TPNFReport, check_tpnf
from .typeswitch import rewrite_typeswitches

__all__ = [
    "annotated_pretty", "collect_annotations", "facts_label",
    "whole_expression_facts",
    "remove_redundant_ddo", "Facts", "sequence_facts", "rewrite_flwor",
    "split_loops", "RewriteOptions", "RewriteTrace", "rewrite_to_tpnf",
    "rewrite_typeswitches",
    "TPNFReport", "check_tpnf",
]
