"""Physical tree-pattern algorithms: NLJoin, TwigJoin, SCJoin (paper §5)."""

from .base import NO_RUN, Binding, Run, TreePatternAlgorithm
from .cost import CostEstimate, CostModel
from .nljoin import NLJoin
from .stacktree import StackTreeJoin
from .staircase import StaircaseJoin
from .strategy import (CostBasedChooser, HeuristicChooser, Strategy,
                       estimated_stream_size, make_algorithm)
from .streaming import StreamingXPath
from .twigjoin import TwigJoin

__all__ = [
    "Binding", "NO_RUN", "Run", "TreePatternAlgorithm", "NLJoin",
    "StaircaseJoin", "CostBasedChooser", "CostEstimate", "CostModel",
    "HeuristicChooser", "Strategy", "estimated_stream_size",
    "make_algorithm", "StackTreeJoin",
    "StreamingXPath", "TwigJoin",
]
