"""Tensor graphs, reverse-mode differentiation and the Adam optimizer."""

from .graph import Graph, GraphError, NumericError, as_tensor, backward, forward
from .params import ParamStore

__all__ = [
    "Graph",
    "GraphError",
    "NumericError",
    "ParamStore",
    "as_tensor",
    "backward",
    "forward",
]
