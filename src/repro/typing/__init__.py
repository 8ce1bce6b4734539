"""Static typing support for the typeswitch rewritings."""

from .types import ItemType, TypeEnv, TypeMemo, infer_type

__all__ = ["ItemType", "TypeEnv", "TypeMemo", "infer_type"]
