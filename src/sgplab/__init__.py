"""sgp-lab: exact character theory for Sp4(2^e) and its maximal subgroups."""

from .exactnum import Cyclo, root_of_unity
from .gfield import FieldCtx, field_ctx

__all__ = ["Cyclo", "root_of_unity", "FieldCtx", "field_ctx"]
__version__ = "0.1.0"
