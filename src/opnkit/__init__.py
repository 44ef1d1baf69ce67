"""Exact arithmetic, congruence certificates and sieves for odd-perfect-number candidates."""

from . import arith, congruences, identities, sieve
from .arith import *
from .congruences import *
from .identities import *
from .sieve import *

__all__ = [*arith.__all__, *congruences.__all__, *identities.__all__, *sieve.__all__]

__version__ = "0.1.0"
