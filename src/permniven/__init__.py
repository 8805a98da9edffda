"""Permutation-invariant Niven numbers: search, proofs, families, repdigits.

A positive integer is a PINN when every rearrangement of its digits
(leading zeros dropped) is divisible by the digit sum.  The library works
on digit multisets, so an entire permutation orbit is one object, and
offers an exact congruence criterion and a residue-counting DP, each
equivalent to dividing every arrangement (the brute-force oracle, which
the tests keep) and combined into one verdict rule (``decide_pinn``)
that cross-checks every PINN verdict at any width (repdigits by the
closed form 10^k = 1 (mod 9k)), an exhaustive search by width with
census utilities, the ten infinite families with verification, and a
lab for repdigit divisibility conditions and the multiplicative-order
machinery behind them.
"""
# Each module's __all__ is its share of the package surface.  The search
# module's is bound first: ``from .search import *`` rebinds ``search`` to
# the function of that name.
from .search import __all__ as _search_all
from .digits import *
from .families import *
from .numtheory import *
from .orbits import *
from .repdigits import *
from .search import *
from .serialize import *

__version__ = "0.1.0"

__all__ = (
    digits.__all__
    + families.__all__
    + numtheory.__all__
    + orbits.__all__
    + repdigits.__all__
    + _search_all
    + serialize.__all__
)
