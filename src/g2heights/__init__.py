"""Stable Faltings heights of genus-2 CM jacobians.

Two independent engines: the Gamma-value closed formula for cyclic quartic
CM fields, and the local decomposition through exact Igusa invariants plus
the theta-constant archimedean term.
"""

from .exact import IntPolynomial, disc_n, valuation
from .prec import PrecisionContext, log_gamma, poly_roots
from .igusa import (IgusaInvariants, WeierstrassEquation, discriminant,
                    finite_height_part, igusa_invariants, iota,
                    minimal_disc_order)
from .theta import (EVEN_CHARS, PeriodMatrix, ThetaCharacteristic,
                    archimedean_term, chi10, theta_all, theta_big,
                    theta_squares)
from .siegel import SymplecticMatrix, act, in_fundamental_domain, reduce
from .cmperiod import check_order, period_matrix, select_tau
from .colmez import (DirichletCharacter, char_from_spec, char_weighted_sum,
                     colmez_height)
from .heights import HeightBreakdown, compare, height_local

__version__ = "0.1.0"
