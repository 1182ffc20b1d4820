"""Sum-product experiment toolkit over F_p and char-zero ground sets.

`sumprod.energy` is the function `energy`, not the module (README, Tests)."""

__version__ = "0.1.0"

from .field import (ElemSet, FieldMismatch, GroundField, ParseError,
                    parse_set, read_set_file, render_set, write_set_file)
from .repfn import BudgetExceeded, RepFn, count_spectrum, rep_function
from .setalgebra import SpanSpec, combine, iterated_span
from .energy import (DyadicSlice, Moment, cauchy_schwarz_check,
                     dyadic_extract, energy, energy_rep)
from .regularize import (PopularityParams, RegularDecomposition,
                         ReguCertificate, check_regular, default_slack,
                         popular_sums, popularity_rule, regu_iterate,
                         xue_regularize)
from .counting import (bilinear_count, count_energy_equiv, f_collision_count,
                       tautological_count)
from .families import (FamilySpec, SearchState, gen_family,
                       local_search_min_ratio, prime_with_subgroup,
                       primitive_root, subgroup_of_order, sum_product_ratio)
from .report import ConstraintCheck, ConstraintViolation, VerificationReport
from .verify import (check_kmps, check_mixed_energy, check_pluennecke,
                     check_rss_proposition, check_sdz, main_theorem_probe,
                     p_constraint_check)
from .suite import ExperimentConfig, RunManifest, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
