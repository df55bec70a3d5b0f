"""Auctions for buying differential privacy from a population.

A small numpy library implementing two procurement auctions for private
data -- a budget-constrained accuracy maximizer and an accuracy-constrained
payment minimizer -- together with the Laplace-noise estimator they run and
a verification harness that mechanically checks their properties
(truthfulness, individual rationality, envy-freeness, budget feasibility,
accuracy, and instance optimality against brute-force oracles).
"""

from .core import (ALL_FAMILIES, Allocation, CostFamily, DomainError,
                   MechanismOutcome, Population, PopulationSpec, cost_eval,
                   generate_population)
from .dp import (ACCURACY_CONST, LN3, EstimatorPlan, lap_sample,
                 laplace_estimator, trial_estimates, trial_stream)
from .mechanisms import (AccuracyInstance, BudgetInstance, fair_query,
                         min_cost_auction)
from .verify import (VerificationReport, check_envy_freeness,
                     check_individual_rationality,
                     check_necessity, check_truthfulness, estimate_accuracy,
                     impossibility_bound, oracle_max_winners_envy_free,
                     oracle_min_payment_k_units, payment_lower_bound)

__version__ = "0.1.0"
