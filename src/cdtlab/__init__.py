"""Desk-scale laboratory for prime counting in imaginary quadratic class
groups: form arithmetic, sifted and smoothed counts, and the explicit
analytic bound calculus that frames them."""

from .arith import PrimeCache, is_prime, kronecker, li, primes_up_to
from .betasieve import (
    DensityPair,
    SieveSpec,
    SieveWeights,
    beta_sieve_weights,
    composition_bounds_check,
    invert_composition,
    reduced_composition,
)
from .chebotarev import (
    ExperimentReport,
    bridge_check,
    congruence_sum_A,
    count_prime_points,
    equidistribution_report,
    pi_class,
    psi_class,
    psi_events,
    sieved_sum_S,
    theorem15_experiment,
)
from .densities import SievingModulus, delta_f, g_dprime, g_prime
from .errorterms import ErrorModel, classical_error, eta
from .quadforms import (
    ClassList,
    Form,
    class_number,
    class_number_order,
    class_representatives,
    compose,
    reduce_form,
)
from .weights import WeightFunction, WeightParams, laplace_F, verify_bounds

__version__ = "0.1.0"
