"""Coefficients, partial orders, and extremal constructions for binary-input channels.

The package computes contraction coefficients (KL and total variation),
Doeblin coefficients, maximal leakage, and capacity of binary-input
channels; decides the degradability, less-noisy, and more-capable partial
orders; constructs the extremal BSC/BEC representatives of a channel's
coefficient class together with explicit degrading maps; and evaluates the
derived secrecy-capacity, f-divergence, and information-budget bounds.
"""

from .applications import (
    FICurveBounds,
    OutputDivergenceBounds,
    f_divergence_output_bounds,
    fi_curve_bounds,
    fi_upper_bound,
    secrecy_capacity_vs_bec,
    secrecy_capacity_vs_bsc,
)
from .channels import (
    BisoChannel,
    Channel,
    DegradingMap,
    as_channel,
    canonicalize_biso,
    compose,
    format_channel,
    is_biso,
    load_channel,
    make_bec,
    make_bsc,
    make_z,
    parse_channel,
)
from .coefficients import (
    CoefficientReport,
    FDivergenceGenerator,
    alpha_max,
    capacity_binary,
    capacity_binary_argmax,
    capacity_biso,
    chi2_generator,
    coefficient_report,
    doeblin_alpha,
    eta_kl_binary,
    eta_kl_binary_argmax,
    eta_kl_biso,
    eta_tv,
    f_divergence,
    h2,
    h2_inv,
    kl_generator,
    maximal_leakage,
    mutual_information,
    mutual_information_grid,
    tv_generator,
)
from .errors import (
    BisochanError,
    ChannelFormatError,
    ClassMismatchError,
    DegenerateParameterError,
    DimensionMismatchError,
    DimensionTooLargeError,
    InfiniteDivergenceError,
    InvalidChannelError,
    LeakageOutOfRangeError,
    NotBisoError,
    NumericalInstabilityError,
    ParameterOutOfRangeError,
)
from .extremal import (
    ChannelClass,
    Dim3Degradation,
    ExtremalMatch,
    ReverseCoefficients,
    bsc_degrading_map,
    channel_class,
    dim3_channel,
    dim3_degrading_map,
    dim3_less_noisy_compare,
    general_binary_dominated,
    match_extremal,
    reverse_coefficients,
    verify_reverse_alpha,
    verify_reverse_beta,
)
from .orders import (
    CriterionViolation,
    InfeasibilityCertificate,
    OrderVerdict,
    guessing_probability,
    is_degraded,
    is_less_noisy,
    is_more_capable,
    less_noisy_criterion,
)

__version__ = "0.1.0"
