"""Numerical laboratory for blow-up vs. global existence in semilinear heat
equations with a gradient nonlinearity, on truncated radial domains."""

from .core import (CriticalExponents, ProblemParams, RegimeVerdict, Verdict,
                   classify_inhomogeneous, classify_mean_nonneg,
                   classify_positive, critical_exponents)
from .grid import (Field, ProfileSpec, RadialGrid, dipole_with_mean,
                   field_to_csv, integrate, mean, sample_profile)
from .operators import Eigenpair, principal_eigenpair
from .certificates import (GaussianCertificate, OdeVerdict, RateExponents,
                           StationaryCertificate, certificate_to_json,
                           gaussian_certificate, gaussian_supersolution,
                           ode_comparison, rate_exponents, stationary_certificate,
                           supersolution_residual)
from .solver import (SolveConfig, SolveOutcome, SolveStatus, TraceRecord,
                     TRUNCATION_NOTE, comparison_tolerance, detect_blowup,
                     heat_reference, run, trace_to_csv)

__all__ = [
    "CriticalExponents", "ProblemParams", "RegimeVerdict", "Verdict",
    "classify_inhomogeneous", "classify_mean_nonneg", "classify_positive",
    "critical_exponents",
    "Field", "ProfileSpec", "RadialGrid", "dipole_with_mean", "field_to_csv",
    "integrate", "mean", "sample_profile",
    "Eigenpair", "principal_eigenpair",
    "GaussianCertificate", "OdeVerdict", "RateExponents",
    "StationaryCertificate", "certificate_to_json",
    "gaussian_certificate", "gaussian_supersolution", "ode_comparison",
    "rate_exponents", "stationary_certificate", "supersolution_residual",
    "SolveConfig", "SolveOutcome", "SolveStatus", "TraceRecord",
    "TRUNCATION_NOTE", "comparison_tolerance", "detect_blowup",
    "heat_reference", "run", "trace_to_csv",
]

__version__ = "0.1.0"
