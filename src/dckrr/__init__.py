"""Divide-and-conquer kernel ridge regression.

Core pieces: Mercer spectra for the supported kernel families
(:mod:`dckrr.spectra`), single-machine ridge solvers (:mod:`dckrr.solver`),
the partition/fit/average pipeline (:mod:`dckrr.dnc`), Wald-type inference
(:mod:`dckrr.inference`), rate prescriptions (:mod:`dckrr.rates`), and a
reproducible simulation lab (:mod:`dckrr.simlab`) with a CLI front end
(:mod:`dckrr.cli`).
"""

from dckrr.spectra import (
    Spectrum,
    SpectralSums,
    TruncationError,
    additive,
    check_prop31_ratio,
    check_tail_sum,
    eval_kernel_K,
    gaussian_rkhs,
    null_basis,
    periodic_sobolev,
    smoothing_spline,
    smoothing_spline_level,
    spectral_sums,
    thin_plate,
    truncation_level,
)
from dckrr.solver import MachineFit, krr_fit, predict, smoother_trace
from dckrr.dnc import (
    Dataset,
    DncEstimate,
    Partition,
    fit_all,
    partition,
    predict_bar,
    xi_diagnostic,
)
from dckrr.inference import (
    NormBreakdown,
    TestReport,
    estimate_sigma2,
    norm_breakdown,
    test_statistic,
)
from dckrr.rates import RatePrescription, prescribe
from dckrr.simlab import (
    ExperimentResult,
    SweepConfig,
    SweepError,
    generate,
    mse_of_estimate,
    run_sweep,
)

__version__ = "0.1.0"
