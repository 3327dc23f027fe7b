"""ffl: a workbench for stationary fractal measures on the line and in
product boxes - Fourier transforms with guaranteed error bounds, random
convolution disintegrations, nonlinear pushforwards, and quantitative
equidistribution experiments."""

from .ifs import (AffineMap, SmoothMap, CIFS, FibreProductCIFS,
                  SeparatedPair, lyapunov, build_fibre_product,
                  fibre_product_from_1d, cantor_system, dyadic_uniform_system,
                  ValidationError, SeparationError, BudgetExhausted)
from .measure import (FourierValue, SamplePoints, sample_points, fourier_exact,
                      fourier_exact_batch, fourier_product_homogeneous,
                      fourier_montecarlo, cylinder_decomposition)
from .disintegrate import (ClassTable, OmegaSample, build_classes, sample_omegas,
                           mu_omega_fourier_batch, disintegration_consistency,
                           LargeDeviationParams, check_omega_membership,
                           ek_diagnostics, circle_sum_bound, calibrate_alpha)
from .pushforward import (SmoothMapF, MapNorms, map_norms, pushforward_fourier,
                          conjugate_ifs, ks_distance)
from .equidist import (RateFn, EquidistSpec, GridPoint, random_grid_point,
                       grid_point_for, sigma, count_hits, weyl_sums, digit_freq,
                       sample_rational_points)
from .decay import (BandMax, DecayFit, SparseCover, band_maxima, fit_eta,
                    sparse_cover, rajchman_probe)

__version__ = "0.1.0"
