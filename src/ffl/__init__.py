"""ffl: a workbench for stationary fractal measures on the line and in
product boxes - Fourier transforms with guaranteed error bounds, random
convolution disintegrations, nonlinear pushforwards, and quantitative
equidistribution experiments.

Importing ``ffl`` loads no submodule: names come from the submodules
(``ffl.ifs``, ``ffl.measure``, ``ffl.pushforward`` and the rest), and each
CLI command loads only the modules it runs."""

__version__ = "0.1.0"
