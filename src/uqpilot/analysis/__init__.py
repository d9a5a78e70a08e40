"""Analysis: spectral projection, Sobol indices, Monte Carlo estimators and reports."""
