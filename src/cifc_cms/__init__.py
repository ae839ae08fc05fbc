"""Sum-capacity bounds for the K-user cognitive interference channel
with cumulative message sharing, in the linear deterministic and
Gaussian models, plus gDoF model comparisons."""
