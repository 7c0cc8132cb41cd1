"""Adversarially trained anomaly detectors for water-treatment telemetry.

The package simulates a small tank plant with injected attacks, trains an
MLP oracle, generates saliency-guided adversarial samples from the attack
rows, trains tree detectors on normal plus adversarial data only, and
scores them on the attacked trace. See the README for the CLI walkthrough.
"""

# every kernel is plain numpy; kept as a name for tools that print it
BACKEND = "numpy"

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
