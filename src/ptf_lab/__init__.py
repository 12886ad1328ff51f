"""Query-efficient perfect labeling of univariate polynomial threshold
functions, with derivative-sign oracles, three learners, random-instance
distributions, and exact non-inferability witnesses."""

__version__ = "0.1.0"
