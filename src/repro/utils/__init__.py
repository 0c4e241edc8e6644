"""Small shared utilities: RNG streams, statistics, and plain-text
table rendering used by reports and benches."""

from repro.utils.rng import RngStream, derive_seed
from repro.utils.stats import (
    confidence_interval,
    geometric_mean,
)
from repro.utils.tables import TextTable

__all__ = [
    "RngStream",
    "derive_seed",
    "confidence_interval",
    "geometric_mean",
    "TextTable",
]
