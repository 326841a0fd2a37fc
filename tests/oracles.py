"""Reference computations shared by several test modules."""

import numpy as np


def logistic_loss(labels, probs) -> float:
    """Mean binary cross-entropy, probabilities clipped to [1e-15, 1 - 1e-15]."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-15, 1 - 1e-15)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())
