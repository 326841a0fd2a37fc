"""Reference computations shared by several test modules."""

import csv
import math

import numpy as np

from spoofkit import bench, dsp
from spoofkit.errors import UsageError


def logistic_loss(labels, probs) -> float:
    """Mean binary cross-entropy, probabilities clipped to [1e-15, 1 - 1e-15]."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-15, 1 - 1e-15)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def read_features_csv(path):
    """The feature CSV at `path` read row by row, every cell by float(): the
    files it accepts and the messages it gives are those of
    `cli.read_features_csv`."""
    n = dsp.N_FEATURES
    X, y = [], []
    with open(path) as fh:
        # comment lines read as blank rows, so line_num counts file lines
        reader = csv.reader("\n" if line.startswith("#") else line for line in fh)
        rows = (row for row in reader if row)
        try:
            if next(rows, [])[:n] != list(dsp.FEATURE_NAMES):
                raise UsageError(f"{path}: feature columns do not match the "
                                 "expected 37-feature header")
            for row in rows:
                X.append([float(v) for v in row[:n]])
                y.append(bench.LABELS.index(row[n]))
                if not all(map(math.isfinite, X[-1])):
                    raise UsageError(f"{path}:{reader.line_num}: features must "
                                     "be finite numbers (no nan or inf)")
        except UnicodeDecodeError:
            raise UsageError(f"{path}: not a text CSV file") from None
        except (IndexError, ValueError, csv.Error):
            raise UsageError(f"{path}:{reader.line_num}: expected {n} numbers "
                             "and a label (bonafide or spoof)") from None
    if not y:
        raise UsageError(f"{path}: no feature rows")
    return np.asarray(X), np.asarray(y)
