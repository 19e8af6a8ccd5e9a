"""Deep-ensemble prediction aggregation and uncertainty.

"When an ensemble is run, the result is an aggregation of the
individual model results … each NN is trained in parallel using the
entire training set and the predictions are aggregated by averaging the
predicted probabilities" (paper §7). Uncertainty comes in two flavours:

- **class-probability spread** — the standard deviation, across
  members, of the probability assigned to the predicted class: the
  σ ≈ 0.4 of Figure 4's ambiguous '4';
- **predictive entropy** — entropy of the averaged distribution,
  capturing both member disagreement and per-member ambiguity.
"""

from __future__ import annotations

import numpy as np

from repro.hpo.nn.network import MLP

__all__ = ["DeepEnsemble"]


class DeepEnsemble:
    """A fixed set of trained classifiers queried jointly."""

    def __init__(self, models: list[MLP]) -> None:
        if not models:
            raise ValueError("an ensemble needs at least one model")
        if len({m.layer_sizes[0] for m in models}) > 1:
            raise ValueError("ensemble members must share the input size")
        if len({m.layer_sizes[-1] for m in models}) > 1:
            raise ValueError("ensemble members must share the class count")
        self.models = list(models)

    def __len__(self) -> int:
        return len(self.models)

    def member_probas(self, x: np.ndarray) -> np.ndarray:
        """(members, rows, classes) probabilities of every member."""
        return np.stack([m.predict_proba(x) for m in self.models])

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Ensemble probabilities: the member average."""
        return self.member_probas(x).mean(axis=0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most probable class under the averaged distribution."""
        return np.argmax(self.predict_proba(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Fraction classified correctly by the ensemble."""
        return float(np.mean(self.predict(x) == np.asarray(y)))

    def class_probability_std(self, x: np.ndarray) -> np.ndarray:
        """Per-row σ of the predicted class's probability across members —
        the uncertainty number Figure 4 reports."""
        member = self.member_probas(x)
        mean = member.mean(axis=0)
        winners = np.argmax(mean, axis=1)
        rows = np.arange(mean.shape[0])
        return member[:, rows, winners].std(axis=0)

    def predictive_entropy(self, x: np.ndarray) -> np.ndarray:
        """Entropy (nats) of the averaged distribution, per row."""
        probs = self.predict_proba(x)
        return -np.sum(probs * np.log(np.maximum(probs, 1e-300)), axis=1)

    def predict_with_uncertainty(self, x: np.ndarray) -> list[tuple[int, float]]:
        """(label, σ) per row — the user-facing output of the assignment.

        High σ signals "treat this prediction with suspicion"; what to do
        about it is, as the paper says, the application's decision.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        labels = self.predict(x)
        sigmas = self.class_probability_std(x)
        return [(int(l), float(s)) for l, s in zip(labels, sigmas)]
