"""The per-parameter work of a training step as it ran one array, one
interest and one tape node at a time: the oracles for interest extraction
as one product, the regularization as one tape node and the in-place Adam.
"""

import numpy as np

from ckml import autodiff as ad
from ckml.trainer import Adam


def per_interest_extract(y_star, groups, slope):
    """`cie.extract_interests` as one product, bias add, LeakyReLU and
    reshape per interest, and one concat per group."""
    stacks = []
    for projections in groups:
        pieces = []
        for W, b in projections:
            z = ad.leaky_relu(ad.matmul(y_star, W) + b, slope)
            pieces.append(z.reshape(z.shape[0], 1, z.shape[1]))
        stacks.append(ad.concat(pieces, axis=1) if pieces else None)
    return stacks


def tape_regularization(params):
    """`objective.regularization_term` as a square, a sum and an add on the
    tape per array."""
    return ad.add_all([(t * t).sum() for t in params.values()])


class AllocatingAdam(Adam):
    """`Adam.step` computing each expression into a fresh array."""

    def step(self, params, grads, lr):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
