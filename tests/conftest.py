"""Shared test fields and kernels."""

import dataclasses

import numpy as np

from lagtransport.fields import StructuredVectorField


def modulated_logistic_field(mu=0.3, a=0.5):
    """b1 = sin x with a fiber drift whose rate depends on x:
    b2 = mu (1 + a sin x) r (1 - r), div_r b2 = mu (1 + a sin x)(1 - 2r).

    No catalogue field has an x-dependent b2, so this one is where the
    x path each fiber sees actually matters."""

    def rate(x):
        return mu * (1.0 + a * np.sin(x[..., 0]))

    return StructuredVectorField(
        "modulated_logistic", 1, 1,
        b1_and_div=lambda x: (np.sin(x), np.cos(x[..., 0])),
        b2_and_div=lambda x, r: (rate(x)[..., None] * r * (1.0 - r),
                                 rate(x) * (1.0 - 2.0 * r[..., 0])),
    )


def sobolev_shear_field(alpha=0.5, mu=0.3):
    """A shear on n = 2, j = 1: b1 = (|x2|^alpha, 0), div b1 = 0, with
    the logistic fiber b2 = mu r (1 - r), which ignores x.

    b1 is in W^{1,p}_loc for p < 1/(1 - alpha) but not Lipschitz at
    x2 = 0, the setting of the paper's stability theorem, and its
    divergence is bounded.  Its flow is X1 = (x1 + t |x2|^alpha, x2), with
    logJ1 = 0."""

    def b1_and_div(x):
        out = np.zeros(x.shape)
        out[..., 0] = np.abs(x[..., 1]) ** alpha
        return out, np.zeros(x.shape[:-1])

    return StructuredVectorField(
        "sobolev_shear", 2, 1,
        b1_and_div=b1_and_div,
        b2_and_div=lambda x, r: (mu * r * (1.0 - r), mu * (1.0 - 2.0 * r[..., 0])),
        fiber_ignores_x=True,
    )


def counting_field(field, names):
    """`field` with the block callables `names` (`b1_and_div`,
    `b2_and_div`) rebound to count their calls; returns the field and its
    {name: calls} dict."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def call(*pts):
            calls[name] += 1
            return fn(*pts)
        return call

    counted = dataclasses.replace(
        field, **{name: counting(name, getattr(field, name)) for name in names}
    )
    return counted, calls


class Counting:
    """A callable, such as a kernel's gamma or factor, that counts its
    calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class PairCounting(Counting):
    """A kernel's gamma that counts its calls and keeps the (r, r~) value
    pairs it was evaluated at."""

    def __init__(self, fn):
        super().__init__(fn)
        self.pairs = []

    def __call__(self, r, rt):
        both = np.broadcast_arrays(r[..., 0], rt[..., 0])
        self.pairs.append(np.stack(both, axis=-1).reshape(-1, 2))
        return super().__call__(r, rt)

    def times_per_pair(self, nodes):
        """Nr x Nr: how often gamma was evaluated at each pair of `nodes`,
        which must hold every value it was evaluated at."""
        pairs = np.concatenate(self.pairs)
        idx = np.searchsorted(nodes, pairs)
        assert np.array_equal(nodes[idx], pairs)
        times = np.zeros((nodes.size, nodes.size), dtype=int)
        np.add.at(times, (idx[:, 0], idx[:, 1]), 1)
        return times


def same_bits(a, b):
    """Equal arrays whose zeros also carry the same signs."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
