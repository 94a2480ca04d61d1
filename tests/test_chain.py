"""The FD operator read as a birth-death chain (``oracle._chain_apply``).

The differences of any function g on the nodes intertwine the chain with
its gradient chain M on the cell edges: M (D g) = D (A g), where D takes
differences and A is the generator's matrix, h^{-1/2} S h^{1/2} for the
symmetric S that ``discretize`` builds.  M's off-diagonal entries are
non-positive, so for every positive w on the edges its killing rate
(M w)/w brackets the spectral gap: min (M w)/w <= lambda_1 <= max (M w)/w
(Collatz-Wielandt; Chen's variational formula for birth-death chains),
with lambda_1 from LAPACK."""

import functools

import numpy as np
import pytest

from diffgap import gallery as gal
from diffgap import model as md
from diffgap import oracle as orc

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODELS = {
    "ou": lambda: gal.gallery_model("ou"),
    "quartic": lambda: gal.gallery_model("quartic"),
    "double-well(0.5)": lambda: gal.gallery_model("double-well", beta=0.5),
    "power(1.5)": lambda: gal.gallery_model("power", alpha=1.5),
    "smoothed-exponential": lambda: gal.gallery_model("smoothed-exponential"),
    "cauchy": lambda: gal.gallery_model("cauchy"),
    # reflecting interval with a varying diffusion and an asymmetric drift
    "interval": lambda: md.build_model(sigma="1+x^2/4", drift="1-2*x", domain=(0.0, 1.0),
                                       boundary="neumann", name="interval"),
}
SIZES = [128, 160, 256]  # every model's eigenvector increases across every edge


@functools.lru_cache(maxsize=None)
def chain(name: str, n: int, R: float | None = None):
    """The operator, LAPACK's gap and the eigenvector's edge differences."""
    op = orc.discretize(MODELS[name](), R=R, n=n)
    lam = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 2)
    psi = orc.eigenvector(op, lam)
    u = np.diff(psi * np.exp(-0.5 * (op.log_weights - np.max(op.log_weights))))
    return op, lam, u * np.sign(u[len(u) // 2])


def vectors(n: int):
    return st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n).map(np.array)


@st.composite
def edge_vectors(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    op, lam, u = chain(name, draw(st.sampled_from(SIZES)))
    z = draw(vectors(len(u)))
    if draw(st.booleans()):
        return op, lam, np.exp(z)  # any positive vector
    return op, lam, u * np.exp(draw(st.sampled_from([1e-6, 1e-4, 1e-2])) * z)  # near u


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(edge_vectors())
def test_killing_rate_brackets_the_gap(case):
    op, lam, w = case
    v = orc._chain_apply(op, w) / w
    assert np.min(v) <= lam <= np.max(v)


@st.composite
def node_vectors(draw):
    # a short window keeps h^(+-1/2) within floating range on every model; no
    # nonzero entry of g lies below 1e-100, where the identity's round-off
    # would be subnormal and so not relative to g
    op, _, _ = chain(draw(st.sampled_from(sorted(MODELS))), draw(st.sampled_from(SIZES)), 4.0)
    entry = st.one_of(st.just(0.0), st.floats(1e-100, 3.0), st.floats(-3.0, -1e-100))
    return op, draw(st.lists(entry, min_size=len(op.grid), max_size=len(op.grid)).map(np.array))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(node_vectors())
def test_gradient_chain_intertwines_the_generator(case):
    op, g = case
    half = np.exp(0.5 * (op.log_weights - np.max(op.log_weights)))
    hg = half * g
    s_hg = op.diag * hg
    s_hg[:-1] += op.offdiag * hg[1:]
    s_hg[1:] += op.offdiag * hg[:-1]
    want = np.diff(s_hg / half)
    got = orc._chain_apply(op, np.diff(g))
    scale = np.max(op.diag) * np.max(np.abs(g))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
