import numpy as np
import pytest

from microlocal.quadrature import gauss_panels, gauss_rule


def _panel_loop(edges, order):
    # reference: the per-panel loop that gauss_panels replaces
    nodes, weights = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    for i in range(len(edges) - 1):
        mid = 0.5 * (edges[i] + edges[i + 1])
        half = 0.5 * (edges[i + 1] - edges[i])
        xs.append(mid + half * nodes)
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


_rng = np.random.default_rng(11)
EDGE_SETS = {
    "uniform": np.linspace(1e-9, 40.0, 121),
    "dyadic": np.concatenate([[0.0], 4.0 * 2.0 ** np.arange(-18.0, 1.0)]),
    "irregular": np.unique(np.concatenate([[0.0], 7.3 * 2.0 ** (-np.arange(44.0)),
                                           np.sort(_rng.uniform(-3.0, 7.3, 37))])),
}


@pytest.mark.parametrize("name", sorted(EDGE_SETS))
@pytest.mark.parametrize("order", [6, 10, 12, 16])
def test_bit_identical_to_panel_loop(name, order):
    edges = EDGE_SETS[name]
    x, w = gauss_panels(edges, order)
    x_ref, w_ref = _panel_loop(edges, order)
    assert x.tobytes() == x_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()


@pytest.mark.parametrize("order", [1, 4, 8, 12])
def test_exact_for_polynomials(order):
    rng = np.random.default_rng(order)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 9)), [2.0]])
    x, w = gauss_panels(edges, order)
    for deg in range(2 * order):
        p = np.polynomial.Polynomial(rng.uniform(0.5, 1.5, deg + 1))
        exact = p.integ()(2.0)
        assert abs(np.sum(p(x) * w) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("order", [1, 10, 12, 16])
def test_gauss_rule_is_leggauss_read_only(order):
    x, w = gauss_rule(order)
    x_ref, w_ref = np.polynomial.legendre.leggauss(order)
    assert x.tobytes() == x_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()
    assert gauss_rule(order)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
