import numpy as np
import pytest

from microlocal import expr as ex


def test_parse_format_roundtrip():
    texts = ["(+ (* 2 (v 0)) (exp (norm (v 1) (v 2))) (/ 1 (- (v 0) 3)))"]
    texts += [f"({tok} (v 0) (v 1))" for tok in ("+", "*", "/", "norm")]
    texts += [f"({k} (+ 1 (v 0)))" for k in ex._ANALYTIC]
    texts += ["(pow (v 0) 3)", "(pow (v 0) -2)", "(pow (v 0) 0.5)", "(neg (v 0))",
              "(- (v 0))", "(- (v 0) (v 1))", "(* pi i (v 2))", "(+ I (v 0))"]
    assert set(ex._TOKEN.values()) <= {t.split()[0][1:] for t in texts}
    for text in texts:
        e = ex.parse_sexpr(text)
        assert ex.parse_sexpr(ex.format_sexpr(e)) == e


def test_evaluate_vectorized():
    e = ex.parse_sexpr("(+ (pow (v 0) 2) (sin (v 1)))")
    x = np.array([1.0, 2.0])
    y = np.array([0.0, np.pi / 2])
    v = ex.evaluate(e, [x, y])
    assert np.allclose(v, [1.0, 5.0])


def test_constant_folding_and_collection():
    x = ex.var(0)
    e = ex.add(ex.mul(2.0, x), ex.mul(3.0, x), ex.const(1.0), ex.const(-1.0))
    assert e == ex.mul(5.0, x)
    assert ex.sub(e, ex.mul(5.0, x)).is_zero()


def test_distribution_enables_cancellation():
    x, y = ex.var(0), ex.var(1)
    s = ex.add(ex.mul(0.37, x), ex.mul(1.21, x, y))
    e = ex.add(ex.mul(ex.I, ex.mul(ex.const(-1j), s)), ex.neg(s))
    assert e.is_zero()


def test_diff_product_chain():
    x = ex.var(0)
    e = ex.mul(ex.sin(x), ex.cos(x))
    d = ex.diff(e, 0)
    xs = np.linspace(-1.0, 1.0, 7)
    got = ex.evaluate(d, [xs])
    assert np.allclose(got, np.cos(2 * xs))


def test_diff_norm():
    e = ex.norm(ex.var(0), ex.var(1))
    d = ex.diff(e, 0)
    v = ex.evaluate(d, [np.array([3.0]), np.array([4.0])])
    assert np.allclose(v, 0.6)


def test_subst():
    e = ex.mul(ex.var(0), ex.var(1))
    sub = ex.subst(e, {1: ex.add(ex.var(0), 1.0)})
    v = ex.evaluate(sub, [np.array([2.0])])
    assert np.allclose(v, 6.0)


def test_conj_on_real_locus():
    e = ex.add(ex.mul(ex.const(1j), ex.var(0)), ex.exp(ex.var(0)))
    c = ex.conj(e)
    x = np.array([0.7])
    assert np.allclose(ex.evaluate(c, [x]), np.conj(ex.evaluate(e, [x])))


def test_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.div(ex.ONE, ex.var(0)), [np.array([0.0])])
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.log(ex.var(0)), [np.array([0.0])])
    with pytest.raises(ex.DomainError, match=r"radial node \(norm \(v 0\)\) evaluated"):
        ex.evaluate(ex.norm(ex.var(0)), [np.array([1e-12])])
    with pytest.raises(ex.DomainError, match=r"argument v0 evaluating \(exp \(v 0\)\)"):
        ex.evaluate(ex.exp(ex.var(0)), [np.array([np.nan])])
    big = ex.add(*[ex.mul(k + 0.5, ex.powi(ex.var(0), k)) for k in range(1, 120)])
    assert len(ex.format_sexpr(big)) > 2000
    with pytest.raises(ex.DomainError) as info:
        ex.evaluate(big, [np.array([np.nan])])
    assert len(str(info.value)) <= 300


def test_norm_principal_branch_complex():
    e = ex.norm(ex.var(0), ex.var(1))
    v = ex.evaluate(e, [np.array([3.0 + 0.1j]), np.array([4.0 - 0.2j])])
    assert abs(v[0] - np.sqrt((3 + 0.1j) ** 2 + (4 - 0.2j) ** 2)) < 1e-14


def test_parse_errors():
    # a wrong arity must raise ValueError, never TypeError: the CLI catches
    # only the former
    for text in ["(+ 1", "(frobnicate 1)", "1 2", "(sin 1 2)", "(/ 1)", "(pow (v 0))",
                 "(norm)", "(exp)", "(neg 1 2)", "(- 1 2 3)", "(v)", "(v 0 1)",
                 "(pow (v 0) 2 3)"]:
        with pytest.raises(ValueError):
            ex.parse_sexpr(text)


def test_overflow_names_innermost_node():
    e = ex.add(ex.var(0), ex.exp(ex.mul(1000, ex.var(0))))
    with pytest.raises(ex.DomainError) as info:
        ex.evaluate(e, [np.array([1.0])])
    assert str(info.value) == "overflow encountered in exp evaluating (exp (* 1000 (v 0)))"


def test_diff_of_each_primitive():
    u = ex.add(ex.mul(2, ex.var(0)), ex.mul(ex.var(0), ex.var(1)))
    du = ex.add(2, ex.var(1))
    expected = {
        "exp": ex.mul(ex.exp(u), du),
        "log": ex.mul(ex.div(ex.ONE, u), du),
        "sin": ex.mul(ex.cos(u), du),
        "cos": ex.mul(ex.const(-1), ex.sin(u), du),
        "sinh": ex.mul(ex.cosh(u), du),
        "cosh": ex.mul(ex.sinh(u), du),
    }
    assert set(expected) == set(ex._ANALYTIC)
    for kind, want in expected.items():
        ctor = getattr(ex, kind)
        assert ctor.__name__ == kind
        assert ex.diff(ctor(u), 0) == want
