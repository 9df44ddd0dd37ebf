import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solitonlab.expressions import (
    Binary,
    Const,
    EvalDomainError,
    ParseError,
    Unary,
    Var,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    to_source,
    variables,
)

COORDS = ("t", "x", "y", "z")


class TestParse:
    def test_function_call(self):
        e = parse("exp(2*t)", COORDS)
        assert e == Unary("exp", Binary("mul", Const(2.0), Var("t")))

    def test_negative_literal_folds(self):
        assert parse("-1", COORDS) == Const(-1.0)

    def test_unclosed_call_reports_end_offset(self):
        with pytest.raises(ParseError) as err:
            parse("q(", COORDS)
        assert err.value.offset == 2

    def test_unknown_function_reports_name_offset(self):
        with pytest.raises(ParseError) as err:
            parse("ex(2*t)", COORDS)
        assert err.value.offset == 0
        assert err.value.token == "ex"

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("t + w", COORDS)
        assert err.value.token == "w"
        assert err.value.offset == 4

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ", COORDS)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("t t", COORDS)

    def test_offset_within_input(self):
        for bad in ["q(", "1 +", "((t)", "t ^", "sin t"]:
            with pytest.raises(ParseError) as err:
                parse(bad, COORDS)
            assert 0 <= err.value.offset <= len(bad)

    def test_precedence(self):
        # pow > unary minus > mul > add; pow right-assoc
        assert parse("-t^2", COORDS) == Unary("neg", Binary("pow", Var("t"), Const(2.0)))
        assert parse("2^3^2", COORDS) == Binary(
            "pow", Const(2.0), Binary("pow", Const(3.0), Const(2.0))
        )
        assert parse("1-2-3", COORDS) == Binary(
            "sub", Binary("sub", Const(1.0), Const(2.0)), Const(3.0)
        )
        assert evaluate(parse("2+3*4^2", COORDS), {}) == 50.0

    def test_whitespace_insensitive(self):
        assert parse(" exp( 2 * t )", COORDS) == parse("exp(2*t)", COORDS)

    def test_determinism(self):
        assert parse("sin(x)*cosh(y)-t/z", COORDS) == parse("sin(x)*cosh(y)-t/z", COORDS)


class TestEvaluate:
    def test_exp_at_zero(self):
        assert evaluate(parse("exp(2*t)", COORDS), {"t": 0.0}) == 1.0

    def test_exp_at_one(self):
        # e^2 to machine precision, frozen from an independent evaluation
        assert evaluate(parse("exp(2*t)", COORDS), {"t": 1.0}) == pytest.approx(
            7.389056098930650, abs=1e-14
        )

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/t", COORDS), {"t": 0.0})

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(t)", COORDS), {"t": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("t^(1/2)", COORDS), {"t": -4.0})

    def test_missing_coordinate(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x", COORDS), {"t": 0.0})


class TestDifferentiate:
    def _check(self, text, var, expected_fn, samples):
        e = parse(text, COORDS)
        d = differentiate(e, var)
        for s in samples:
            assert evaluate(d, s) == pytest.approx(expected_fn(s), rel=1e-12, abs=1e-12)

    def test_chain_rule_exp(self):
        self._check("exp(2*t)", "t", lambda s: 2 * math.exp(2 * s["t"]), [{"t": v} for v in (-1.0, 0.0, 0.7)])

    def test_other_variable_is_zero(self):
        assert differentiate(parse("exp(2*t)", COORDS), "x") == Const(0.0)

    def test_power_rule(self):
        self._check(
            "t^(1/2)", "t", lambda s: 0.5 * s["t"] ** -0.5, [{"t": v} for v in (0.25, 1.0, 4.0)]
        )

    def test_quotient_and_product(self):
        self._check(
            "t*x/(1+t^2)",
            "t",
            lambda s: s["x"] * (1 - s["t"] ** 2) / (1 + s["t"] ** 2) ** 2,
            [{"t": 0.3, "x": 2.0}, {"t": -1.2, "x": 0.5}],
        )

    def test_variable_exponent(self):
        self._check(
            "x^t",
            "t",
            lambda s: s["x"] ** s["t"] * math.log(s["x"]),
            [{"t": 0.7, "x": 2.0}, {"t": -0.5, "x": 3.0}],
        )

    def test_trig_and_hyperbolic(self):
        self._check("sin(t)", "t", lambda s: math.cos(s["t"]), [{"t": 0.4}])
        self._check("cos(t)", "t", lambda s: -math.sin(s["t"]), [{"t": 0.4}])
        self._check("sinh(t)", "t", lambda s: math.cosh(s["t"]), [{"t": 0.4}])
        self._check("cosh(t)", "t", lambda s: math.sinh(s["t"]), [{"t": 0.4}])


# corpus of expressions whose domain covers the sampling box below
_CORPUS = [
    "exp(2*t)",
    "t^2 + x*y - z",
    "sin(t)*cos(x)",
    "sinh(x)+cosh(y)",
    "(1+t^2)^(1/2)",
    "exp(t)/(2+cos(x))",
    "log(2+t^2)",
    "t^3 - 2*t + 1",
]


@settings(max_examples=40, deadline=None)
@given(
    expr_text=st.sampled_from(_CORPUS),
    t=st.floats(-1.5, 1.5),
    x=st.floats(-1.5, 1.5),
    y=st.floats(-1.5, 1.5),
    z=st.floats(-1.5, 1.5),
    var=st.sampled_from(COORDS),
)
def test_derivative_matches_central_difference(expr_text, t, x, y, z, var):
    e = parse(expr_text, COORDS)
    point = {"t": t, "x": x, "y": y, "z": z}
    h = 1e-5
    up = dict(point)
    dn = dict(point)
    up[var] += h
    dn[var] -= h
    fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
    sym = evaluate(differentiate(e, var), point)
    assert abs(sym - fd) <= 1e-6


def _exprs(depth):
    """Parser-shaped trees: unary minus never wraps a bare literal."""
    consts = st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
    ).map(lambda v: Const(float(v)))
    leaves = st.one_of(consts, st.sampled_from([Var(c) for c in COORDS]))

    def extend(children):
        funcs = st.sampled_from(["exp", "log", "sin", "cos", "sinh", "cosh", "sqrt"])
        ops = st.sampled_from(["add", "sub", "mul", "div", "pow"])
        return st.one_of(
            st.builds(Unary, funcs, children),
            st.builds(Unary, st.just("neg"), children.filter(lambda e: not isinstance(e, Const))),
            st.builds(Binary, ops, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=depth)


@settings(max_examples=150, deadline=None)
@given(expr=_exprs(12))
@example(expr=Binary("pow", Const(-0.0), Const(0.0)))
def test_print_parse_round_trip(expr):
    assert parse(to_source(expr), COORDS) == expr


@settings(max_examples=150, deadline=None)
@given(
    expr=_exprs(12),
    point=st.lists(st.just(0.0) | st.floats(-2.0, 2.0), min_size=4, max_size=4),
    negative=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_the_sign_of_a_zero_coordinate_changes_no_value(expr, point, negative):
    # zero coordinates given as -0.0 rather than 0.0: the compiled expression
    # gives the same float, but for the sign of a zero (two NaN count as the
    # same), or the same EvalDomainError message.  So a point's -0.0 may be
    # read as 0.0 (geometry.PointGeometry)
    fn = compile_expr(expr, COORDS)

    def outcome(p):
        try:
            return fn(*p)
        except EvalDomainError as exc:
            return str(exc)

    canonical = [v + 0.0 for v in point]
    signed = [-0.0 if v == 0.0 and neg else v for v, neg in zip(canonical, negative)]
    a, b = outcome(canonical), outcome(signed)
    if isinstance(a, float) and isinstance(b, float):
        assert a == b or (math.isnan(a) and math.isnan(b))
    else:
        assert a == b


@settings(max_examples=40, deadline=None)
@given(
    expr_text=st.sampled_from(_CORPUS),
    t=st.floats(-1.5, 1.5),
    x=st.floats(-1.5, 1.5),
)
def test_compiled_matches_interpreter(expr_text, t, x):
    e = parse(expr_text, COORDS)
    fn = compile_expr(e, COORDS)
    point = {"t": t, "x": x, "y": 0.3, "z": -0.2}
    assert fn(t, x, 0.3, -0.2) == pytest.approx(evaluate(e, point), rel=1e-15, abs=0)


def test_compiled_domain_error():
    fn = compile_expr(parse("1/t", COORDS), COORDS)
    with pytest.raises(EvalDomainError):
        fn(0.0, 0.0, 0.0, 0.0)


def test_variables():
    assert variables(parse("exp(2*t)+x", COORDS)) == {"t", "x"}
