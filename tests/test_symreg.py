"""Expression engine: decoding, canonical keys, variation, dominance."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_tree
from sagep.fields import ConfigError
from sagep.symreg import (
    Candidate,
    ExprTree,
    GepConfig,
    Genotype,
    StructureError,
    SymbolSet,
    bind_plan,
    canonical_key,
    crossover,
    crowding_distance,
    decode,
    dominance_matrix,
    evolve_generation,
    fast_nondominated_sort,
    literal,
    mutate,
    op_symbol,
    parse_expression,
    plan_eval,
    polynomial_plan,
    polynomials_eval,
    random_genotype,
    rank_population,
    select_survivors,
    terminal,
    tree_polynomial,
)

I1, I2, J1 = terminal("I1"), terminal("I2"), terminal("J1")
MUL, ADD, SUB, NEG = (op_symbol(n) for n in ("*", "+", "-", "neg"))


def make_genotype(*symbols, head_len):
    return Genotype(symbols=tuple(symbols), head_len=head_len)


def preorder(tree):
    """The tree's symbols in depth-first pre-order."""
    return [tree.node] + [s for child in tree.children
                          for s in preorder(child)]


# ---------------------------------------------------------------------------
# Decoding


class TestDecode:
    def test_prefix_worked_example(self):
        # [*, + | I1, I1, I2] reads as (I1 + I1) * I2
        g = make_genotype(MUL, ADD, I1, I1, I2, head_len=2)
        tree = decode(g)
        assert eval_tree(tree, {"I1": 1.0, "I2": 3.0}) == 6.0
        assert canonical_key(tree_polynomial(tree)) == "2.0*I1*I2"

    def test_one_symbol_edit_changes_phenotype(self):
        # Flipping the second head slot from + to * turns the sum into a square.
        g = make_genotype(MUL, MUL, I1, I1, I2, head_len=2)
        tree = decode(g)
        assert eval_tree(tree, {"I1": 1.0, "I2": 3.0}) == 3.0
        assert eval_tree(tree, {"I1": 2.0, "I2": 3.0}) == 12.0
        assert canonical_key(tree_polynomial(tree)) == "I1*I1*I2"

    def test_unused_tail_is_ignored(self):
        g = make_genotype(ADD, I1, I2, J1, J1, head_len=2)
        tree = decode(g)
        assert len(preorder(tree)) == 3
        assert eval_tree(tree, {"I1": 1.0, "I2": 2.0, "J1": 99.0}) == 3.0

    def test_single_terminal_head(self):
        g = make_genotype(I2, I1, I1, head_len=1)
        assert eval_tree(decode(g), {"I1": 0.0, "I2": 7.0}) == 7.0

    def test_operator_in_tail_rejected(self):
        g = make_genotype(ADD, ADD, I1, ADD, I2, head_len=2)
        with pytest.raises(StructureError):
            decode(g)

    def test_exhausted_genome_rejected(self):
        g = make_genotype(MUL, I1, head_len=1)
        # One leaf is not enough to close a binary operator.
        g = Genotype(symbols=(MUL, I1), head_len=2)
        with pytest.raises(StructureError):
            decode(g)

    def test_neg_is_unary(self):
        g = make_genotype(NEG, I1, I2, head_len=1)
        tree = decode(g)
        assert eval_tree(tree, {"I1": 4.0, "I2": -1.0}) == -4.0
        assert len(preorder(tree)) == 2


class TestGenotypeLayout:
    def test_tail_length_rule(self):
        cfg = GepConfig(head_len=8)
        assert cfg.tail_len == 9
        assert cfg.head_len + cfg.tail_len == 17

    def test_decode_rejects_tail_operator(self):
        g = make_genotype(ADD, ADD, I2, head_len=1)
        with pytest.raises(StructureError, match="in tail"):
            decode(g)

    def test_head_len_floor(self):
        with pytest.raises(ConfigError):
            GepConfig(head_len=0)


def assert_layout(g):
    """Operators only in the head, and the tail the GEP rule's length for
    binary operators."""
    assert all(s.is_leaf() for s in g.symbols[g.head_len:])
    assert len(g.symbols) - g.head_len == g.head_len + 1


@st.composite
def genotypes(draw, head_len=None):
    h = head_len if head_len is not None else draw(st.integers(1, 6))
    cfg = GepConfig(head_len=h, n_constants=2)
    symbols = SymbolSet.build(cfg, ("I1", "I2", "J1"), seed=0)
    head = draw(st.lists(st.sampled_from(symbols.heads), min_size=h,
                         max_size=h))
    tail = draw(st.lists(st.sampled_from(symbols.leaves),
                         min_size=cfg.tail_len, max_size=cfg.tail_len))
    return Genotype(symbols=tuple(head + tail), head_len=h)


class TestDecodeProperties:
    @given(genotypes())
    def test_every_layout_legal_string_decodes(self, g):
        assert_layout(g)
        tree = decode(g)
        assert tree.node in g.symbols

    @given(genotypes())
    def test_preorder_matches_consumed_prefix(self, g):
        tree = decode(g)
        walk = preorder(tree)
        assert tuple(walk) == g.symbols[: len(walk)]

    @given(genotypes(), st.integers(0, 2 ** 32 - 1))
    def test_decode_is_deterministic(self, g, _seed):
        assert preorder(decode(g)) == preorder(decode(g))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
    def test_random_genotype_is_valid(self, seed, head_len):
        cfg = GepConfig(head_len=head_len, n_constants=3)
        symbols = SymbolSet.build(cfg, ("I1", "J1"), seed=seed)
        g = random_genotype(np.random.default_rng(seed), cfg, symbols)
        assert_layout(g)
        decode(g)


# ---------------------------------------------------------------------------
# Evaluation and canonical keys


class TestEvaluation:
    def test_unknown_terminal_raises(self):
        tree = decode(make_genotype(ADD, I1, I2, head_len=1))
        with pytest.raises(KeyError):
            eval_tree(tree, {"I1": 1.0})

    def test_broadcasts_over_columns(self):
        tree = parse_expression("I1*I1 - I2")
        out = eval_tree(tree, {"I1": np.array([1.0, 2.0]),
                               "I2": np.array([0.0, 1.0])})
        assert np.array_equal(out, [1.0, 3.0])


class TestCanonicalKey:
    def test_argument_order_is_immaterial(self):
        left = decode(make_genotype(MUL, I2, ADD, I1, I1, I2, I1, head_len=3))
        right = decode(make_genotype(MUL, ADD, I1, I1, I2, I2, I1, head_len=3))
        assert (canonical_key(tree_polynomial(left))
                == canonical_key(tree_polynomial(right)) == "2.0*I1*I2")

    def test_self_cancellation_is_zero(self):
        tree = parse_expression("I1 - I1")
        assert canonical_key(tree_polynomial(tree)) == "0"

    def test_constant_folding_with_pool(self):
        # The run's constants are literal leaves: each folds into its
        # coefficient, and a zero drops the term.
        tree = decode(make_genotype(MUL, literal(2.0), I1, I1, I1, head_len=2))
        assert canonical_key(tree_polynomial(tree)) == "2.0*I1"
        zero = decode(make_genotype(MUL, literal(0.0), I1, I1, I1, head_len=2))
        assert canonical_key(tree_polynomial(zero)) == "0"

    def test_key_formatting(self):
        assert canonical_key({}) == "0"
        assert canonical_key({(): 3.0}) == "3.0"
        assert canonical_key({("I1",): 1.0}) == "I1"
        assert canonical_key({("I1",): -2.0, (): 1.0}) == "1.0 + -2.0*I1"

    @given(genotypes())
    def test_key_agrees_with_pointwise_evaluation(self, g):
        tree = decode(g)
        poly = tree_polynomial(tree)
        rng = np.random.default_rng(0)
        cols = {name: rng.normal(size=4) for name in ("I1", "I2", "J1")}
        direct = eval_tree(tree, cols)
        via_poly = polynomials_eval([poly], cols)[0]
        assert np.allclose(direct, via_poly, atol=1e-9, rtol=1e-9)

    @given(genotypes(), genotypes())
    def test_equal_keys_imply_equal_functions(self, a, b):
        ta, tb = decode(a), decode(b)
        if (canonical_key(tree_polynomial(ta))
                != canonical_key(tree_polynomial(tb))):
            return
        rng = np.random.default_rng(7)
        cols = {name: rng.normal(size=8) for name in ("I1", "I2", "J1")}
        assert np.allclose(eval_tree(ta, cols),
                           eval_tree(tb, cols),
                           atol=1e-8, rtol=1e-8)


VARS = ("I1", "I2", "J1")
# Coefficients up to 1e308 overflow to inf on columns up to 1e3, and a sum
# of infinities of both signs is nan.
coefficients = st.one_of(
    st.floats(-10.0, 10.0).filter(lambda c: c != 0.0),
    st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308]))
monomials = st.lists(st.sampled_from(VARS), max_size=4).map(
    lambda names: tuple(sorted(names)))
polynomials = st.one_of(
    st.dictionaries(monomials, coefficients, max_size=6),
    st.builds(lambda c: {(): c}, coefficients))


constant_polys = st.builds(lambda c: {(): c}, coefficients)
linear_polys = st.dictionaries(st.sampled_from([()] + [(v,) for v in VARS]),
                               coefficients, min_size=1, max_size=4)
cubic_polys = st.dictionaries(
    st.lists(st.sampled_from(VARS), min_size=3, max_size=3).map(
        lambda names: tuple(sorted(names))), coefficients, min_size=1,
    max_size=3)
factor_values = st.one_of(st.floats(-1e3, 1e3),
                          st.sampled_from([-0.0, np.inf, -np.inf, np.nan]))


def reference_plan_eval(plan, factors):
    """A plan's rows by its definition, row by row: each monomial is its
    coefficient times every one of its d factor rows, the ones included,
    and the terms are added in order from +0.0."""
    coefficients, index = plan
    k = factors.shape[1]
    total = np.zeros((len(coefficients), factors.shape[2]))
    for i, (row, factor_rows) in enumerate(zip(coefficients, index)):
        for coefficient, at in zip(row, factor_rows):
            term = coefficient
            for f in at:
                term = term * factors[f, i % k]
            total[i] += term
    return total


def poly_tree(poly):
    """The polynomial as a tree: each monomial as its coefficient times its
    variables, summed in key order; the empty polynomial is literal 0."""
    terms = [functools.reduce(
        lambda tree, var: ExprTree(MUL, (tree, ExprTree(terminal(var)))),
        mono, ExprTree(literal(poly[mono]))) for mono in sorted(poly)]
    return functools.reduce(lambda a, b: ExprTree(ADD, (a, b)), terms,
                            ExprTree(literal(0.0)))


class TestPolynomialEvaluation:
    """plan_eval is the one evaluator of the embedding, the symbolic
    benchmark and the channel: each batch row must be its polynomial
    alone, bit for bit."""

    @given(st.lists(polynomials, max_size=8), st.integers(1, 5), st.data())
    def test_rows_equal_each_polynomial_alone(self, polys, n, data):
        cols = {name: np.array(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=n, max_size=n))) for name in VARS}
        batch = polynomials_eval(polys, cols)
        assert batch.shape == (len(polys), n)
        for poly, row in zip(polys, batch):
            assert row.tobytes() == polynomials_eval([poly], cols)[0].tobytes()
            with np.errstate(all="ignore"):
                assert np.allclose(row, eval_tree(poly_tree(poly), cols),
                                   equal_nan=True)

    @given(st.lists(polynomials, min_size=1, max_size=8), st.integers(1, 5),
           st.data())
    def test_rows_on_their_own_factors_equal_each_alone(self, polys, n, data):
        # The channel's form: every row has its own factor values.
        k = len(polys)
        factors = np.ones((len(VARS) + 1, k, n))
        factors[:-1] = np.reshape(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=len(VARS) * k * n,
            max_size=len(VARS) * k * n)), (len(VARS), k, n))
        with np.errstate(all="ignore"):
            batch = plan_eval(polynomial_plan(polys, VARS), factors)
            for i, poly in enumerate(polys):
                alone = plan_eval(polynomial_plan([poly], VARS),
                                  factors[:, i:i + 1])
                assert batch[i].tobytes() == alone[0].tobytes()

    @given(st.lists(polynomials, min_size=1, max_size=4),
           st.lists(polynomials, min_size=1, max_size=4), st.data())
    def test_blocks_of_one_plan_share_the_factors(self, first, second, data):
        # The channel's g and alpha: a plan of two k-row blocks evaluates
        # each block on the same k factor rows, as two plans would.
        k = min(len(first), len(second))
        first, second = first[:k], second[:k]
        factors = np.ones((len(VARS) + 1, k, 3))
        factors[:-1] = np.reshape(data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=len(VARS) * k * 3,
            max_size=len(VARS) * k * 3)), (len(VARS), k, 3))
        with np.errstate(all="ignore"):
            joint = plan_eval(polynomial_plan(first + second, VARS), factors)
            apart = [plan_eval(polynomial_plan(polys, VARS), factors)
                     for polys in (first, second)]
        assert joint.tobytes() == np.vstack(apart).tobytes()

    @given(st.lists(st.one_of(constant_polys, linear_polys, cubic_polys),
                    min_size=1, max_size=6), st.integers(1, 4), st.data())
    def test_bound_plan_equals_the_definition_as_rows_leave(self, polys, n,
                                                             data):
        # The channel's use: a plan of two k-row blocks, bound once, then
        # bound again to the rows that stay, on factors that hold -0.0,
        # infinities and nans.
        k = len(polys)
        factors = np.ones((len(VARS) + 1, k, n))
        factors[:-1] = np.reshape(data.draw(st.lists(
            factor_values, min_size=len(VARS) * k * n,
            max_size=len(VARS) * k * n)), (len(VARS), k, n))
        plan = polynomial_plan(polys + polys[::-1], VARS)
        stay = np.array(data.draw(st.lists(st.booleans(), min_size=k,
                                           max_size=k)))
        kept = tuple(a[np.concatenate((stay, stay))] for a in plan)
        with np.errstate(all="ignore"):
            for plan, factors in ((plan, factors), (kept, factors[:, stay])):
                rows, j = 2 * factors.shape[1], factors.shape[1]
                out = np.full((rows, n), np.nan)
                got = plan_eval(bind_plan(plan, j), factors, out,
                                np.full(2 * rows * n + 3, np.nan))
                assert got is out
                assert got.tobytes() == plan_eval(plan, factors).tobytes()
                # The definition's bits, but for a nan's sign: of nan + nan,
                # numpy's add keeps either nan, by the element's place.
                want = reference_plan_eval(plan, factors)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_worked_example(self):
        cols = {"I1": np.array([1.0, 2.0]), "J1": np.array([3.0, -1.0])}
        polys = [{}, {(): 0.5}, {("I1", "J1"): 2.0, ("I1",): -1.0}]
        assert np.array_equal(polynomials_eval(polys, cols),
                              [[0.0, 0.0], [0.5, 0.5], [5.0, -6.0]])

    @pytest.mark.parametrize("k", [1, 3])
    def test_plan_without_monomials_is_positive_zeros(self, k):
        # The channel's r plan on cases with two slots: every row is {}.
        plan = polynomial_plan([{}] * k, VARS)
        assert plan[0].shape == (k, 0)
        factors = np.full((len(VARS) + 1, k, 4), -2.0)
        got = plan_eval(plan, factors)
        assert got.shape == (k, 4)
        assert got.tobytes() == np.zeros((k, 4)).tobytes()

    def test_unknown_terminal_raises(self):
        with pytest.raises(KeyError, match="Q"):
            polynomials_eval([{("Q",): 1.0}], {"I1": np.ones(2)})


class TestParseExpression:
    def test_reference_expression_shape(self):
        poly = tree_polynomial(parse_expression("0.945 - 2.108*J1"))
        assert poly == {(): 0.945, ("J1",): -2.108}

    def test_unary_minus(self):
        poly = tree_polynomial(parse_expression("-0.1 - I1"))
        assert poly == {(): -0.1, ("I1",): -1.0}

    def test_rejects_division(self):
        with pytest.raises(ConfigError):
            parse_expression("I1 / I2")

    def test_rejects_calls(self):
        with pytest.raises(ConfigError):
            parse_expression("exp(I1)")

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_expression("I1 +")

    @pytest.mark.parametrize("text", ["I1 + True", "False", "I1 * -True"])
    def test_rejects_bool_literals(self, text):
        # A bool is an int to Python, but not a number in an expression.
        with pytest.raises(ConfigError, match="unsupported syntax Constant"):
            parse_expression(text)


# ---------------------------------------------------------------------------
# Variation operators


class TestVariation:
    @given(genotypes(head_len=4), st.floats(0.0, 1.0), st.integers(0, 2 ** 16))
    def test_mutation_preserves_layout(self, g, rate, seed):
        symbols = SymbolSet.build(GepConfig(n_constants=2), ("I1", "I2", "J1"),
                                  seed)
        child = mutate(g, rate, np.random.default_rng(seed), symbols)
        assert len(child.symbols) == len(g.symbols)
        assert child.head_len == g.head_len
        assert_layout(child)

    def test_mutation_rate_zero_is_identity(self):
        cfg = GepConfig(head_len=4, n_constants=1)
        symbols = SymbolSet.build(cfg, ("I1",), seed=0)
        g = random_genotype(np.random.default_rng(1), cfg, symbols)
        assert mutate(g, 0.0, np.random.default_rng(2), symbols) == g

    @given(genotypes(head_len=3), genotypes(head_len=3), st.integers(0, 2 ** 16))
    def test_crossover_preserves_layout_and_symbols(self, a, b, seed):
        ca, cb = crossover(a, b, np.random.default_rng(seed))
        for child in (ca, cb):
            assert len(child.symbols) == len(a.symbols)
            assert_layout(child)
        merged = sorted(ca.symbols + cb.symbols, key=id)
        assert merged == sorted(a.symbols + b.symbols, key=id)

    def test_crossover_shape_mismatch_raises(self):
        a = make_genotype(ADD, I1, I2, head_len=1)
        b = make_genotype(ADD, I1, I1, I2, I2, head_len=2)
        with pytest.raises(StructureError):
            crossover(a, b, np.random.default_rng(0))


class TestAlphabets:
    CONFIG = GepConfig(head_len=4, operators=("+", "-", "*", "neg"),
                       n_constants=3)
    SYMBOLS = SymbolSet.build(CONFIG, ("I1", "I2", "J1"), seed=11)
    CONSTANTS = SYMBOLS.leaves[3:]

    def test_alphabets_equal_fresh_tuples_in_order(self):
        leaves = (I1, I2, J1) + tuple(literal(s.value) for s in self.CONSTANTS)
        assert self.SYMBOLS.leaves == leaves
        assert self.SYMBOLS.heads == (ADD, SUB, MUL, NEG) + leaves

    @pytest.mark.parametrize("seed", [0, 11, 2 ** 63])
    def test_constants_are_the_seeded_uniform_draw(self, seed):
        # The run's constants: one uniform draw over const_range, in order.
        cfg = GepConfig(n_constants=5, const_range=(-3.0, 0.5))
        leaves = SymbolSet.build(cfg, ("I1",), seed).leaves
        drawn = np.random.default_rng(seed).uniform(-3.0, 0.5, size=5)
        assert [s.kind for s in leaves[1:]] == ["lit"] * 5
        assert [s.value for s in leaves[1:]] == drawn.tolist()
        assert SymbolSet.build(GepConfig(n_constants=0), ("I1",),
                               seed).leaves == (I1,)

    def test_alphabets_are_built_once(self):
        # Draws hand out the alphabet's own symbols; none is built per draw.
        rng = np.random.default_rng(3)
        g = random_genotype(rng, self.CONFIG, self.SYMBOLS)
        drawn = g.symbols + mutate(g, 1.0, rng, self.SYMBOLS).symbols
        owned = {id(s) for s in self.SYMBOLS.heads}
        assert all(id(s) in owned for s in drawn)

    def test_seeded_draws_pinned(self):
        # A draw indexes into the alphabets, so reordering either one
        # changes these strings.
        def render(g):
            return " ".join(s.name if s.kind in ("op", "term")
                            else f"c{self.CONSTANTS.index(s)}"
                            for s in g.symbols)

        rng = np.random.default_rng(7)
        drawn = []
        for _ in range(2):
            g = random_genotype(rng, self.CONFIG, self.SYMBOLS)
            drawn += [render(g), render(mutate(g, 0.5, rng, self.SYMBOLS))]
        assert drawn == ["c2 J1 J1 c1 c0 c1 c2 I2 I1",
                         "c2 neg J1 c1 J1 c0 c0 c0 c0",
                         "c2 c1 c0 c0 c0 J1 c2 J1 I2",
                         "* c1 I1 neg c0 I2 c2 J1 I2"]


# ---------------------------------------------------------------------------
# Dominance, fronts, survivors


def brute_dominates(a, b):
    """Reference Pareto dominance (minimization), one pair at a time."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def check_sort_against_brute_force(rows):
    objs = np.asarray(rows, dtype=float)
    fronts = fast_nondominated_sort(objs)
    seen = sorted(i for front in fronts for i in front)
    assert seen == list(range(len(rows)))
    # Brute-force front index: strip nondominated layers one by one.
    # Each front must also be in ascending order, which crowding ties
    # and survivor order depend on.
    remaining = set(range(len(rows)))
    for front in fronts:
        expect = {i for i in remaining
                  if not any(brute_dominates(rows[j], rows[i])
                             for j in remaining if j != i)}
        assert front == sorted(expect)
        remaining -= expect


def reference_dominance(objs):
    """Dominance as one 3-D broadcast: [i, j] when row i dominates row j."""
    a, b = objs[:, None, :], objs[None, :, :]
    return np.all(a <= b, axis=2) & np.any(a < b, axis=2)


@st.composite
def objective_matrices(draw):
    """(n, p) matrices, p in 1-4 and n in 0-40, whose entries come from a
    few floats (NaN and +-inf included) and whose rows repeat."""
    p = draw(st.integers(1, 4))
    values = draw(st.lists(
        st.floats() | st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]),
        min_size=1, max_size=5))
    rows = draw(st.lists(st.lists(st.sampled_from(values),
                                  min_size=p, max_size=p),
                         min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=40))
    return np.array([rows[i] for i in picks], dtype=float).reshape(-1, p)


class TestDominance:
    def test_strict_dominance(self):
        # A dominated row lands in a later front than its dominator; equal
        # rows and trade-offs share a front.
        def fronts(rows):
            return fast_nondominated_sort(np.array(rows))

        assert fronts([(1.0, 1.0), (2.0, 2.0)]) == [[0], [1]]
        assert fronts([(1.0, 3.0), (1.0, 2.0)]) == [[1], [0]]
        assert fronts([(1.0, 2.0), (1.0, 2.0)]) == [[0, 1]]
        assert fronts([(1.0, 3.0), (2.0, 2.0)]) == [[0, 1]]

    def test_tradeoff_points_share_first_front(self):
        fronts = fast_nondominated_sort(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert fronts == [[0, 1]]

    def test_dominated_point_in_second_front(self):
        fronts = fast_nondominated_sort(np.array([[2.0, 2.0], [1.0, 1.0]]))
        assert fronts == [[1], [0]]

    def test_empty_input_has_no_fronts(self):
        assert fast_nondominated_sort(np.empty((0, 3))) == []

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=12))
    def test_sort_against_brute_force(self, rows):
        check_sort_against_brute_force(rows)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 3)),
                    min_size=1, max_size=12))
    def test_sort_against_brute_force_three_objectives(self, rows):
        check_sort_against_brute_force(rows)

    @given(objective_matrices())
    def test_dominance_matrix_matches_reference(self, objs):
        got = dominance_matrix(objs)
        assert got.dtype == bool and got.shape == (len(objs), len(objs))
        assert np.array_equal(got, reference_dominance(objs))

    def test_dominance_matrix_on_ties_infinities_and_nan(self):
        inf, nan = np.inf, np.nan
        objs = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, inf], [-inf, 2.0],
                         [nan, 0.0], [1.0, 1.0]])
        expect = np.zeros((6, 6), dtype=bool)
        expect[[0, 1, 5], 2] = True  # inf in the second objective loses
        expect[3, [0, 1, 2]] = True  # -inf in the first objective wins
        expect[5, [0, 1]] = True
        # Equal rows never dominate each other and the NaN row takes no part.
        assert np.array_equal(dominance_matrix(objs), expect)
        assert np.array_equal(expect, reference_dominance(objs))


    def test_crowding_boundary_points_infinite(self):
        objs = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        dist = crowding_distance(objs)
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert np.isfinite(dist[1]) and dist[1] > 0

    def test_crowding_small_sets_infinite(self):
        assert np.isinf(crowding_distance(np.array([[1.0, 2.0]]))).all()
        assert np.isinf(crowding_distance(np.array([[1.0, 2.0],
                                                    [2.0, 1.0]]))).all()


def _candidate(cid, objectives):
    return Candidate(genotypes=(), id=cid,
                     objectives=tuple(objectives))


class TestRanking:
    def test_sentinel_rows_form_final_front(self):
        pop = [_candidate(0, (1.0, 1.0)),
               _candidate(1, (9999.0, 9999.0)),
               _candidate(2, (0.5, 2.0)),
               _candidate(3, (np.nan, 1.0))]
        ranks = rank_population(pop)
        finite_ranks = {ranks[0][0], ranks[2][0]}
        assert ranks[1] == ranks[3]
        assert ranks[1][0] > max(finite_ranks)
        assert ranks[1][1] == 0.0

    def test_candidate_without_objectives_rejected(self):
        pop = [_candidate(0, (1.0, 1.0)),
               Candidate(genotypes=(), id=7)]
        with pytest.raises(ValueError, match="candidate 7"):
            rank_population(pop)

    def test_select_survivors_prefers_rank_then_spread(self):
        pop = [_candidate(0, (1.0, 1.0)),
               _candidate(1, (2.0, 2.0)),
               _candidate(2, (0.0, 3.0)),
               _candidate(3, (3.0, 0.0))]
        keep = select_survivors(pop, 3)
        kept = {c.id for c in keep}
        assert 1 not in kept
        assert len(keep) == 3

    def test_evolve_generation_shapes(self):
        cfg = GepConfig(head_len=4, n_constants=2)
        symbols = SymbolSet.build(cfg, ("I1", "I2"), seed=0)
        rng = np.random.default_rng(5)
        pop = []
        for i in range(6):
            pop.append(Candidate(genotypes=(random_genotype(rng, cfg, symbols),
                                            random_genotype(rng, cfg, symbols)),
                                 id=i,
                                 objectives=(float(i), float(5 - i))))
        ranks = rank_population(pop)
        # Invalid pairing of ranks and population must be rejected upstream;
        # here we check the offspring contract.
        children = evolve_generation(pop, ranks, rng, cfg, symbols,
                                     n_offspring=8, first_id=100)
        assert len(children) == 8
        assert [c.id for c in children] == list(range(100, 108))
        for child in children:
            assert len(child.genotypes) == 2
            for g in child.genotypes:
                assert_layout(g)
