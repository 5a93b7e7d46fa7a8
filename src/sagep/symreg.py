"""Linear-genotype symbolic regression engine.

Candidate model expressions live as fixed-length symbol strings split into a
head (operators and leaves allowed) and a tail (leaves only).  With head
length h and maximum operator arity a_max, a tail of length
h * (a_max - 1) + 1 guarantees that a depth-first pre-order decode always
finds enough leaves to close the tree, so every genotype is a valid
expression.  Variation operators (point mutation, one-point crossover) act on
the linear string and therefore never produce syntactically broken offspring.

GepConfig, the run's `gep` config block, checks the engine's parameters
once, at load.  A run builds its alphabet (SymbolSet) from it, the
evaluator's terminals and a seed; the run's constants are drawn from the
configured range and join the alphabet as literal leaves.

Phenotypes are compared through a canonical polynomial form.  The operator
set is restricted to ring operations (+, -, *, unary negation) precisely so
that expansion into a monomial-coefficient map is exact and two genotypes
with the same key are the same function.

Multi-objective fitness handling (non-dominated sorting, crowding distance,
mu + lambda survivor truncation) follows the standard NSGA-II scheme, with
one extension: candidates carrying the divergence sentinel in any objective
are demoted behind every finitely-ranked front.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fields import ConfigError, check_fields

__all__ = [
    "DIVERGENCE_SENTINEL",
    "OP_TABLE",
    "Symbol",
    "GepConfig",
    "SymbolSet",
    "Genotype",
    "ExprTree",
    "Candidate",
    "StructureError",
    "op_symbol",
    "terminal",
    "literal",
    "random_genotype",
    "decode",
    "tree_polynomial",
    "polynomial_plan",
    "bind_plan",
    "plan_eval",
    "polynomials_eval",
    "canonical_key",
    "parse_expression",
    "mutate",
    "crossover",
    "dominance_matrix",
    "fast_nondominated_sort",
    "crowding_distance",
    "rank_population",
    "evolve_generation",
    "select_survivors",
]

# Objective value standing in for a failed expensive evaluation.  Kept well
# above any realistic normalized error so sentinel rows are always dominated.
DIVERGENCE_SENTINEL = 9999.0


class StructureError(ValueError):
    """A genotype or tree violates the head/tail layout contract."""


# name -> arity.  The operators are the ring operations `tree_polynomial`
# expands.
OP_TABLE: dict[str, int] = {"+": 2, "-": 2, "*": 2, "neg": 1}


@dataclass(frozen=True)
class Symbol:
    """One slot of a genotype.

    kind is one of "op", "term", "lit".  Operators carry their arity,
    terminals their feature name, and literals a float: one of the run's
    constants, or a number in a parsed expression.
    """

    kind: str
    name: str = ""
    arity: int = 0
    value: float = 0.0

    def is_leaf(self) -> bool:
        return self.kind != "op"


def op_symbol(name: str) -> Symbol:
    return Symbol(kind="op", name=name, arity=OP_TABLE[name])


def terminal(name: str) -> Symbol:
    return Symbol(kind="term", name=name)


def literal(value: float) -> Symbol:
    return Symbol(kind="lit", value=float(value))


@dataclass(frozen=True)
class GepConfig:
    """The `gep` config block: the engine's parameters, independent of the
    evaluation problem, each checked here once."""

    head_len: int = 8
    operators: tuple[str, ...] = ("+", "-", "*")
    n_constants: int = 5
    const_range: tuple[float, float] = (-2.0, 2.0)
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9

    def __post_init__(self):
        check_fields(self)
        if not self.operators or not set(self.operators) <= set(OP_TABLE):
            raise ConfigError(f"operators must be a non-empty list of "
                              f"{list(OP_TABLE)}, got {list(self.operators)}")
        if self.head_len < 1:
            raise ConfigError("head_len must be >= 1")
        if self.n_constants < 0:
            raise ConfigError("n_constants must be >= 0")
        for name in ("mutation_rate", "crossover_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        # The constants are drawn from the range, so its width is a float.
        low, high = self.const_range
        if not low < high or not math.isfinite(float(high) - float(low)):
            raise ConfigError("const_range must be (low, high) with low < "
                              f"high and a finite width, got {(low, high)!r}")

    @property
    def tail_len(self) -> int:
        arity = max(OP_TABLE[name] for name in self.operators)
        return self.head_len * (arity - 1) + 1


@dataclass(frozen=True)
class SymbolSet:
    """The alphabet a run draws genotypes from: head slots take any of
    `heads`, tail slots any of `leaves`.  A draw indexes into these, so
    their order is fixed: operators, then terminals, then the run's
    constants, drawn from `const_range` with the seed."""

    heads: tuple[Symbol, ...]
    leaves: tuple[Symbol, ...]

    @classmethod
    def build(cls, config: GepConfig, terminals: Sequence[str],
              seed: int) -> "SymbolSet":
        constants = np.random.default_rng(seed).uniform(
            *config.const_range, size=config.n_constants).tolist()
        leaves = (tuple(map(terminal, terminals))
                  + tuple(map(literal, constants)))
        return cls(tuple(map(op_symbol, config.operators)) + leaves, leaves)


@dataclass(frozen=True)
class Genotype:
    """A fixed-length symbol string with head/tail layout."""

    symbols: tuple[Symbol, ...]
    head_len: int


@dataclass(frozen=True)
class ExprTree:
    """Immutable expression tree node."""

    node: Symbol
    children: tuple["ExprTree", ...] = ()

    def __post_init__(self):
        if self.node.kind == "op" and len(self.children) != self.node.arity:
            raise StructureError(
                f"operator {self.node.name!r} needs {self.node.arity} "
                f"children, got {len(self.children)}")
        if self.node.is_leaf() and self.children:
            raise StructureError("leaf node cannot have children")


def random_genotype(rng: np.random.Generator, config: GepConfig,
                    symbols: SymbolSet) -> Genotype:
    """Sample a genotype uniformly over the head/tail alphabets."""
    head = [symbols.heads[int(i)] for i in rng.integers(
        len(symbols.heads), size=config.head_len)]
    tail = [symbols.leaves[int(i)] for i in rng.integers(
        len(symbols.leaves), size=config.tail_len)]
    return Genotype(symbols=tuple(head + tail), head_len=config.head_len)


def decode(genotype: Genotype) -> ExprTree:
    """Decode a genotype into its expression tree.

    Symbols are consumed left to right while the tree is built depth-first in
    pre-order: an operator at the cursor claims the next positions for its
    arguments before any sibling subtree starts.  Trailing symbols beyond the
    closed tree are silently unused (that slack is what makes every string
    decodable).
    """
    symbols = genotype.symbols
    head_len = genotype.head_len
    pos = 0

    def build() -> ExprTree:
        nonlocal pos
        if pos >= len(symbols):
            raise StructureError("genotype exhausted before the tree closed")
        sym = symbols[pos]
        if sym.kind == "op" and pos >= head_len:
            raise StructureError(
                f"operator {sym.name!r} in tail at position {pos}")
        pos += 1
        if sym.kind == "op":
            children = tuple(build() for _ in range(sym.arity))
            return ExprTree(sym, children)
        return ExprTree(sym)

    return build()


# ---------------------------------------------------------------------------
# Canonical polynomial form


def _poly_merge(left: dict, right: dict, sign: float) -> dict:
    out = dict(left)
    for mono, coeff in right.items():
        new = out.get(mono, 0.0) + sign * coeff
        if new == 0.0:
            out.pop(mono, None)
        else:
            out[mono] = new
    return out


def _poly_mul(left: dict, right: dict) -> dict:
    out: dict[tuple[str, ...], float] = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            mono = tuple(sorted(m1 + m2))
            new = out.get(mono, 0.0) + c1 * c2
            if new == 0.0:
                out.pop(mono, None)
            else:
                out[mono] = new
    return out


def tree_polynomial(tree: ExprTree) -> dict[tuple[str, ...], float]:
    """Expand a ring-op tree into a monomial -> coefficient map.

    Monomials are sorted tuples of variable names (with multiplicity), the
    empty tuple holding the constant term.
    """
    sym = tree.node
    if sym.kind == "term":
        return {(sym.name,): 1.0}
    if sym.kind == "lit":
        return {(): float(sym.value)} if sym.value != 0.0 else {}
    parts = [tree_polynomial(child) for child in tree.children]
    if sym.name == "+":
        return _poly_merge(parts[0], parts[1], 1.0)
    if sym.name == "-":
        return _poly_merge(parts[0], parts[1], -1.0)
    if sym.name == "neg":
        return {m: -c for m, c in parts[0].items()}
    if sym.name == "*":
        return _poly_mul(parts[0], parts[1])
    raise StructureError(f"operator {sym.name!r} is not a ring operation")


def canonical_key(poly: Mapping[tuple[str, ...], float]) -> str:
    """Canonical phenotype key of a `tree_polynomial`: two trees share a key
    iff they are the same polynomial, hence the same function on every
    input."""
    if not poly:
        return "0"
    terms = []
    for mono in sorted(poly):
        coeff = poly[mono]
        if not mono:
            terms.append(repr(coeff))
        elif coeff == 1.0:
            terms.append("*".join(mono))
        else:
            terms.append(repr(coeff) + "*" + "*".join(mono))
    return " + ".join(terms)


def polynomial_plan(polys: Sequence[Mapping[tuple[str, ...], float]],
                    names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """A batch of polynomials as (coefficients (k, m), factor indices
    (k, m, d)) into a stack of the named factors followed by a row of ones;
    a variable not among names raises KeyError.

    Row i lists its monomials in key order, each as its coefficient, then
    its variables in key order.  Missing terms pad with coefficient 0.0 and
    missing factors with -1, the ones.  Both pads are exact: x * 1.0 == x,
    and a sum that starts at +0.0 never becomes -0.0, so adding 0.0 changes
    no bit; each row therefore gets the bits of its polynomial alone.
    """
    row_of = {name: i for i, name in enumerate(names)}
    monos = [sorted(poly) for poly in polys]
    m = max(map(len, monos), default=0)
    d = max((len(mono) for row in monos for mono in row), default=0)
    coefficients = np.zeros((len(polys), m))
    factors = np.full((len(polys), m, d), -1)
    for i, (poly, row) in enumerate(zip(polys, monos)):
        for j, mono in enumerate(row):
            coefficients[i, j] = poly[mono]
            factors[i, j, :len(mono)] = [row_of[var] for var in mono]
    return coefficients, factors


def bind_plan(plan: tuple[np.ndarray, np.ndarray], k: int) -> tuple:
    """plan bound to k stacked factor rows, for plan_eval: its rows, and
    per monomial its coefficient column and the flat factor rows (index * k
    + row mod k, -1 wrapping to the ones) of each variable that is not the
    ones in every row (x * 1.0 == x)."""
    coefficients, index = plan
    at = np.multiply(index.transpose(1, 2, 0), k, order="C")
    at += np.arange(len(index)) % max(k, 1)
    top = np.maximum.reduce(index, 0, initial=-1).tolist()
    return len(index), [(coefficients[:, j, None],
                         [at[j, v] for v, i in enumerate(row) if i >= 0])
                        for j, row in enumerate(top)]


def plan_eval(plan: tuple, factors: np.ndarray, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """Row i of a polynomial_plan, or of one bound to k rows by bind_plan,
    on row i mod k of the stacked factors (f, k, n), the monomials added in
    key order from +0.0: a plan of several k-row blocks evaluates each
    block on the same k factor rows.  out (rows, n) takes the values and a
    C-contiguous work of 2 * rows * n floats or more the terms.  Arithmetic
    is not trapped: overflow gives inf or nan for the caller to detect."""
    f, k, n = factors.shape
    rows, steps = plan if isinstance(plan[0], int) else bind_plan(plan, k)
    flat = factors.reshape(f * k, n)
    total = np.empty((rows, n)) if out is None else out
    total.fill(0.0)
    buf, gathered = (np.empty(2 * rows * n) if work is None
                     else work.reshape(-1)[:2 * rows * n]).reshape(2, rows, n)
    for term, ats in steps:
        for at in ats:
            term = np.multiply(term, flat.take(at, 0, gathered, "wrap"), out=buf)
        total += term
    return total


def polynomials_eval(polys: Sequence[Mapping[tuple[str, ...], float]],
                     columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """Every polynomial on the same named columns: a (k, n) array whose row
    i depends only on the key of polys[i]."""
    stack = list(columns.values())
    factors = np.array([*stack, np.ones_like(stack[0])], float)[:, None]
    with np.errstate(all="ignore"):
        return plan_eval(polynomial_plan(polys, tuple(columns)), factors)


def parse_expression(text: str) -> ExprTree:
    """Parse '+', '-', '*', unary minus, names, and numbers into a tree.

    Used for reference model expressions written in configuration files.
    Anything beyond ring arithmetic (division, calls, powers) is rejected.
    """
    try:
        root = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression: {exc}") from None

    binops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}

    def convert(node: ast.AST) -> ExprTree:
        if isinstance(node, ast.BinOp) and type(node.op) in binops:
            name = binops[type(node.op)]
            return ExprTree(op_symbol(name),
                            (convert(node.left), convert(node.right)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ExprTree(op_symbol("neg"), (convert(node.operand),))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return convert(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return ExprTree(literal(float(node.value)))
        if isinstance(node, ast.Name):
            return ExprTree(terminal(node.id))
        raise ConfigError(
            f"unsupported syntax {type(node).__name__} in expression {text!r}")

    return convert(root)


# ---------------------------------------------------------------------------
# Variation operators


def mutate(genotype: Genotype, rate: float, rng: np.random.Generator,
           symbols: SymbolSet) -> Genotype:
    """Point mutation: each slot flips with probability `rate` to a symbol
    legal at that position, so head/tail structure is preserved."""
    flips = rng.random(len(genotype.symbols)) < rate
    out = list(genotype.symbols)
    for pos in np.flatnonzero(flips):
        pool = symbols.heads if pos < genotype.head_len else symbols.leaves
        out[pos] = pool[int(rng.integers(len(pool)))]
    return Genotype(symbols=tuple(out), head_len=genotype.head_len)


def crossover(a: Genotype, b: Genotype,
              rng: np.random.Generator) -> tuple[Genotype, Genotype]:
    """One-point crossover at a shared cut position."""
    if len(a.symbols) != len(b.symbols) or a.head_len != b.head_len:
        raise StructureError("crossover requires identically shaped genotypes")
    cut = int(rng.integers(1, len(a.symbols)))
    child_a = a.symbols[:cut] + b.symbols[cut:]
    child_b = b.symbols[:cut] + a.symbols[cut:]
    return (Genotype(symbols=child_a, head_len=a.head_len),
            Genotype(symbols=child_b, head_len=b.head_len))


# ---------------------------------------------------------------------------
# Population container and NSGA-II machinery


@dataclass
class Candidate:
    """One population member: a tuple of genotypes (one per model slot) plus
    its evaluation state."""

    genotypes: tuple[Genotype, ...]
    id: int
    phenotype_keys: tuple[str, ...] = ()
    embedding: np.ndarray | None = None
    embedding_norm: np.ndarray | None = None
    objectives: np.ndarray | None = None


def dominance_matrix(objectives: np.ndarray) -> np.ndarray:
    """[i, j] of the (n, n) result: row i of the (n, p) objectives dominates
    row j (minimization).  Built a column at a time; NaN compares False."""
    objs = np.asarray(objectives, dtype=float)
    n = objs.shape[0]
    nowhere_worse = np.ones((n, n), dtype=bool)
    somewhere_better = np.zeros((n, n), dtype=bool)
    for col in objs.T:
        nowhere_worse &= col[:, None] <= col[None, :]
        somewhere_better |= col[:, None] < col[None, :]
    return nowhere_worse & somewhere_better


def fast_nondominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Sort rows of an (n, p) objective matrix into Pareto fronts.

    Returns a list of fronts, each a list of row indices in ascending
    order; front 0 is the non-dominated set.  Minimization throughout: a
    row dominates another when it is nowhere worse and somewhere strictly
    better.
    """
    dominates = dominance_matrix(objectives)
    count = dominates.sum(axis=0)  # count[j]: rows dominating row j
    fronts: list[list[int]] = []
    current = np.flatnonzero(count == 0)
    while current.size:
        fronts.append(current.tolist())
        count[current] = -1  # a placed row never reads zero again
        count -= dominates[current].sum(axis=0)
        current = np.flatnonzero(count == 0)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance within one front; boundary points get +inf."""
    objs = np.asarray(objectives, dtype=float)
    n, p = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(p):
        order = np.argsort(objs[:, k], kind="stable")
        col = objs[order, k]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def rank_population(population: Sequence[Candidate]) -> list[tuple[int, float]]:
    """Assign (front rank, crowding distance) per candidate.

    Sentinel-carrying candidates are pushed into one final front behind all
    finite fronts, so a diverged model can never shadow a finite one even if
    its raw sentinel vector would be non-dominated.
    """
    if not population:
        return []
    for c in population:
        if c.objectives is None:
            raise ValueError(f"candidate {c.id} has no objectives yet")
    objs = np.array([c.objectives for c in population], dtype=float)
    sentinel_mask = (np.any(objs >= DIVERGENCE_SENTINEL, axis=1)
                     | ~np.all(np.isfinite(objs), axis=1))
    finite_idx = np.flatnonzero(~sentinel_mask)
    ranks: list[tuple[int, float]] = [(0, 0.0)] * len(population)
    n_fronts = 0
    if finite_idx.size:
        fronts = fast_nondominated_sort(objs[finite_idx])
        n_fronts = len(fronts)
        for rank, front in enumerate(fronts):
            members = finite_idx[front]
            dists = crowding_distance(objs[members])
            for local, idx in enumerate(members):
                ranks[idx] = (rank, float(dists[local]))
    for idx in np.flatnonzero(sentinel_mask):
        ranks[idx] = (n_fronts, 0.0)
    return ranks


def _tournament_pick(ranked: Sequence[tuple[Candidate, tuple[int, float]]],
                     rng: np.random.Generator) -> Candidate:
    i, j = rng.integers(len(ranked), size=2)
    (cand_i, (rank_i, crowd_i)) = ranked[int(i)]
    (cand_j, (rank_j, crowd_j)) = ranked[int(j)]
    if rank_i < rank_j:
        return cand_i
    if rank_j < rank_i:
        return cand_j
    if crowd_i > crowd_j:
        return cand_i
    if crowd_j > crowd_i:
        return cand_j
    return cand_i if i <= j else cand_j


def evolve_generation(population: Sequence[Candidate],
                      ranks: Sequence[tuple[int, float]],
                      rng: np.random.Generator,
                      config: GepConfig,
                      symbols: SymbolSet,
                      n_offspring: int,
                      first_id: int) -> list[Candidate]:
    """Produce n_offspring children by binary tournament on (rank, crowding),
    one-point crossover per slot, then point mutation.

    Returned candidates are unevaluated; ids run consecutively from first_id.
    """
    if not population:
        raise ValueError("cannot evolve an empty population")
    if len(population) != len(ranks):
        raise ValueError("ranks must align with the population")
    ranked = list(zip(population, ranks))
    offspring: list[Candidate] = []
    next_id = first_id
    while len(offspring) < n_offspring:
        parent_a = _tournament_pick(ranked, rng)
        parent_b = _tournament_pick(ranked, rng)
        slots_a, slots_b = [], []
        for ga, gb in zip(parent_a.genotypes, parent_b.genotypes):
            if rng.random() < config.crossover_rate:
                ca, cb = crossover(ga, gb, rng)
            else:
                ca, cb = ga, gb
            slots_a.append(mutate(ca, config.mutation_rate, rng, symbols))
            slots_b.append(mutate(cb, config.mutation_rate, rng, symbols))
        for slots in (slots_a, slots_b):
            if len(offspring) >= n_offspring:
                break
            offspring.append(Candidate(genotypes=tuple(slots), id=next_id))
            next_id += 1
    return offspring


def select_survivors(population: Sequence[Candidate], mu: int) -> list[Candidate]:
    """NSGA-II truncation: fill whole fronts, split the last by crowding."""
    if mu <= 0:
        raise ValueError("survivor count must be positive")
    if len(population) <= mu:
        return list(population)
    ranks = rank_population(population)
    order = sorted(range(len(population)),
                   key=lambda i: (ranks[i][0], -ranks[i][1], population[i].id))
    return [population[i] for i in order[:mu]]
