"""The Node base: construction, repr, equality, hashing and immutability of
tree nodes and records, and the leaf keys formula nodes keep."""

import pytest

from miniproof import analyze, ast, parse
from miniproof import formula as F
from miniproof.ast import T_BOOL, T_INT, Pos
from miniproof.discharge import Verdict, derive_domains, symbol_domain
from miniproof.formula import VerifyOptions
from miniproof.lexer import Token, tokenize
from miniproof.vcgen import generate_obligations


def test_reprs_name_every_field_in_order():
    binary = ast.Binary("+", ast.IntLit(1), ast.Name("x", ty=T_INT), pos=Pos(2, 5))
    assert repr(binary) == (
        "Binary(pos=Pos(line=2, col=5), ty=None, op='+', "
        "left=IntLit(pos=None, ty=None, value=1), "
        "right=Name(pos=None, ty=Type(kind='INTEGER', class_name=None), name='x'))"
    )
    assert repr(ast.Clause("c", ast.VoidLit())) == (
        "Clause(label='c', expr=VoidLit(pos=None, ty=None), synthesized=False, pos=None)"
    )
    cmp = F.Cmp("=", F.Sym("x", T_INT), F.Lit(1))
    assert repr(cmp) == (
        "Cmp(op='=', left=Sym(name='x', ty=Type(kind='INTEGER', class_name=None)), "
        "right=Lit(value=1))"
    )
    assert repr(F.subst(cmp, {"x": F.Lit(2)})) == f"Let(binds=(('x', Lit(value=2)),), body={cmp!r})"
    assert repr(tokenize("x := 1")[1]) == "Token(SYMBOL, ':=', 1:3)"
    assert repr(Verdict("Failed", {"x": 1})) == (
        "Verdict(status='Failed', counterexample={'x': 1}, reason=None)"
    )


def test_construction_by_position_and_keyword():
    assert ast.CheckStmt("l", ast.BoolLit(True), True, pos=Pos(1, 1)) == ast.CheckStmt(
        label="l", expr=ast.BoolLit(value=True)
    )
    with pytest.raises(TypeError):
        ast.IntLit(1, Pos(1, 1))  # pos and ty are keyword-only
    with pytest.raises(TypeError):
        F.Sym("x")
    # a list default is the node's own
    first, second = ast.Feature("f"), ast.Feature("g")
    first.body.append(ast.Assign("x", ast.IntLit(1)))
    assert second.body == []
    # an __init__ written in a class's body is kept; a subclass derives its own

    class Pair(ast.Node):
        __slots__ = ("a", "b")

        def __init__(self, a):
            self.a, self.b = a, 2 * a

    class Triple(Pair):
        __slots__ = ("c",)

    assert (Pair(3).a, Pair(3).b) == (3, 6)
    assert Triple(1, 5, 3) == Triple(a=1, b=5, c=3)
    assert Triple(1, 5, 3).b == 5


def test_ast_equality_ignores_positions_types_and_synthesis():
    assert ast.Name("x", pos=Pos(1, 1), ty=T_INT) == ast.Name("x", pos=Pos(9, 9), ty=T_BOOL)
    assert ast.VoidLit(pos=Pos(1, 1)) == ast.VoidLit()
    assert ast.Clause("c", ast.VoidLit(), True, Pos(1, 1)) == ast.Clause("c", ast.VoidLit())
    assert ast.ClassDecl("C", create_name="make") == ast.ClassDecl("C")
    assert ast.Name("x") != ast.Name("y")
    assert ast.Name("x") != ast.StrLit("x")
    assert ast.IntLit(1) != F.Lit(1)


def test_mutable_nodes_are_unhashable_and_assignable():
    node = ast.Binary("+", ast.IntLit(1), ast.IntLit(2))
    with pytest.raises(TypeError):
        hash(node)
    with pytest.raises(TypeError):
        hash(ast.Feature("f"))
    node.ty = T_INT
    assert node.ty == T_INT


def test_frozen_nodes_hash_by_value():
    x = F.Sym("x", T_INT)
    assert F.Cmp("=", x, F.Lit(1)) == F.Cmp("=", F.Sym("x", T_INT), F.Lit(1))
    assert hash(F.Cmp("=", x, F.Lit(1))) == hash(F.Cmp("=", F.Sym("x", T_INT), F.Lit(1)))
    assert len({F.Sym("x", T_INT), F.Sym("x", T_INT), F.Sym("old x", T_INT)}) == 2
    assert F.Sym("x", T_INT) != F.Sym("old x", T_INT)
    assert {Pos(1, 2): "p"}[Pos(1, 2)] == "p"
    assert Token("IDENT", "x", 1, 1) == Token("IDENT", "x", 1, 1)


@pytest.mark.parametrize(
    "node, field",
    [
        (F.Sym("x", T_INT), "name"),
        (F.Lit(1), "value"),
        (F.And((F.TRUE, F.FALSE)), "items"),
        (Token("IDENT", "x", 1, 1), "value"),
        (Pos(1, 1), "line"),
        (T_INT, "kind"),
        (Verdict("Discharged"), "status"),
        (VerifyOptions(), "int_range"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_frozen_nodes_refuse_assignment(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1


def test_verify_options_replace_checks_like_the_constructor():
    opts = VerifyOptions(int_range=(-4, 4))
    assert opts.replace(check_overflow=True, overflow_width=8) == VerifyOptions((-4, 4), True, 8)
    assert opts == VerifyOptions(int_range=(-4, 4))
    for changes in ({"int_range": (1, 8)}, {"overflow_width": 12}):
        with pytest.raises(ValueError) as by_constructor:
            VerifyOptions(**changes)
        with pytest.raises(ValueError) as by_replace:
            opts.replace(**changes)
        assert str(by_replace.value) == str(by_constructor.value)
    with pytest.raises(TypeError):
        opts.replace(width=8)


def _walked_leaves(f: F.Formula) -> dict:
    """The leaf keys of f found by walking the formula it stands for,
    with every substitution carried out and nothing cached."""
    found, stack = {}, [F.expand(f)]
    while stack:
        g = stack.pop()
        if isinstance(g, F.Sym):
            found[g.name] = g.ty
        stack.extend(F.children(g))
    return found


# assignments under `if`s that make each kind of Let: x := x + 1 shares
# its body's leaf keys, x := 0 drops x, x := y replaces x by y, and the
# call, which havocs both of CELL's attributes, binds two keys
_LETS_PROGRAM = """\
class CELL
create make
feature
  a : INTEGER
  b : INTEGER
  make
    do
    end
  bump
    do
      a := a + 1
      b := b + 1
    end
end
class M
create make
feature
  c : CELL
  x : INTEGER
  y : INTEGER
  make
    do
    end
  f
    do
      if y > 0 then
        x := x + 1
      else
        x := y
      end
      if x > 3 then
        x := 0
        c.bump ()
      end
    ensure
      kept: x <= c.a + c.b
    end
invariant
  attached: c /= Void
end
"""


@pytest.mark.parametrize("overflow", [False, True], ids=["manifest", "width8"])
def test_cached_leaf_keys_equal_a_fresh_walk(entries, overflow):
    """Every node, leaves included, keeps the keys of what it stands for:
    in each obligation, and in the residuals a search builds from it, by
    folding it and then specializing it on its first free symbol. The
    inputs are the corpus and ``_LETS_PROGRAM``, whose Let of x := x + 1
    keeps its body's very dict."""
    checked_obligations, lets = 0, []
    inputs = [(entry.source, entry.options) for entry in entries.values()] + [(_LETS_PROGRAM, VerifyOptions())]
    for source, opts in inputs:
        opts = opts.replace(check_overflow=True, overflow_width=8) if overflow else opts
        checked = analyze(parse(source))
        domains = derive_domains(checked, opts)
        for o in generate_obligations(checked, opts):
            residuals = [o.formula, F.fold(o.formula)]
            live = F.free_syms(residuals[-1])
            if live:
                name, ty = next(iter(live.items()))
                residuals.append(F.specialize(residuals[-1], {name: symbol_domain(ty, domains)[0]}))
            stack, seen = residuals, set()
            while stack:
                g = stack.pop()
                if id(g) not in seen:
                    seen.add(id(g))
                    assert F._leaves(g) == _walked_leaves(g), o.id
                    if source is _LETS_PROGRAM and isinstance(g, F.Let):
                        lets.append(g)
                    stack.extend(F.children(g))
            checked_obligations += 1
    assert checked_obligations > 100
    x, y = F.Sym("x", T_INT), F.Sym("y", T_INT)
    binding_x: dict = {}
    for g in lets:
        if len(g.binds) == 1 and g.binds[0][0] == "x":
            binding_x.setdefault(g.binds[0][1], []).append(g)
    assert set(binding_x) == {F.Arith("+", x, F.Lit(1)), F.Lit(0), y}
    assert all(F._leaves(g) is F._leaves(g.body) for g in binding_x[F.Arith("+", x, F.Lit(1))])
    assert all("x" not in F._leaves(g) for g in binding_x[F.Lit(0)])
    assert all("x" not in F._leaves(g) and "y" in F._leaves(g) for g in binding_x[y])
    assert any(len(g.binds) == 2 for g in lets)


@pytest.mark.parametrize("overflow", [False, True], ids=["manifest", "width8"])
def test_folding_a_folded_formula_builds_no_node(entries, overflow, monkeypatch):
    """F.fold returns a node whose parts it keeps as it is: folding each
    corpus obligation's folded formula again gives back that very formula
    and constructs no node of any formula class on the way. Each formula
    class builds its nodes in its own __init__, which is counted."""
    folded = []
    for entry in entries.values():
        opts = entry.options.replace(check_overflow=True, overflow_width=8) if overflow else entry.options
        folded += [F.fold(o.formula) for o in generate_obligations(analyze(parse(entry.source)), opts)]
    built = []

    def counting(original):
        def __init__(self, *args):
            built.append(type(self).__name__)
            original(self, *args)

        return __init__

    for cls in F.Formula.__subclasses__():
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    F.neg(F.Sym("b", T_BOOL))
    assert built == ["Sym", "Not"]  # the count sees what a fold would build
    built.clear()
    assert len(folded) > 100
    for g in folded:
        assert F.fold(g) is g, F.to_text(g)
    assert built == []
