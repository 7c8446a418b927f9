"""Deterministic pretty-printer (two-space indent, one clause per line).

parse(pretty(parse(s))) equals parse(s) structurally; synthesized clause
labels are dropped on output and re-synthesized identically on reparse.
"""

from __future__ import annotations

from . import ast

def _prec(e: ast.Expr) -> int:
    if isinstance(e, ast.Binary):
        return ast.BINARY_PREC[e.op]
    if isinstance(e, (ast.Unary, ast.Old)) or isinstance(e, ast.IntLit) and e.value < 0:
        return ast.UNARY_PREC  # a negative literal prints with a prefix minus
    return ast.ATOM_PREC


def expr_text(e: ast.Expr) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ast.StrLit):
        return f'"{e.value}"'
    if isinstance(e, ast.VoidLit):
        return "Void"
    if isinstance(e, ast.SetLit):
        return "{" + ", ".join(f'"{s}"' for s in e.items) + "}"
    if isinstance(e, ast.Name):
        return e.name
    if isinstance(e, ast.Qualified):
        return f"{e.receiver}.{e.attr}"
    if isinstance(e, ast.Old):
        return f"old {_child(e.expr, ast.UNARY_PREC)}"
    if isinstance(e, ast.Unary):
        return f"not {_child(e.expr, ast.UNARY_PREC)}"
    if isinstance(e, ast.Has):
        return f"{_child(e.receiver, ast.ATOM_PREC)}.has({expr_text(e.item)})"
    if isinstance(e, ast.CreateExpr):
        return f"create {e.class_name}"
    if isinstance(e, ast.Binary):
        left, right = ast.operand_precs(e.op)
        return f"{_child(e.left, left)} {e.op} {_child(e.right, right)}"
    raise TypeError(f"unprintable expression {e!r}")


def _child(e: ast.Expr, min_prec: int) -> str:
    """Text of e, parenthesized if it binds looser than min_prec."""
    text = expr_text(e)
    return f"({text})" if _prec(e) < min_prec else text


def _clause_lines(clauses: list[ast.Clause], indent: str) -> list[str]:
    lines = []
    for c in clauses:
        text = expr_text(c.expr)
        if c.synthesized:
            # an unlabeled clause that opens with a minus would continue the clause before it
            lines.append(f"{indent}({text})" if text.startswith("-") else f"{indent}{text}")
        else:
            lines.append(f"{indent}{c.label}: {text}")
    return lines


def _statement_lines(stmts: list[ast.Statement], indent: str) -> list[str]:
    lines = []
    for s in stmts:
        if isinstance(s, ast.Assign):
            lines.append(f"{indent}{s.target} := {expr_text(s.value)}")
        elif isinstance(s, ast.QualifiedAssign):
            lines.append(f"{indent}{s.receiver}.{s.attr} := {expr_text(s.value)}")
        elif isinstance(s, ast.CreateStmt):
            suffix = f".{s.creator}" if s.creator else ""
            lines.append(f"{indent}create {s.target}{suffix}")
        elif isinstance(s, ast.CallStmt):
            if s.args:
                args = ", ".join(expr_text(a) for a in s.args)
                lines.append(f"{indent}{s.receiver}.{s.feature}({args})")
            else:
                lines.append(f"{indent}{s.receiver}.{s.feature}")
        elif isinstance(s, ast.IfStmt):
            lines.append(f"{indent}if {expr_text(s.cond)} then")
            lines.extend(_statement_lines(s.then_branch, indent + "  "))
            if s.else_branch:
                lines.append(f"{indent}else")
                lines.extend(_statement_lines(s.else_branch, indent + "  "))
            lines.append(f"{indent}end")
        elif isinstance(s, ast.CheckStmt):
            label = "" if s.synthesized else f"{s.label}: "
            lines.append(f"{indent}check {label}{expr_text(s.expr)} end")
        else:
            raise TypeError(f"unprintable statement {s!r}")
    return lines


def _feature_lines(f: ast.Feature) -> list[str]:
    header = f.name
    if f.params:
        params = "; ".join(f"{p.name}: {p.ty}" for p in f.params)
        header += f" ({params})"
    lines = [f"  {header}"]
    if f.is_creator:
        lines.append("    note status: creator")
    if f.require:
        lines.append("    require")
        lines.extend(_clause_lines(f.require, "      "))
    if f.modify is not None:
        lines.append("    modify " + ", ".join(f.modify) if f.modify else "    modify")
    lines.append("    do")
    lines.extend(_statement_lines(f.body, "      "))
    if f.ensure:
        lines.append("    ensure")
        lines.extend(_clause_lines(f.ensure, "      "))
    lines.append("    end")
    return lines


def program_text(program: ast.Program) -> str:
    lines: list[str] = []
    for cls in program.classes:
        lines.append(f"class {cls.name}")
        if cls.model_note is not None:
            lines.append("note model: " + ", ".join(cls.model_note))
        creator = cls.create_name
        if creator is None:
            for f in cls.features:
                if f.is_creator:
                    creator = f.name
                    break
        if creator is not None:
            lines.append(f"create {creator}")
        if cls.attributes:
            lines.append("feature")
            for a in cls.attributes:
                lines.append(f"  {a.name}: {a.ty}")
        if cls.features:
            lines.append("feature")
            for i, f in enumerate(cls.features):
                if i:
                    lines.append("")
                lines.extend(_feature_lines(f))
        if cls.invariant:
            lines.append("invariant")
            lines.extend(_clause_lines(cls.invariant, "  "))
        lines.append("end")
        lines.append("")
    return "\n".join(lines)
