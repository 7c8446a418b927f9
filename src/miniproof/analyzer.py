"""Name resolution and type checking.

analyze collects every problem it can find and raises one SemanticError
carrying the full list; on success it returns a CheckedProgram whose
symbol tables downstream stages share. Re-analyzing the same AST yields
identical tables.

Typing sets each expression's ``ty``. It dispatches once per node on the
node's class, through ``_TYPE_RULES``; the scope an expression is typed
in (class, feature, whether ``old`` and creation expressions are legal)
is held by the analysis while one top-level expression is typed, not
passed down to every node.
"""

from __future__ import annotations

from . import ast
from .errors import SemanticError


def default_model_queries(cls: ast.ClassDecl) -> list[str]:
    """Model queries of a class: the note model list when present,
    otherwise every attribute."""
    if cls.model_note is not None:
        return list(cls.model_note)
    return [a.name for a in cls.attributes]


class ClassInfo(ast.Node):
    __slots__ = ("name", "decl", "attributes", "routines", "model_queries", "creator")
    _defaults = {"attributes": {}, "routines": {}, "model_queries": [], "creator": ""}

    def name_type(self, name: str, feat: ast.Feature | None) -> ast.Type | None:
        """The type of a name inside feat: its parameter, else the attribute."""
        if feat is not None:
            for p in feat.params:
                if p.name == name:
                    return p.ty
        return self.attributes.get(name)

    def frame(self, feat: ast.Feature) -> tuple[str, ...]:
        """The model queries feat must leave unchanged: those outside its
        modify list, or none when it has no modify list. A modify list
        names model queries only, so every attribute outside the frame
        is one feat may change."""
        if feat.modify is None:
            return ()
        return tuple(q for q in self.model_queries if q not in feat.modify)


class CheckedProgram(ast.Node):
    """Analyzed program plus symbol tables. Treat as immutable."""

    __slots__ = ("program", "classes", "monitor_plans")
    _fields = ("program", "classes")

    def __post_init__(self):
        # (class, feature) -> runtime.MonitorPlan, with the feature's
        # compiled code, filled lazily by the monitor; a plan derives from
        # the feature alone, so caching it here is safe
        self.monitor_plans = {}

    def info(self, class_name: str) -> ClassInfo:
        return self.classes[class_name]


class _Analysis:
    def __init__(self, program: ast.Program):
        self.program = program
        self.issues: list[tuple[str, str]] = []
        self.classes: dict[str, ClassInfo] = {}
        # the scope of the expression being typed (see expr_type)
        self.info, self.feat, self.old_ok, self.contract = None, None, False, False

    def error(self, pos: ast.Pos | None, message: str):
        self.issues.append((str(pos) if pos else "?", message))

    # -- table construction -------------------------------------------------

    def build_tables(self):
        for cls in self.program.classes:
            if cls.name in self.classes:
                self.error(cls.pos, f"duplicate class {cls.name}")
                continue
            info = ClassInfo(cls.name, cls)
            for attr in cls.attributes:
                if attr.name in info.attributes:
                    self.error(attr.pos, f"duplicate attribute {attr.name} in {cls.name}")
                info.attributes[attr.name] = attr.ty
            for feat in cls.features:
                if feat.name in info.attributes or feat.name in info.routines:
                    self.error(feat.pos, f"duplicate feature {feat.name} in {cls.name}")
                info.routines[feat.name] = feat
            self.classes[cls.name] = info

        for cls in self.program.classes:
            info = self.classes.get(cls.name)
            if info is None or info.decl is not cls:
                continue
            creators = [f.name for f in cls.features if f.is_creator]
            if cls.create_name is not None and cls.create_name not in info.routines:
                self.error(cls.pos, f"creation feature {cls.create_name} not declared in {cls.name}")
            if not creators:
                self.error(cls.pos, f"class {cls.name} has no creator")
            elif len(creators) > 1:
                self.error(cls.pos, f"class {cls.name} has more than one creator: {', '.join(creators)}")
            else:
                info.creator = creators[0]
                if info.routines[creators[0]].params:
                    self.error(
                        info.routines[creators[0]].pos,
                        f"creator {cls.name}.{creators[0]} must not take parameters",
                    )
            if cls.model_note is not None:
                for name in cls.model_note:
                    if name not in info.attributes:
                        self.error(cls.pos, f"model query {name} is not an attribute of {cls.name}")
            info.model_queries = default_model_queries(cls)

    def check_types_exist(self):
        for cls in self.program.classes:
            for attr in cls.attributes:
                self.check_type(attr.ty, attr.pos)
            for feat in cls.features:
                for p in feat.params:
                    self.check_type(p.ty, p.pos)

    def check_type(self, ty: ast.Type, pos: ast.Pos | None):
        if ty.kind == ast.REF and ty.class_name not in self.classes:
            self.error(pos, f"unknown type {ty.class_name}")

    # -- per-feature checks ---------------------------------------------------

    def check_class(self, cls: ast.ClassDecl):
        info = self.classes[cls.name]
        for feat in cls.features:
            self.check_feature(info, feat)
        for clause in cls.invariant:
            ty = self.expr_type(clause.expr, info, None, old_ok=False, contract=True)
            self.require_boolean(ty, clause.expr.pos, f"invariant clause {clause.label}")

    def check_feature(self, info: ClassInfo, feat: ast.Feature):
        seen = set()
        for p in feat.params:
            if p.name in seen:
                self.error(p.pos, f"duplicate parameter {p.name}")
            if p.name in info.attributes or p.name in info.routines:
                self.error(p.pos, f"parameter {p.name} shadows a feature of {info.name}")
            seen.add(p.name)
        if feat.modify is not None:
            for name in feat.modify:
                if name not in info.model_queries:
                    self.error(feat.pos, f"modify entry {name} is not a model query of {info.name}")
        for clause in feat.require:
            ty = self.expr_type(clause.expr, info, feat, old_ok=False, contract=True)
            self.require_boolean(ty, clause.expr.pos, f"require clause {clause.label}")
        self.check_statements(feat.body, info, feat)
        for clause in feat.ensure:
            ty = self.expr_type(clause.expr, info, feat, old_ok=True, contract=True)
            self.require_boolean(ty, clause.expr.pos, f"ensure clause {clause.label}")

    def check_statements(self, stmts: list[ast.Statement], info: ClassInfo, feat: ast.Feature):
        for s in stmts:
            if isinstance(s, ast.Assign):
                target_ty = info.attributes.get(s.target)
                if target_ty is None:
                    self.error(s.pos, f"assignment target {s.target} is not an attribute of {info.name}")
                value_ty = self.expr_type(s.value, info, feat, old_ok=False, contract=False)
                if target_ty is not None:
                    self.require_assignable(target_ty, value_ty, s.pos, s.target)
            elif isinstance(s, ast.QualifiedAssign):
                attr_ty = self.resolve_attribute(s.receiver, s.attr, info, feat, s.pos)
                value_ty = self.expr_type(s.value, info, feat, old_ok=False, contract=False)
                if attr_ty is not None:
                    self.require_assignable(attr_ty, value_ty, s.pos, f"{s.receiver}.{s.attr}")
            elif isinstance(s, ast.CreateStmt):
                target_ty = info.attributes.get(s.target)
                if target_ty is None:
                    self.error(s.pos, f"creation target {s.target} is not an attribute of {info.name}")
                elif target_ty.kind != ast.REF:
                    self.error(s.pos, f"creation target {s.target} is not a reference")
                else:
                    target_info = self.classes.get(target_ty.class_name or "")
                    if target_info and s.creator is not None and s.creator != target_info.creator:
                        self.error(s.pos, f"{s.creator} is not the creator of {target_ty.class_name}")
            elif isinstance(s, ast.CallStmt):
                self.check_call(s, info, feat)
            elif isinstance(s, ast.IfStmt):
                cond_ty = self.expr_type(s.cond, info, feat, old_ok=False, contract=False)
                self.require_boolean(cond_ty, s.pos, "if condition")
                self.check_statements(s.then_branch, info, feat)
                self.check_statements(s.else_branch, info, feat)
            elif isinstance(s, ast.CheckStmt):
                ty = self.expr_type(s.expr, info, feat, old_ok=False, contract=True)
                self.require_boolean(ty, s.pos, f"check {s.label}")

    def check_call(self, s: ast.CallStmt, info: ClassInfo, feat: ast.Feature):
        recv_ty = self.resolve_name(s.receiver, info, feat, s.pos)
        arg_types = [self.expr_type(a, info, feat, old_ok=False, contract=False) for a in s.args]
        if recv_ty is None:
            return
        if recv_ty.kind != ast.REF:
            self.error(s.pos, f"call receiver {s.receiver} is not a reference")
            return
        target_info = self.classes.get(recv_ty.class_name or "")
        if target_info is None:
            return
        callee = target_info.routines.get(s.feature)
        if callee is None:
            self.error(s.pos, f"{recv_ty.class_name} has no routine {s.feature}")
            return
        if callee.is_creator:
            self.error(s.pos, f"creator {recv_ty.class_name}.{s.feature} cannot be called")
            return
        if len(s.args) != len(callee.params):
            self.error(
                s.pos,
                f"{recv_ty.class_name}.{s.feature} takes {len(callee.params)} arguments, got {len(s.args)}",
            )
            return
        for p, arg_ty in zip(callee.params, arg_types):
            self.require_assignable(p.ty, arg_ty, s.pos, f"argument {p.name}")

    # -- expressions ----------------------------------------------------------

    def resolve_name(self, name: str, info: ClassInfo, feat: ast.Feature | None, pos) -> ast.Type | None:
        ty = info.name_type(name, feat)
        if ty is None:
            self.error(pos, f"unknown name {name}")
        return ty

    def resolve_attribute(
        self, receiver: str, attr: str, info: ClassInfo, feat: ast.Feature | None, pos
    ) -> ast.Type | None:
        """Type of receiver.attr, or None after reporting why it has none."""
        recv_ty = self.resolve_name(receiver, info, feat, pos)
        if recv_ty is None:
            return None
        if recv_ty.kind != ast.REF:
            self.error(pos, f"{receiver} is not a reference")
            return None
        target_info = self.classes.get(recv_ty.class_name or "")
        attr_ty = target_info.attributes.get(attr) if target_info else None
        if attr_ty is None:
            self.error(pos, f"{recv_ty.class_name} has no attribute {attr}")
        return attr_ty

    def expr_type(
        self,
        e: ast.Expr,
        info: ClassInfo,
        feat: ast.Feature | None,
        *,
        old_ok: bool,
        contract: bool,
    ) -> ast.Type:
        """The type of e in feat of info (None in an invariant), set as the
        ty of e and of each of its subexpressions; old_ok and contract say
        whether ``old`` and creation expressions are legal there."""
        self.info, self.feat, self.old_ok, self.contract = info, feat, old_ok, contract
        return self.type_of(e)

    def type_of(self, e: ast.Expr) -> ast.Type:
        """expr_type of e in the scope of the current one: one dispatch on
        the node's class (see _TYPE_RULES), whose rule types the children."""
        ty = e.ty = _TYPE_RULES[type(e)](self, e)
        return ty

    def type_name(self, e: ast.Name) -> ast.Type:
        return self.resolve_name(e.name, self.info, self.feat, e.pos) or ast.T_VOID

    def type_qualified(self, e: ast.Qualified) -> ast.Type:
        return self.resolve_attribute(e.receiver, e.attr, self.info, self.feat, e.pos) or ast.T_VOID

    def type_old(self, e: ast.Old) -> ast.Type:
        if not self.old_ok:
            self.error(e.pos, "old is only legal inside ensure clauses")
        return self.type_of(e.expr)

    def type_not(self, e: ast.Unary) -> ast.Type:
        self.require_boolean(self.type_of(e.expr), e.pos, "not operand")
        return ast.T_BOOL

    def type_has(self, e: ast.Has) -> ast.Type:
        if self.type_of(e.receiver).kind != ast.SET_OF_STRING:
            self.error(e.pos, "has() requires a string-set receiver")
        if self.type_of(e.item).kind not in (ast.STRING, ast.VOID_TYPE):
            self.error(e.pos, "has() takes a string argument")
        return ast.T_BOOL

    def type_create(self, e: ast.CreateExpr) -> ast.Type:
        if not self.contract:
            self.error(e.pos, "creation expressions are only representable in contract clauses")
        if e.class_name not in self.classes:
            self.error(e.pos, f"unknown class {e.class_name}")
        return ast.ref(e.class_name)

    def type_binary(self, e: ast.Binary) -> ast.Type:
        lt = self.type_of(e.left)
        rt = self.type_of(e.right)
        op = e.op
        if op in ast.BOOL_OPS:
            self.require_boolean(lt, e.pos, f"{op} operand")
            self.require_boolean(rt, e.pos, f"{op} operand")
            return ast.T_BOOL
        if op == "=" or op == "/=":
            if not self.comparable(lt, rt):
                self.error(e.pos, f"cannot compare {lt} with {rt}")
            return ast.T_BOOL
        if lt.kind != ast.INTEGER or rt.kind != ast.INTEGER:
            self.error(e.pos, f"{op} requires integer operands")
        return ast.T_INT if op in ast.ARITH_OPS else ast.T_BOOL

    @staticmethod
    def comparable(a: ast.Type, b: ast.Type) -> bool:
        if a.kind == ast.VOID_TYPE:
            return b.is_nullable or b.kind == ast.VOID_TYPE
        if b.kind == ast.VOID_TYPE:
            return a.is_nullable
        if a.kind == ast.REF and b.kind == ast.REF:
            return a.class_name == b.class_name
        return a.kind == b.kind

    def require_boolean(self, ty: ast.Type | None, pos, what: str):
        if ty is not None and ty.kind != ast.BOOLEAN:
            self.error(pos, f"{what} must be boolean, got {ty}")

    def require_assignable(self, target: ast.Type, value: ast.Type | None, pos, what: str):
        if value is None:
            return
        if value.kind == ast.VOID_TYPE:
            if not target.is_nullable:
                self.error(pos, f"{what}: {target} cannot hold Void")
            return
        if target.kind == ast.REF:
            if value.kind != ast.REF or value.class_name != target.class_name:
                self.error(pos, f"{what}: expected {target}, got {value}")
            return
        if target.kind != value.kind:
            self.error(pos, f"{what}: expected {target}, got {value}")


# each expression class's typing rule; a literal's type is its class's
_TYPE_RULES = {
    ast.IntLit: lambda self, e: ast.T_INT,
    ast.BoolLit: lambda self, e: ast.T_BOOL,
    ast.StrLit: lambda self, e: ast.T_STRING,
    ast.VoidLit: lambda self, e: ast.T_VOID,
    ast.SetLit: lambda self, e: ast.T_SET,
    ast.Name: _Analysis.type_name,
    ast.Qualified: _Analysis.type_qualified,
    ast.Old: _Analysis.type_old,
    ast.Unary: _Analysis.type_not,
    ast.Has: _Analysis.type_has,
    ast.CreateExpr: _Analysis.type_create,
    ast.Binary: _Analysis.type_binary,
}


def analyze(program: ast.Program) -> CheckedProgram:
    """Check the program and return it with symbol tables attached.
    Raises SemanticError listing every problem found."""
    analysis = _Analysis(program)
    analysis.build_tables()
    analysis.check_types_exist()
    if not analysis.issues:
        for cls in program.classes:
            analysis.check_class(cls)
    if analysis.issues:
        raise SemanticError(analysis.issues)
    return CheckedProgram(program=program, classes=analysis.classes)
