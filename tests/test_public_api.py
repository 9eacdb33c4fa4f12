"""Every public name in src/kida is used by the package itself.

A public module-level name or method that only the tests reach is either
deleted or listed in ALLOWED with the reason it stays.  Uses are read from
the syntax trees of every module but ``__init__``, whose export table
lists names as strings: exposure, not use.  A use is a name, an attribute
or a string constant (``verify.SUITES`` names suite functions) outside the
definition itself.

A method name that several classes define (``as_mapping``) counts for
an owner class only where the receiver is known to be that class:
``self`` or ``cls`` in its methods, a parameter annotated with it, a
local bound to its constructor or to a call annotated to return it, or a
``self`` attribute bound earlier in one of those ways.  Any other
receiver counts for no owner.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kida"

# qualified name -> why it stays although no module of the package uses it
ALLOWED = {
    "transition.mc_transfer": "acceptance criterion c10",
    "transition.compose": "perfbench's transition-batch composes reports",
    "transition.TransitionReport.to_invariant_record":
        "perfbench's worker chains reports through it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    """Qualified name -> (module, owner class or None, name)."""
    out = {}
    for mod, tree in trees.items():
        for node in tree.body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            for name in names:
                if not name.startswith("_"):
                    out[f"{mod}.{name}"] = (mod, None, name)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        out[f"{mod}.{node.name}.{sub.name}"] = (
                            mod, node.name, sub.name)
    return out


def _annotated_class(node, classes):
    """The src/kida class an annotation names, if it names one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in classes else None


class _Uses(ast.NodeVisitor):
    """Walks one module and adds the (owner, name) pairs it uses to
    ``uses``: owner None for any use of the name, the receiver's class
    where it is known."""

    def __init__(self, classes, returns, attr_types, uses):
        self.classes, self.returns = classes, returns
        self.attr_types, self.uses = attr_types, uses
        self.owner, self.defining, self.env = None, [], {}

    def type_of(self, node):
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.attr_types.get((self.type_of(node.value), node.attr))
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            return name if name in self.classes else self.returns.get(name)
        return None

    def use(self, owner, name):
        # a definition does not use itself
        if not any(name == n and owner in (None, o)
                   for o, n in self.defining):
            self.uses.add((owner, name))

    def visit_ClassDef(self, node):
        outer = self.owner
        self.defining.append((self.owner, node.name))
        self.owner = node.name
        self.generic_visit(node)
        self.owner = outer
        self.defining.pop()

    def visit_FunctionDef(self, node):
        outer_env, outer_owner = self.env, self.owner
        self.defining.append((self.owner, node.name))
        self.env = dict(self.env)
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for i, arg in enumerate(args):
            if i == 0 and self.owner and arg.arg in ("self", "cls"):
                self.env[arg.arg] = self.owner
            elif arg.annotation is not None:
                self.env[arg.arg] = _annotated_class(arg.annotation,
                                                     self.classes)
        self.owner = None       # a nested def belongs to no class
        self.generic_visit(node)
        self.env, self.owner = outer_env, outer_owner
        self.defining.pop()

    def visit_Assign(self, node):
        kind = self.type_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = kind
            elif isinstance(target, ast.Attribute) and kind:
                recv = self.type_of(target.value)
                if recv:
                    self.attr_types[recv, target.attr] = kind
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(None, node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(None, node.attr)
            recv = self.type_of(node.value)
            if recv:
                self.use(recv, node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.use(None, node.value)


def _unused():
    trees = _trees()
    defs = _public_definitions(trees)
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    returns = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                kind = _annotated_class(node.returns, classes)
                if kind:
                    returns[node.name] = kind
    uses, attr_types = set(), {}
    for mod, tree in trees.items():
        if mod != "__init__":
            _Uses(classes, returns, attr_types, uses).visit(tree)
    shared = {name for name, n in Counter(
        name for _, owner, name in defs.values() if owner).items() if n > 1}
    return {qualified for qualified, (_, owner, name) in defs.items()
            if ((owner, name) if name in shared and owner else (None, name))
            not in uses}


def test_every_public_name_is_used_by_the_package():
    assert sorted(_unused() - set(ALLOWED)) == []


def test_allowed_names_exist_and_are_unused():
    # an entry for a name that is gone, or that the package now uses,
    # leaves the list
    assert sorted(set(ALLOWED) - _unused()) == []
