"""No dead code in the package: every local that is assigned is read, and every import is used.

A function's locals include those of the functions nested in it, so a value
handed to a closure counts as read.  Names starting with ``_`` are exempt.

No unused settings either: every default of a parameter or of a class field
is passed by some call in the package, the tests or the benchmark, no
default is overridden with the same constant expression by every call, every
annotated class field is read somewhere, on a receiver not known to be
another class, and every other attribute that a method assigns on ``self`` is
read on a receiver known to be its class, outside the scope that assigns it.
Every name bound at the top level of a module is loaded or imported
somewhere, and every method is named by an attribute load.  Calls
are matched by the name of the function, method or class only, so a call of
any function of the same name counts.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nullinf

PACKAGE = Path(nullinf.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _names(node, ctx):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def dead_locals(tree):
    """(line, function, name) of each local that is assigned and never read."""
    found = {}
    # outer functions come first in the walk, so a name unread in a nested
    # function is reported once, at the innermost function
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unread = _names(fn, ast.Store) - _names(fn, (ast.Load, ast.Del))
            for n in ast.walk(fn):
                if isinstance(n, ast.Name) and n.id in unread and not n.id.startswith("_"):
                    found[n.lineno, n.id] = (n.lineno, fn.name, n.id)
    return sorted(found.values())


def unused_imports(tree):
    """(line, name) of each imported name that the module never reads."""
    used = _names(tree, ast.Load)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and not name.startswith("_"):
                    out.append((node.lineno, name))
    return out


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _calls(trees):
    """Called name -> the calls of it."""
    out = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and (name := _called_name(n)):
                out.setdefault(name, []).append(n)
    return out


def _passed(call, position, name):
    """The expression ``call`` passes for parameter ``name`` at ``position``.

    None if it passes none; ``...`` if a starred argument or ``**`` may pass it.
    """
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return ...
    if position < len(call.args):
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == name), None)


def _constant(expr):
    """Whether ``expr`` reads no variable: every name in it is the callee of a call.

    ``Weights(0.45, 0.3)`` is constant; ``rng.normal()`` reads ``rng``.
    """
    callees = {id(c.func) for c in ast.walk(expr) if isinstance(c, ast.Call)}
    return not any(isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in callees for n in ast.walk(expr))


def _fields(cls):
    """The annotated fields of a class body, in order."""
    return [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _static(fn):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in getattr(fn, "decorator_list", ()))


def _self_attributes(cls):
    """The attributes that the methods of a class body assign on their first parameter, in order."""
    out = {}
    for fn in (f for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _static(f)):
        positional = fn.args.posonlyargs + fn.args.args
        for n in ast.walk(fn):
            if (positional and isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == positional[0].arg):
                out[n.attr] = None
    return list(out)


def _parameters(fn, called, qualname, skip):
    a = fn.args
    positional = (a.posonlyargs + a.args)[skip:]
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional):
        yield called, f"{qualname}({arg.arg})", i, arg.arg, i >= first
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        yield called, f"{qualname}({arg.arg})", math.inf, arg.arg, default is not None


def _all_parameters(tree):
    """(called name, qualified name, position, parameter, has a default) of each parameter in one module.

    A class is called by its name, both for its ``__init__`` and for the fields of a
    dataclass or NamedTuple; a method's position does not count ``self``.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for i, s in enumerate(_fields(cls)):
            yield cls.name, f"{cls.name}.{s.target.id}", i, s.target.id, s.value is not None
        for fn in (f for f in cls.body if isinstance(f, functions)):
            methods.add(fn)
            called = cls.name if fn.name == "__init__" else fn.name
            yield from _parameters(fn, called, f"{cls.name}.{fn.name}", 0 if _static(fn) else 1)
    for fn in ast.walk(tree):
        if isinstance(fn, functions) and fn not in methods:
            yield from _parameters(fn, fn.name, fn.name, 0)


def unset_defaults(modules, callers):
    """``module.name`` of each default in ``modules`` (stem -> tree) that no call in ``callers`` passes."""
    calls = _calls(callers)
    return [f"{stem}.{qualname}"
            for stem, tree in modules.items()
            for called, qualname, position, name, default in _all_parameters(tree)
            if default and all(_passed(c, position, name) is None for c in calls.get(called, ()))]


def one_value_all_parameters(modules, callers):
    """``module.name`` of each default in ``modules`` that every call in ``callers`` overrides
    with the same constant expression: a setting with one value in use.

    A parameter without a default is an input, not a setting, and is not checked.
    """
    calls = _calls(callers)
    out = []
    for stem, tree in modules.items():
        for called, qualname, position, name, default in _all_parameters(tree):
            passed = [_passed(c, position, name) for c in calls.get(called, ())]
            if (default and passed and all(isinstance(e, ast.expr) and _constant(e) for e in passed)
                    and len({ast.dump(e) for e in passed}) == 1):
                out.append(f"{stem}.{qualname}")
    return out


def _attribute_loads(trees):
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _local_nodes(scope):
    """The nodes inside ``scope``, without those of the functions and lambdas nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, _SCOPES):
            todo.extend(ast.iter_child_nodes(n))


def _class_named(expr, classes):
    """The class that an annotation or a callee names (``K``, ``m.K`` or ``"K"``), if it is one of ``classes``."""
    name = (expr.id if isinstance(expr, ast.Name) else expr.attr if isinstance(expr, ast.Attribute)
            else expr.value if isinstance(expr, ast.Constant) else None)
    return name if name in classes else None


def _bound_classes(scope, classes, returns, owner):
    """Name -> class, or None, of each name that ``scope`` binds.

    A name has a class when every binding of it gives one: ``self`` in a method of ``owner``,
    a parameter annotated with a class, or a call of a class or of a function annotated to
    return one (``returns``).
    """
    kinds = {}
    if not isinstance(scope, ast.Module):
        a = scope.args
        positional = a.posonlyargs + a.args
        for arg in positional + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]:
            kinds[arg.arg] = {arg.annotation and _class_named(arg.annotation, classes)}
        if owner and positional and not _static(scope):
            kinds[positional[0].arg] = {owner}
    made = {}
    for n in _local_nodes(scope):
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call):
            name = _called_name(n.value)
            made.update((id(t), name if name in classes else returns.get(name)) for t in n.targets)
    for n in _local_nodes(scope):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            kinds.setdefault(n.id, set()).add(made.get(id(n)))
    return {name: k.pop() if len(k) == 1 else None for name, k in kinds.items()}


def _receiver_classes(tree, classes, returns):
    """(attribute, class of its receiver or None) of each attribute load in ``tree``.

    A load of ``x.a`` in a scope that also assigns ``x.a`` reads back its own write, and is left out.
    """
    methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body}
    out = []

    def visit(scope, env):
        env = {**env, **_bound_classes(scope, classes, returns, methods.get(id(scope)))}
        attrs = [(n, n.value.id if isinstance(n.value, ast.Name) else None)
                 for n in _local_nodes(scope) if isinstance(n, ast.Attribute)]
        written = {(name, n.attr) for n, name in attrs if name and isinstance(n.ctx, ast.Store)}
        out.extend((n.attr, env.get(name)) for n, name in attrs
                   if isinstance(n.ctx, ast.Load) and (name, n.attr) not in written)
        for n in _local_nodes(scope):
            if isinstance(n, _SCOPES):
                visit(n, env)

    visit(tree, {})
    return out


def unread_fields(modules, readers):
    """``module.Class.field`` of each annotated class field in ``modules`` that no attribute read in
    ``readers`` names, counting only reads whose receiver is not known to be another class, then
    of each other attribute that a method assigns on ``self``, counting only reads whose receiver
    is known to be its class: such an attribute is declared nowhere that an unknown reader could see.

    A receiver is known when it is ``self`` in a method, a parameter annotated with a class, or a
    name bound from a class's constructor or from a call annotated to return a class; calls are
    matched by name, and a function name annotated with more than one return class tells nothing.
    """
    classes = {cls.name for tree in readers for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}
    annotated = {}
    for tree in readers:
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotated.setdefault(fn.name, set()).add(fn.returns and _class_named(fn.returns, classes))
    returns = {name: kinds.pop() for name, kinds in annotated.items() if len(kinds) == 1}
    receivers = {}
    for tree in readers:
        for attr, cls in _receiver_classes(tree, classes, returns):
            receivers.setdefault(attr, set()).add(cls)
    out = []
    for stem, tree in modules.items():
        for cls in (c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)):
            fields = [s.target.id for s in _fields(cls)]
            out += [f"{stem}.{cls.name}.{name}" for name in fields if not receivers.get(name, set()) & {None, cls.name}]
            out += [f"{stem}.{cls.name}.{name}" for name in _self_attributes(cls)
                    if name not in fields and cls.name not in receivers.get(name, ())]
    return out


def unnamed_methods(modules, readers):
    """``module.Class.method`` of each method of a class in ``modules`` that no attribute load in
    ``readers`` names; dunder methods are exempt."""
    read = _attribute_loads(readers)
    return [f"{stem}.{cls.name}.{fn.name}"
            for stem, tree in modules.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            if fn.name not in read and not (fn.name.startswith("__") and fn.name.endswith("__"))]


def unread_module_names(modules, readers):
    """``module.name`` of each name bound at the top level of ``modules`` that no file in ``readers``
    loads, as a name or an attribute, or imports by name; dunder names are exempt."""
    used = set()
    for tree in readers:
        for n in ast.walk(tree):
            if isinstance(n, ast.alias):
                used.add(n.name)
            elif isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                used.add(n.id if isinstance(n, ast.Name) else n.attr)
    out = []
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out += [f"{stem}.{name}" for name in bound
                    if name not in used and not (name.startswith("__") and name.endswith("__"))]
    return out


SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dead_locals_or_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dead_locals(tree) == []
    assert unused_imports(tree) == []


def _loaded_after(statement):
    """Names in ``sys.modules`` after ``statement`` in a fresh interpreter."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return set(out.stdout.split())


def test_compiling_a_field_loads_no_numpy_test_or_fortran_tools():
    loaded = _loaded_after("from nullinf.metrics import MetricField\nMetricField(0.1)")
    assert "nullinf.metrics" in loaded
    assert {"numpy.f2py", "numpy.testing"} & loaded == set()


def test_package_root_and_model_pde_load_only_what_they_use():
    assert {m for m in _loaded_after("import nullinf") if m.startswith("nullinf.")} == set()
    assert "sympy" not in _loaded_after("import nullinf.modelpde")


def test_checker_flags_a_dead_local_and_an_unused_import():
    tree = ast.parse(
        "import os\nimport math\n\n"
        "def f(x):\n    y, _ = x, 1\n    z = math.pi\n    def g():\n        return z\n    return g\n"
    )
    assert dead_locals(tree) == [(5, "f", "y")]
    assert unused_imports(tree) == [(1, "os")]


def _package_and_callers():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    callers = [*modules.values(), *(ast.parse(p.read_text(), filename=str(p))
                                    for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py")))]
    return modules, callers


def test_every_default_is_passed_and_every_field_is_read():
    modules, callers = _package_and_callers()
    assert unset_defaults(modules, callers) == []
    assert unread_fields(modules, callers) == []


def test_every_method_is_named():
    assert unnamed_methods(*_package_and_callers()) == []


def test_checker_flags_an_unnamed_method():
    module = ast.parse(
        "class K:\n"
        "    def __add__(self, o):\n        return self\n\n"
        "    @property\n    def size(self):\n        return self._half()\n\n"
        "    def _half(self):\n        return 1\n\n"
        "    def scale(self, f):\n        return self\n\n"
        "    def at(self, x):\n        return x\n"
    )
    callers = [module, ast.parse("k = K()\nprint(k.size, K.at)\nscale = 2\nk.scale = 3\n")]
    # a property read and a method named without a call count; a name or a store does not
    assert unnamed_methods({"m": module}, callers) == ["m.K.scale"]


def test_every_module_level_name_is_used():
    assert unread_module_names(*_package_and_callers()) == []


def test_checker_flags_an_unread_module_level_name():
    module = ast.parse(
        "import os\n__all__ = []\nA, (B, C) = 1, (2, 3)\nD: int = 4\nE = 5\n\n"
        "def f():\n    return A\n\n"
        "def g():\n    return os\n\n"
        "class K:\n    pass\n"
    )
    callers = [module, ast.parse("from m import g\nimport m\nprint(m.B + m.f())\n")]
    # A is read in its own module, B as an attribute, g by import; os and __all__ are not checked
    assert unread_module_names({"m": module}, callers) == ["m.C", "m.D", "m.E", "m.K"]


def test_no_setting_has_one_value_in_use():
    assert one_value_all_parameters(*_package_and_callers()) == []


def test_checker_flags_an_unset_default_and_an_unread_field():
    module = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass P:\n    a: int\n    b: int = 0\n    c: int = 1\n\n"
        "class K:\n    def __init__(self, u, v=0):\n        self.u = u\n\n"
        "    def at(self, x, y=1, *, z=2):\n        return x\n\n"
        "def f(x, y=1, *, z=2):\n    return x\n"
    )
    callers = [module, ast.parse("P(1, 2)\nK(1).at(0, 1)\nf(0, z=3)\nprint(P(0).a + P(0).b)\n")]
    assert unset_defaults({"m": module}, callers) == ["m.P.c", "m.K.__init__(v)", "m.K.at(z)", "m.f(y)"]
    # K.u is assigned on self and never read
    assert unread_fields({"m": module}, callers) == ["m.P.c", "m.K.u"]


def test_checker_flags_a_field_read_only_under_a_shared_name():
    module = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Report:\n    theta: float\n    mass: float\n    width: float\n    size: float\n\n"
        "@dataclass\nclass Eval:\n    theta: float\n    width: float\n    size: float\n\n"
        "    def doubled(self):\n        return 2 * self.theta\n\n"
        "class Field:\n    def at(self, x) -> Eval:\n        return Eval(x, x, x)\n"
    )
    callers = [module, ast.parse(
        "def f(ev: Eval, rep):\n    return ev.width + rep.mass\n\n"
        "e = Field().at(1.0)\nk = Eval(0.0, 0.0, 0.0)\nprint(e.theta, k.size)\n"
        "k = load()\nprint(k.size, (lambda e: e.width)(0))\n"
    )]
    # both theta loads read an Eval (self in its method, e from a call annotated to return Eval),
    # as does the annotated ev; rep, the rebound k and the lambda's e are unknown, so they count
    assert unread_fields({"m": module}, callers) == ["m.Report.theta"]


def test_checker_flags_an_attribute_assigned_on_self_and_read_only_where_it_is_set():
    module = ast.parse(
        "class Cone:\n"
        "    def __init__(self, u, theta, metric, n):\n"
        "        self.u = float(u)\n        self.theta = theta\n        self.metric = metric\n"
        "        self.n = len(self.theta)\n        self.size = n\n\n"
        "    def width(self):\n        return self.n\n\n"
        "class Row:\n    u: float\n"
    )
    callers = [module, ast.parse(
        "c = Cone(0.0, [1.0], None, 2)\nprint(c.metric, rows[0].u)\n\n"
        "def f(row):\n    return row.size\n"
    )]
    # theta is read only in the method that sets it; u and size only on receivers not known to be
    # a Cone (the unknown ones still read Row.u); metric is read on a Cone and n in another method
    assert unread_fields({"m": module}, callers) == ["m.Cone.u", "m.Cone.theta", "m.Cone.size"]


def test_checker_flags_a_setting_with_one_value_in_use():
    module = ast.parse(
        "class K:\n    def at(self, s, q=1.0):\n        return s\n\n"
        "def f(x, y=None, z=(1, 2), *, w=0, v=1, t=2):\n    return x\n\n"
        "def g(a=1):\n    return a\n\n"
        "def h(p=0):\n    return p\n"
    )
    callers = [module, ast.parse(
        "f(1, W(0.45, -0.1), (3, 4), w=n, v=2, t=3)\n"
        "f(1, W(0.45, -0.1), z=(3, 4), w=1, t=4)\n"
        "K().at(0, 2.0)\nk.at(1, q=2.0)\n"
        "g(2)\ng(*xs)\n"
        "h(rng.normal())\nh(rng.normal())\n"
    )]
    # x is an input; w reads a variable once, v keeps its default once, t has two values,
    # g may be passed a by the starred call, and h's value is a method call on a variable
    assert one_value_all_parameters({"m": module}, callers) == ["m.K.at(q)", "m.f(y)", "m.f(z)"]
