"""Every definition under src/mechdock is used somewhere in src/, and
every module under src/ and tests/ uses each name it imports.

A module-level function, class or constant whose name is never loaded
(read as a name or attribute, or imported) in the package is reachable
only from tests, or from nothing. A method or dataclass field counts as
used only when some src/ line loads it as an attribute of a receiver that
can be of its class, a base or a subclass: `_Receivers` types each
receiver, and one it cannot type counts for every class with a member of
that name. The benchmark under bench/ drives the program from outside, so
an attribute name it loads counts as a use of every member of that name.
Dunder methods are called by the interpreter and are exempt. The
package's __init__.py re-exports nothing, so a name imported there counts
as an unused import. The allowlist names the deliberate cross-check
oracles, which the tests compare the program against. The import check
applies to each module on its own. Every function under src/mechdock that
is not a method reads each of its parameters.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mechdock"
BENCH = TESTS.parent / "bench"

ALLOWED = {
    "compute_b_closed": "closed form the tests check the b_k recurrence against",
    "__version__": "package metadata read by tools, not by the package",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _loads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _loaded(trees):
    return {name for tree in trees.values() for name in _loads(tree)}


def _parse_src():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


TOP = None  # the type of a value the analysis cannot tell
NOTHING = frozenset()  # a value holding nothing defined in src/
# Annotations naming types from outside src/.
OUTSIDE_TYPES = {"bool", "dict", "float", "Fraction", "frozenset", "int", "list"}
OUTSIDE_TYPES |= {"set", "str", "tuple", "type"}
# Expressions whose value is never an object defined in src/.
OUTSIDE_VALUES = (ast.Constant, ast.JoinedStr, ast.Compare, ast.List, ast.Tuple)
OUTSIDE_VALUES += (ast.Set, ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp)
OUTSIDE_VALUES += (ast.GeneratorExp,)


def _join(a, b):
    return TOP if a is TOP or b is TOP else a | b


class _Receivers:
    """Which src/ classes the receiver of each attribute load can be of.

    A type is a set of atoms, ("instance" | "class", class key) or
    ("function" | "method", function key), or TOP. Keys are tuples: a
    module is (name,), a class (module, class), a function its scope's key
    plus its name (a method's scope is its module, with the class name
    put in between). One flow-insensitive pass over every scope, repeated
    until nothing grows, types each name by the union of what is bound to
    it. A parameter is typed by its annotation, by the first parameter of
    a method, or by the arguments of every call in src/; it is TOP when
    the function is also reached another way (passed as a value, called on
    a receiver of unknown type, or never named in src/). `used` holds
    (class key, member) for each member loaded.
    """

    def __init__(self, trees):
        self.modules = {}  # module name -> (tree, whether it is a package)
        self.classes = {}  # class key -> ClassDef
        self.defs = {}  # function key -> (FunctionDef, decorator kind, class key)
        self.scopes = {}  # scope key -> (enclosing scope key, names bound)
        self.env = {}  # (scope key, name) -> type
        self.fields = {}  # (class key, attribute) -> type of what is stored
        self.returns = {}  # function key -> type
        self.escaped = set()  # function keys whose parameters are TOP
        self.top_attrs = set()  # attributes stored on a receiver of unknown type
        self.used = set()
        for path, tree in trees.items():
            mod = _module_of(path)
            self.modules[mod] = (tree, path.name == "__init__.py")
            self.scopes[(mod,)] = (None, _module_names(tree))
            self._collect(tree.body, (mod,), None)
        self.members = {key: _members(node) for key, node in self.classes.items()}
        self.bases = {key: [] for key in self.classes}
        for key, node in self.classes.items():
            for base in node.bases:
                t = self._expr(base, key[:1], called=True) or ()
                self.bases[key] += [k for kind, k in t if kind == "class"]
        words = [n for tree in trees.values() for n in ast.walk(tree)]
        self.named = {getattr(n, "id", getattr(n, "attr", None)) for n in words}
        self.changed = True
        while self.changed:
            self.changed = False
            for scope in list(self.scopes):
                self._scope(scope)

    def _collect(self, body, scope, cls):
        for node in body:
            if isinstance(node, ast.ClassDef) and len(scope) == 1:
                self.classes[(scope[0], node.name)] = node
                self._collect(node.body, scope, (scope[0], node.name))
            elif isinstance(node, ast.FunctionDef):
                key = (*scope, *cls[1:], node.name) if cls else (*scope, node.name)
                decorators = {getattr(d, "id", None) for d in node.decorator_list}
                kinds = decorators & {"property", "classmethod", "staticmethod"}
                kind = kinds.pop() if kinds else "method" if cls else "function"
                self.defs[key] = (node, kind, cls)
                self.scopes[key] = (scope, _local_names(node))
                self._collect(node.body, key, None)

    def mro(self, key):
        out = [key]
        for base in self.bases.get(key, ()):
            out += [k for k in self.mro(base) if k not in out]
        return out

    def family(self, key):
        """The class with its src/ bases and subclasses."""
        return set(self.mro(key)) | {k for k in self.classes if key in self.mro(k)}

    def _descendants(self, key, kind):
        """("instance" | "class", k) for the class and each src/ subclass."""
        return frozenset((kind, k) for k in self.classes if key in self.mro(k))

    def _grow(self, table, key, t):
        old = table.get(key, NOTHING)
        if _join(old, t) != old:
            table[key] = _join(old, t)
            self.changed = True

    def _mark(self, table, keys):
        if not keys <= table:
            table |= keys
            self.changed = True

    # -- names -----------------------------------------------------------

    def _lookup(self, name, scope):
        while len(scope) > 1:
            parent, local = self.scopes[scope]
            if name in local:
                return self.env.get((scope, name), NOTHING)
            scope = parent
        return self._global(scope[0], name)

    def _global(self, mod, name):
        if (mod, name) in self.classes:
            return frozenset({("class", (mod, name))})
        if (mod, name) in self.defs:
            return frozenset({("function", (mod, name))})
        if name in self.scopes[(mod,)][1]:
            return self.env.get(((mod,), name), NOTHING)
        tree, package = self.modules[mod]
        for node in tree.body:
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    base = mod if package else mod.rpartition(".")[0]
                    for _ in range(node.level - 1):
                        base = base.rpartition(".")[0]
                    target = ".".join(filter(None, [base, node.module]))
                    if target in self.modules:
                        return self._global(target, alias.name)
        return TOP

    def _bind(self, target, t, scope):
        if isinstance(target, ast.Name):
            self._grow(self.env, (scope, target.id), t)
        elif isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            for elt in getattr(target, "elts", [getattr(target, "value", None)]):
                self._bind(elt, TOP, scope)
        elif isinstance(target, ast.Attribute):
            owner = self._expr(target.value, scope)
            if owner is TOP:
                self._mark(self.top_attrs, {target.attr})
            for kind, key in owner or ():
                if kind == "instance":
                    self._grow(self.fields, (key, target.attr), t)
        else:
            self._expr(target, scope)

    # -- expressions -----------------------------------------------------

    def _expr(self, node, scope, called=False):
        if isinstance(node, ast.Name):
            t = self._lookup(node.id, scope)
        elif isinstance(node, ast.Attribute):
            t = self._attribute(self._expr(node.value, scope), node.attr)
        elif isinstance(node, ast.Call):
            fn = self._expr(node.func, scope, called=True)
            args = [self._expr(a, scope) for a in node.args]
            kwargs = {k.arg: self._expr(k.value, scope) for k in node.keywords}
            return self._call(fn, args, kwargs, node)
        elif isinstance(node, (ast.BoolOp, ast.IfExp)):
            if isinstance(node, ast.IfExp):
                self._expr(node.test, scope)
            t = NOTHING
            for part in getattr(node, "values", None) or [node.body, node.orelse]:
                t = _join(t, self._expr(part, scope))
            return t
        elif isinstance(node, ast.NamedExpr):
            t = self._expr(node.value, scope)
            self._bind(node.target, t, scope)
            return t
        else:
            for child in ast.walk(node):
                if isinstance(child, ast.comprehension):
                    self._bind(child.target, TOP, scope)
                elif isinstance(child, ast.arg):
                    self._grow(self.env, (scope, child.arg), TOP)
            for child in ast.iter_child_nodes(node):
                nested = not isinstance(child, ast.expr)
                for sub in ast.iter_child_nodes(child) if nested else [child]:
                    target = isinstance(getattr(sub, "ctx", None), ast.Store)
                    if isinstance(sub, ast.expr) and not target:
                        self._expr(sub, scope)
            return NOTHING if isinstance(node, OUTSIDE_VALUES) else TOP
        if not called:  # a function passed as a value is called from anywhere
            functions = {k for kind, k in t or () if kind in ("function", "method")}
            self._mark(self.escaped, functions)
        return t

    def _attribute(self, owner, attr):
        """The type of owner.attr; records the load. An attribute of a value
        from outside src/, such as a dict's get, is TOP."""
        if owner == NOTHING:
            return TOP
        if owner is TOP:
            self.used |= {(k, attr) for k, kin in self.members.items() if attr in kin}
            methods = {k for k, d in self.defs.items() if d[2] and k[-1] == attr}
            self._mark(self.escaped, methods)
            return TOP
        t = NOTHING
        for kind, key in owner:
            if kind not in ("instance", "class"):
                return TOP
            family = self.family(key)
            self.used |= {(k, attr) for k in family if attr in self.members[k]}
            stored = [self.fields[k, attr] for k in family if (k, attr) in self.fields]
            for k in family:
                fn = self.defs.get((*k, attr))
                if fn and fn[1] == "property":
                    stored.append(self.returns.get((*k, attr), NOTHING))
                elif fn:
                    stored.append(frozenset({("method", (*k, attr))}))
                elif attr in self.members[k]:
                    stored.append(self._declared(k, attr))
            if not stored or attr in self.top_attrs:
                return TOP
            for s in stored:
                t = _join(t, s)
        return t

    def _declared(self, key, attr):
        """The type of a field or class attribute from its class body."""
        for item in self.classes[key].body:
            targets = getattr(item, "targets", [getattr(item, "target", None)])
            if any(getattr(target, "id", None) == attr for target in targets):
                t = NOTHING
                if isinstance(item, ast.AnnAssign):
                    t = self._annotation(item.annotation, key[:1])
                if item.value is not None:
                    t = _join(t, self._expr(item.value, key[:1]))
                return t
        return TOP

    def _annotation(self, node, scope):
        if isinstance(node, ast.Name) and node.id in OUTSIDE_TYPES:
            return NOTHING
        t = self._expr(node, scope, called=True) if isinstance(node, ast.Name) else TOP
        if t is TOP or any(kind != "class" for kind, _ in t):
            return TOP
        return frozenset().union(*(self._descendants(k, "instance") for _, k in t))

    def _call(self, fn, args, kwargs, node):
        if fn is TOP:
            return TOP
        t = NOTHING
        for kind, key in fn:
            if kind == "class":
                inits = [(*k, "__init__") for k in self.mro(key)]
                inits = [init for init in inits if init in self.defs]
                if inits:
                    self._pass(inits[0], args, kwargs, node, bound=True)
                t = _join(t, frozenset({("instance", key)}))
            elif kind in ("function", "method"):
                bound = kind == "method" and self.defs[key][1] != "staticmethod"
                self._pass(key, args, kwargs, node, bound)
                t = _join(t, self.returns.get(key, NOTHING))
            else:
                return TOP
        return t

    def _pass(self, key, args, kwargs, call, bound):
        """Bind a call's argument types to the callee's parameters."""
        spec = self.defs[key][0].args
        params = (spec.posonlyargs + spec.args)[1 if bound else 0 :]
        starred = any(isinstance(a, ast.Starred) for a in call.args) or None in kwargs
        if starred or len(args) > len(params):
            self._mark(self.escaped, {key})
            return
        named = spec.posonlyargs + spec.args + spec.kwonlyargs
        annotated = {a.arg for a in named if a.annotation}
        for name, t in [*zip((p.arg for p in params), args), *kwargs.items()]:
            if name not in annotated:
                self._grow(self.env, (key, name), t)

    # -- statements ------------------------------------------------------

    def _scope(self, scope):
        if len(scope) == 1:
            self._block(self.modules[scope[0]][0].body, scope)
            return
        node, kind, cls = self.defs[scope]
        outer = scope[:1] if cls else scope[:-1]
        spec = node.args
        outside = scope in self.escaped or scope[-1] not in self.named
        for i, a in enumerate(spec.posonlyargs + spec.args + spec.kwonlyargs):
            if i == 0 and cls and kind != "staticmethod":
                own = "class" if kind == "classmethod" else "instance"
                t = self._descendants(cls, own)
            elif a.annotation is not None:
                t = self._annotation(a.annotation, outer)
            elif outside:
                t = TOP
            else:
                continue
            self._grow(self.env, (scope, a.arg), t)
        positional = spec.posonlyargs + spec.args
        with_default = positional[len(positional) - len(spec.defaults) :]
        defaults = [*zip(with_default, spec.defaults)]
        defaults += [(a, d) for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d]
        for a, d in defaults:
            self._grow(self.env, (scope, a.arg), self._expr(d, outer))
        for a in (spec.vararg, spec.kwarg):
            if a is not None:
                self._grow(self.env, (scope, a.arg), TOP)
        self._block(node.body, scope)

    def _block(self, body, scope):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    self._expr(deco, scope, called=True)
                for item in getattr(node, "bases", []):
                    self._expr(item, scope, called=True)
                continue
            if isinstance(node, ast.Return) and node.value is not None:
                self._grow(self.returns, scope, self._expr(node.value, scope))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                t = self._expr(node.value, scope)
                if isinstance(node, ast.AnnAssign):
                    t = _join(t, self._annotation(node.annotation, scope))
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    self._bind(target, t, scope)
            elif isinstance(node, (ast.AugAssign, ast.For)):
                self._expr(getattr(node, "value", getattr(node, "iter", None)), scope)
                self._bind(node.target, TOP, scope)
            elif isinstance(node, ast.With):
                for item in node.items:
                    self._expr(item.context_expr, scope)
                    if item.optional_vars is not None:
                        self._bind(item.optional_vars, TOP, scope)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if len(scope) > 1:
                    for alias in node.names:
                        self._grow(self.env, (scope, alias.asname or alias.name), TOP)
            else:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.expr):
                        self._expr(child, scope)
            for handler in getattr(node, "handlers", []):
                if handler.type is not None:
                    self._expr(handler.type, scope, called=True)
                if handler.name:
                    self._grow(self.env, (scope, handler.name), TOP)
                self._block(handler.body, scope)
            for field in ("body", "orelse", "finalbody"):
                self._block(getattr(node, field, []), scope)


def _members(node):
    """A class's methods and dataclass fields (checked) and its other class
    attributes, by name: (kind, line)."""
    dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    out = {}
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            out[item.name] = ("method", item.lineno)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            out[item.target.id] = ("field" if dataclass else "attribute", item.lineno)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = ("attribute", item.lineno)
    return out


def _module_names(tree):
    """Names bound by a module's top-level assignments."""
    names = set()
    for node in tree.body:
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _local_names(fn):
    """Names a function binds, nested scopes aside: its parameters and every
    assignment, loop, import, comprehension and lambda target."""
    spec = fn.args
    names = {a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs}
    names |= {a.arg for a in (spec.vararg, spec.kwarg) if a}
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _unused_members(trees):
    program = _Receivers(trees)
    bench = {
        node.attr
        for path in sorted(BENCH.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    paths = {_module_of(path): path for path in trees}
    return [
        f"{paths[key[0]].relative_to(SRC)}:{line} {key[1]}.{name}"
        for key, members in program.members.items()
        for name, (kind, line) in members.items()
        if kind in ("method", "field")
        and not (name.startswith("__") and name.endswith("__"))
        and (key, name) not in program.used
        and name not in bench
    ]


def _module_of(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_no_definition_is_unused_in_src():
    trees = _parse_src()
    loaded = _loaded(trees)
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _definitions(tree)
        if name not in loaded and name not in ALLOWED
    ]
    assert unused + _unused_members(trees) == []


def test_allowlist_names_only_unused_definitions():
    trees = _parse_src()
    loaded = _loaded(trees)
    defined = {name for tree in trees.values() for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined
    assert not set(ALLOWED) & loaded


def test_every_function_parameter_is_read():
    """A function that is not a method reads each of its parameters.
    Methods are exempt: an override such as __setattr__ or query keeps the
    interface of what it overrides."""
    unread = []
    for path, tree in _parse_src().items():
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for fn in ast.walk(tree):
            if isinstance(fn, ast.Lambda):
                body = [fn.body]
            elif isinstance(fn, ast.FunctionDef) and id(fn) not in methods:
                body = fn.body
            else:
                continue
            spec = fn.args
            params = spec.posonlyargs + spec.args + spec.kwonlyargs
            params += [a for a in (spec.vararg, spec.kwarg) if a]
            read = {
                node.id
                for part in body
                for node in ast.walk(part)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{path.relative_to(SRC)}:{fn.lineno} {a.arg}"
                for a in params
                if a.arg not in read
            ]
    assert unread == []


def test_only_exactnum_builds_tiered_values():
    """TieredValue(...) stores the coefficients it is given unchecked, so
    only exactnum, which makes them canonical, calls it; every other
    module gets its values from tv, parse_value and the arithmetic. A
    renaming import would hide a call, so none is allowed."""
    found = []
    for path, tree in _parse_src().items():
        if path.name == "exactnum.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name == "TieredValue":
                what = f"imported as {node.asname}" if node.asname else None
            elif isinstance(node, ast.Call):
                fn = node.func
                called = getattr(fn, "id", getattr(fn, "attr", None))
                what = "called" if called == "TieredValue" else None
            else:
                continue
            if what:
                found.append(f"{path.relative_to(SRC)}:{node.lineno} {what}")
    assert found == []


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_imported_name_is_used():
    paths = sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        names = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.relative_to(TESTS.parent)}:{line} {name}"
            for name, line in _imported(tree)
            if name not in names
        ]
    assert unused == []
