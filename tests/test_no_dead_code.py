"""Every definition in `src/orchardlab` is used inside the package.

Every top-level function and class, and every method of a public class,
must be referenced by name or attribute somewhere in `src/` outside its
own definition (imports do not count). Dunder methods are exempt, and so
is the library API the README lists, which no subcommand calls. Oracles
and helpers that only tests call belong in `tests/oracles.py`.  Outside
`field.py`, no module reads the private state of a field context, and
no module imports a private name of `incidence`.

A top-level function or class is used when its name is read (loaded)
outside its definition, either in its own module or, under the name it
is imported as, in a module that imports it from there; a read of the
same spelling in a module that does not import it, or an attribute of
that spelling, does not count. Methods are still matched by bare name,
not by owner: a method passes as soon as any name or attribute in `src/`
spells the same word, so a method that shares its name with a used one
(say `identity` or `contains`) is not caught when it has no caller of
its own.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "orchardlab"
README = SRC.parents[1] / "README.md"

# module -> the README's library API; cli.main is the console entry point
API = {
    "bsg": {"covering_number", "is_approximate_group",
            "BsgDecomposition.structured_support", "BsgDecomposition.boundary_atoms"},
    "cli": {"main"},
    "constructions": {"normalize_to_segre"},
    "groups": {"reflection_matrix"},
    "incidence": {"free_tuples", "omega_set"},
    "measures": {"coset_mass", "is_symmetric", "load_measure", "lp_norm_sq",
                 "save_measure", "sym_power", "sym_power_2exp", "uniform"},
}

TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions():
    """(module, qualified name, node) of each definition checked."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, node.name, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not (
                        m.name.startswith("__") and m.name.endswith("__")
                    ):
                        yield module, f"{node.name}.{m.name}", m


def _loads(tree):
    """name -> ids of the nodes that read it in `tree`."""
    loads = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            loads.setdefault(n.id, set()).add(id(n))
    return loads


def _top_level_uses():
    """(module, name) -> ids of the reads of that module's top-level name:
    in the module itself, and in each module that imports it from there
    under the name it is bound to."""
    loads = {module: _loads(tree) for module, tree in TREES.items()}
    uses = {}
    for module, tree in TREES.items():
        for name, ids in loads[module].items():
            uses.setdefault((module, name), set()).update(ids)
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module in TREES:
                for a in n.names:
                    ids = loads[module].get(a.asname or a.name, set())
                    uses.setdefault((n.module, a.name), set()).update(ids)
    return uses


def test_every_definition_is_used():
    top = _top_level_uses()
    bare = {}
    for tree in TREES.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                bare.setdefault(n.id, set()).add(id(n))
            elif isinstance(n, ast.Attribute):
                bare.setdefault(n.attr, set()).add(id(n))

    def uses(module, qualname, node):
        if "." in qualname:                    # a method: by bare name
            return bare.get(node.name, set())
        return top.get((module, qualname), set())

    dead = [
        f"{module}.{qualname} (line {node.lineno})"
        for module, qualname, node in _definitions()
        if qualname not in API.get(module, ())
        and not uses(module, qualname, node) - {id(n) for n in ast.walk(node)}
    ]
    assert not dead, "defined in src/ but never used there: " + ", ".join(dead)


def test_allow_list_is_the_readme_api():
    defined = {(module, qualname) for module, qualname, _ in _definitions()}
    readme = README.read_text()
    for module, names in API.items():
        for name in names:
            assert (module, name) in defined, f"{module}.{name} is not defined"
            assert name == "main" or f"`{name}`" in readme, f"README does not list {name}"


def test_every_parameter_is_read():
    """Every parameter of a function in `src/` is read in its body.
    `self`, `cls`, `_`-prefixed names and the parameters of dunder
    methods, whose signatures the language fixes, are exempt."""
    unread = []
    for module, tree in TREES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {
                n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{module}.{fn.name}({arg.arg}) (line {fn.lineno})"
                for arg in params
                if arg.arg not in ("self", "cls") and not arg.arg.startswith("_")
                and arg.arg not in read
            ]
    assert not unread, "parameters never read: " + ", ".join(unread)


# the private state of `field.FieldCtx` behind its public `zech` tables:
# its code of 1 and the names its tables had before `ZechTables`
PRIVATE_FIELD_NAMES = {"_" + name for name in
                       ("unit", "zech", "zech_arrays", "log_zero", "log_minus_one")}


def test_only_field_reads_private_field_state():
    """Modules other than `field` read Zech log codes through the public
    `FieldCtx.zech` (`field.ZechTables`), never a field's private
    attributes, so the log-code format has one owner."""
    reads = [
        f"{module}.py:{n.lineno} .{n.attr}"
        for module, tree in TREES.items() if module != "field"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in PRIVATE_FIELD_NAMES
    ]
    assert not reads, "private field attributes read outside field.py: " + ", ".join(reads)


def test_no_module_imports_private_incidence_names():
    """The triple kernels' private helpers stay inside `incidence`: no
    other module of `src/` imports an underscore name from it, so the
    rest of the package depends on its public functions only."""
    imports = [
        f"{module}.py:{n.lineno} {a.name}"
        for module, tree in TREES.items() if module != "incidence"
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "incidence" and n.level == 1
        for a in n.names if a.name.startswith("_")
    ]
    assert not imports, "private incidence names imported: " + ", ".join(imports)
