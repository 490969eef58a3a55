"""The library's surface: each knob needs a setter, each output a reader.

A knob is a settable value: a parameter with a default, or a dataclass
field with a default, anywhere in ``src/momentid``.  The scan reads every
call in ``src/`` with the standard library's ``ast``: the library is what a
run reads, so a call in ``demos/``, ``bench/`` or ``tests/`` sets nothing.
A value counts as set when some call of a callable with its name passes it
by keyword, reaches it by position, or unpacks ``*`` or ``**`` arguments.
``dataclasses.replace`` sets fields by keyword, and ``functools.partial``
calls the callable it wraps.  A value that no caller sets is a knob that
only tests turn; it fails the scan unless ``ALLOWED`` names it with its
reason.

An output is a function, method or property of the library, or a field of
one of its dataclasses; Python calls the special methods (``__init__``,
``__mul__``, ...) itself, so they are left out.  A name is read where code
loads it as a variable or an attribute, or spells it in a dotted string,
as ``getattr`` does.  A function needs a reader in ``src/``: one that only
tests, demos or the benchmark read is code that no run reaches, and a test
oracle belongs in ``tests/``.  A field needs a reader in ``src/`` or
``tests/``, since tests read reports to check them.  An output without a
reader fails the scan unless ``UNREAD`` names it with its reason.

Both scans match a staticmethod of the library with its class, as
``Class.name``: it is read, and its parameters are set, only where code
spells its class, as in ``GridMeasure.uniform(8)``, so ``rng.uniform(0.0,
1.0)`` neither reads it nor sets its parameters.  Every other name is
matched without its module or class, so the scans can over-count callers
and readers but never under-count them, save for a name put together at
run time, as in ``getattr(obj, "x" + s)``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "momentid"
CALLER_DIRS = ("src",)


def _allow(callable_, names, reason):
    return {f"{callable_}({name})": reason for name in names}


# "module:callable(value)" -> why it stays without a caller
ALLOWED = {
    **_allow("models/quantile:gaussian_quantile_model",
             ("sigma_u", "x_span", "y_span"),
             "data-generating argument of the synthetic quantile design"),
    **_allow("models/single_index:gaussian_index_design",
             ("loading", "proportional_c", "span", "v_pad"),
             "data-generating argument of the synthetic index design"),
    **_allow("models/ccapm:lognormal_ccapm_model",
             ("delta0", "gamma0", "phi", "mean_growth", "sigma_signal",
              "sigma_noise", "span", "window", "g0_fn"),
             "data-generating argument of the synthetic pricing design"),
    **_allow("identcore:counterexample_cases", ("f",),
             "data-generating argument of the sequence model, the scalar "
             "map applied to each term"),
    **_allow("models/ccapm:positive_eigenpair", ("max_iter",),
             "boundary probe: test_convergence_error_carries_budget runs "
             "the power iteration out of iterations"),
    **_allow("cli:main", ("argv",),
             "entry point: None reads the command line, which the console "
             "script and python -m pass; tests hand argv directly"),
}


# "module:name" or "module:Class.name" -> why it stays without a reader
UNREAD = {
    "semiparam:PartialOutReport.tail_singular_mass":
        "the squared singular mass of m_g's discarded range, for the run "
        "trace and the sharp lower bound that ROADMAP.md plans",
}


def _trees(dirs, root=ROOT):
    """(path, syntax tree) of every Python file under ``dirs``, each
    absolute or relative to ``root``, in path order."""
    for top in dirs:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _library_nodes():
    """(module, node) for every syntax node of the library.  A function
    in a class body carries the class as ``method_of`` by the time it is
    yielded."""
    for path, tree in _trees([LIBRARY]):
        module = path.relative_to(LIBRARY).with_suffix("").as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        item.method_of = node
            yield module, node


def _is_static(node: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "staticmethod"
               for d in node.decorator_list)


def _name(node: ast.FunctionDef) -> str:
    """The name a function is called and read by: ``Class.name`` for a
    staticmethod, its own name otherwise."""
    owner = getattr(node, "method_of", None)
    if owner is not None and _is_static(node):
        return f"{owner.name}.{node.name}"
    return node.name


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """The fields of a dataclass, in order; none for another class."""
    if not _is_dataclass(node):
        return []
    return [item for item in node.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def settable_values() -> dict[str, tuple[str, int | None, bool]]:
    """key -> (callable name, position in a call or None, whether it is a
    dataclass field) for every settable value of the library."""
    found = {}

    def add(module, callable_, value, pos, field=False):
        found[f"{module}:{callable_}({value})"] = (callable_, pos, field)

    for module, node in _library_nodes():
        if isinstance(node, ast.ClassDef):
            for pos, item in enumerate(_fields(node)):
                if item.value is not None:
                    add(module, node.name, item.target.id, pos, True)
        if not isinstance(node, ast.FunctionDef):
            continue
        owner = getattr(node, "method_of", None)
        # a constructor is called by its class's name
        name = owner.name if node.name == "__init__" else _name(node)
        args = node.args
        positional = args.posonlyargs + args.args
        # self or cls is passed implicitly
        offset = int(owner is not None and not _is_static(node))
        first = len(positional) - len(args.defaults)
        for pos, arg in enumerate(positional[first:], first - offset):
            add(module, name, arg.arg, pos)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                add(module, name, arg.arg, None)
    return found


def _spellings(node: ast.expr) -> set[str]:
    """The names a loaded variable or attribute answers to: its own name,
    and ``owner.name`` as well where code spells the owner by name."""
    name = getattr(node, "attr", getattr(node, "id", None))
    if name is None:
        return set()
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return {name, f"{node.value.id}.{name}"}
    return {name}


def calls_in(dirs=CALLER_DIRS, root=ROOT) -> list[tuple[set, int, set, bool]]:
    """(names the callee answers to, positional count, keyword names,
    unpacks) for every call in ``dirs`` under ``root``; ``partial(f, ...)``
    counts as a call of f."""
    out = []
    for _, tree in _trees(dirs, root):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            names, args = _spellings(node.func), node.args
            if "partial" in names and args:
                names, args = _spellings(args[0]), args[1:]
            if not names:
                continue
            keywords = {k.arg for k in node.keywords if k.arg}
            unpacks = any(isinstance(a, ast.Starred) for a in args) or (
                any(k.arg is None for k in node.keywords))
            out.append((names, len(args), keywords, unpacks))
    return out


def unset_values(values=None, calls=None) -> set[str]:
    """Keys of the settable ``values``, the library's by default, that no
    call of ``calls``, those in ``CALLER_DIRS`` by default, sets."""
    values = settable_values() if values is None else values
    calls = calls_in() if calls is None else calls
    unset = set()
    for key, (owner, pos, field) in values.items():
        value = key[key.index("(") + 1:-1]

        def sets(call):
            callees, n_pos, keywords, unpacks = call
            if "replace" in callees:
                return field and value in keywords
            return owner in callees and (
                unpacks or value in keywords
                or (pos is not None and pos < n_pos))

        if not any(sets(call) for call in calls):
            unset.add(key)
    return unset


def test_every_settable_value_has_a_caller():
    assert sorted(unset_values() - set(ALLOWED)) == []


def test_allowlist_names_only_values_without_a_caller():
    # a value that gains a caller, or is deleted, leaves the allowlist
    assert sorted(set(ALLOWED) - unset_values()) == []


def test_scan_sees_defaults_fields_and_calls():
    values = settable_values()
    assert values["identcore:verify_local_id(dec)"] == (
        "verify_local_id", 3, False)
    assert values["fnspace:OrthonormalBasis(check)"][:2] == (
        "OrthonormalBasis", 2)
    assert values["identcore:MomentMap(norm_a)"] == ("MomentMap", 3, True)
    # the quantile runner hands verify_local_id its dec by keyword
    assert "identcore:verify_local_id(dec)" not in unset_values()


def test_a_staticmethod_is_set_only_where_its_class_is_spelled(tmp_path):
    values = {"fnspace:GridMeasure.uniform(a)":
              ("GridMeasure.uniform", 1, False)}
    code = tmp_path / "code.py"
    code.write_text("rng.uniform(0.0, 1.0)\n")
    assert unset_values(values, calls_in([tmp_path])) == set(values)
    code.write_text("GridMeasure.uniform(16, 0.0)\n")
    assert unset_values(values, calls_in([tmp_path])) == set()


def outputs() -> dict[str, tuple[str, bool]]:
    """key -> (name, whether it is a dataclass field) for every function,
    method, property and dataclass field of the library, special methods
    left out.  A nested function's key is its own name in its module."""
    found = {}
    for module, node in _library_nodes():
        if isinstance(node, ast.ClassDef):
            for item in _fields(node):
                name = item.target.id
                found[f"{module}:{node.name}.{name}"] = (name, True)
        elif isinstance(node, ast.FunctionDef) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            owner = getattr(node, "method_of", None)
            qual = node.name if owner is None else f"{owner.name}.{node.name}"
            found[f"{module}:{qual}"] = (_name(node), False)
    return found


def names_read_in(dirs, root=ROOT) -> set[str]:
    """Every name that code in ``dirs`` loads as a variable or an
    attribute, or spells as a part of a dotted string such as
    ``"identcore.MomentMap.eval"``; an attribute of a named owner, or two
    adjacent parts of a dotted string, also count as ``owner.name``."""
    names = set()
    for _, tree in _trees(dirs, root):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)):
                names |= _spellings(node)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
                    names.update(map(".".join, zip(parts, parts[1:])))
    return names


def unread_outputs(found=None, root=ROOT) -> set[str]:
    """Keys of the ``found`` outputs, the library's by default, among the
    functions that no code in ``CALLER_DIRS`` reads and the fields that no
    code there or in ``tests/`` reads, both under ``root``."""
    found = outputs() if found is None else found
    by_system = names_read_in(CALLER_DIRS, root)
    by_anyone = by_system | names_read_in(["tests"], root)
    return {key for key, (name, field) in found.items()
            if name not in (by_anyone if field else by_system)}


def test_every_output_has_a_reader():
    assert sorted(unread_outputs() - set(UNREAD)) == []


def test_unread_list_names_only_outputs_without_a_reader():
    # an output that gains a reader, or is deleted, leaves the list
    assert sorted(set(UNREAD) - unread_outputs()) == []


def test_reader_scan_sees_functions_methods_properties_and_fields():
    found = outputs()
    assert found["identcore:verify_local_id"] == ("verify_local_id", False)
    assert found["identcore:MomentMap.norm_a_rows"] == ("norm_a_rows", False)
    assert found["semiparam:SplitDerivative.p"] == ("p", False)
    assert found["identcore:LocalIdReport.failures"] == ("failures", True)
    assert found["fnspace:GridMeasure.uniform"] == (
        "GridMeasure.uniform", False)
    assert "identcore:MomentMap.__post_init__" not in found


def test_reader_scan_reads_loads_and_dotted_strings(tmp_path):
    (tmp_path / "code.py").write_text(
        "obj.attr_loaded\nname_loaded\nname_stored = 1\n"
        "obj.attr_stored = 2\nf(keyword=3)\ngetattr(obj, 'spelled')\n"
        "'pkg.Owner.dotted'\n'two words'\n")
    assert names_read_in([tmp_path]) == {
        "obj", "attr_loaded", "obj.attr_loaded", "name_loaded", "f",
        "getattr", "spelled", "pkg", "Owner", "dotted", "pkg.Owner",
        "Owner.dotted"}


def test_a_demo_or_the_benchmark_keeps_no_name_alive(tmp_path):
    found = {"m:helper": ("helper", False), "m:Report.field": ("field", True)}
    values = {"m:GeneratorConfig(knob)": ("GeneratorConfig", 3, True)}
    code = {"src": "x = 1\n",
            "demos": "helper()\nreport.field\nGeneratorConfig(knob=True)\n",
            "bench": "'m.helper'\nGeneratorConfig(1, 2, 3, 4)\n",
            "tests": "helper()\nGeneratorConfig(knob=True)\n"}
    for top, text in code.items():
        (tmp_path / top).mkdir()
        (tmp_path / top / "code.py").write_text(text)
    assert unread_outputs(found, tmp_path) == set(found)
    assert unset_values(values, calls_in(root=tmp_path)) == set(values)
    # a test reads a field, and library code reads and sets anything
    (tmp_path / "tests" / "code.py").write_text("report.field\n")
    assert unread_outputs(found, tmp_path) == {"m:helper"}
    (tmp_path / "src" / "code.py").write_text(
        "helper()\nGeneratorConfig(knob=True)\n")
    assert unread_outputs(found, tmp_path) == set()
    assert unset_values(values, calls_in(root=tmp_path)) == set()
