"""Every settable value in the library has a caller that sets it.

A settable value is a parameter with a default, or a dataclass field with a
default, anywhere in ``src/momentid``.  The scan reads every call in
``src/``, ``demos/`` and ``bench/`` with the standard library's ``ast``.  A
value counts as set when some call of a callable with its name passes it by
keyword, reaches it by position, or unpacks ``*`` or ``**`` arguments.
``dataclasses.replace`` sets fields by keyword, and ``functools.partial``
calls the callable it wraps.  Names are matched without their module, so
the scan can over-count callers but never under-counts them.  A value that
no caller sets is a knob that only tests turn; it fails the scan unless
``ALLOWED`` names it with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "momentid"
CALLER_DIRS = ("src", "demos", "bench")


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
    **_allow("models/single_index:diagnose_single_index", ("tol",),
             "boundary probe: test_scalar_ratio_is_positive_and_above_tol "
             "sets it just above the measured ratio"),
    **_allow("cli:main", ("argv",),
             "entry point: None reads the command line, which the console "
             "script and python -m pass; tests hand argv directly"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def settable_values() -> dict[str, tuple[str, int | None, bool]]:
    """key -> (callable name, position in a call or None, whether it is a
    dataclass field) for every settable value of the library."""
    found = {}

    def add(module, callable_, value, pos, field=False):
        found[f"{module}:{callable_}({value})"] = (callable_, pos, field)

    for path in sorted(LIBRARY.rglob("*.py")):
        module = path.relative_to(LIBRARY).with_suffix("").as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                if _is_dataclass(node):
                    for pos, item in enumerate(fields):
                        if item.value is not None:
                            add(module, node.name, item.target.id, pos, True)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        item.method_of = node
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = getattr(node, "method_of", None)
            # a constructor is called by its class's name
            name = owner.name if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            # self or cls is passed implicitly
            offset = int(owner is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list))
            first = len(positional) - len(args.defaults)
            for pos, arg in enumerate(positional[first:], first - offset):
                add(module, name, arg.arg, pos)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    add(module, name, arg.arg, None)
    return found


def _callee(func: ast.expr) -> str | None:
    return getattr(func, "attr", getattr(func, "id", None))


def calls_in(dirs=CALLER_DIRS) -> list[tuple[str, int, set, bool]]:
    """(callable name, positional count, keyword names, unpacks) for every
    call in ``dirs``; ``partial(f, ...)`` counts as a call of f."""
    out = []
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                if name is None:
                    continue
                keywords = {k.arg for k in node.keywords if k.arg}
                unpacks = any(isinstance(a, ast.Starred) for a in args) or (
                    any(k.arg is None for k in node.keywords))
                out.append((name, len(args), keywords, unpacks))
    return out


def unset_values() -> set[str]:
    """Keys of the settable values that no call in ``CALLER_DIRS`` sets."""
    calls = calls_in()
    unset = set()
    for key, (owner, pos, field) in settable_values().items():
        value = key[key.index("(") + 1:-1]

        def sets(call):
            callee, n_pos, keywords, unpacks = call
            if callee == "replace":
                return field and value in keywords
            return callee == owner and (
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
