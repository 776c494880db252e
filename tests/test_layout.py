"""Module layout of src/decayinv, checked on the syntax tree, and what
importing it loads."""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "decayinv"
BENCH = TESTS.parent / "bench"


def private_sibling_imports(path):
    """(line, module, name) of every import of a private name from another
    decayinv module in path, at any depth (imports inside functions too)."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or node.module.split(".")[0] == "decayinv")
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_imports_across_modules():
    found = {path.name: private_sibling_imports(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: hits for name, hits in found.items() if hits}
    assert not found, f"private names imported across modules: {found}"


def ignored_warnings(path):
    """(line, call) of every warnings.simplefilter/filterwarnings call in
    path whose action is "ignore", by attribute or by bare name."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in ("simplefilter", "filterwarnings"):
            continue
        action = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "action"), None)
        if isinstance(action, ast.Constant) and action.value == "ignore":
            hits.append((node.lineno, name))
    return hits


def test_no_silenced_warnings():
    found = {path.name: ignored_warnings(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: hits for name, hits in found.items() if hits}
    assert not found, f"warnings silenced in: {found}"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def imported_public_names():
    """Public names that __init__.py imports from the package modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")}


def test_all_is_exactly_what_init_imports():
    import decayinv
    exported = exported_names()
    assert exported == imported_public_names()
    missing = [name for name in sorted(exported)
               if not hasattr(decayinv, name)]
    assert not missing, f"exported but undefined: {missing}"


def referenced_names(node, strings=False):
    """Names a syntax tree reads: bare names, attributes and imports, and
    with strings the dotted parts of every string constant too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif strings and isinstance(sub, ast.Constant) \
                and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def outside_readers():
    """Names the acceptance criteria read, and those bench/ reads outside
    its own tests, as identifiers or as strings (the tracer names the
    functions it wraps in strings)."""
    names = referenced_names(ast.parse((TESTS / "test_acceptance.py")
                                       .read_text()))
    for path in sorted(BENCH.glob("*.py")):
        if path.name != "test_bench.py":
            names |= referenced_names(ast.parse(path.read_text(), str(path)),
                                      strings=True)
    return names


def unreached_public_definitions():
    """(module, name) of every public top-level function or class of a
    src/decayinv module that no other top-level statement of those modules
    reads, nor bench/ or the acceptance criteria; __init__.py and its
    __all__ reach nothing."""
    statements = [(path.stem, node, referenced_names(node))
                  for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "__init__.py"
                  for node in ast.parse(path.read_text(), str(path)).body]
    outside = outside_readers()
    unreached = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_") or node.name in outside:
            continue
        if not any(node.name in names
                   for _, other, names in statements if other is not node):
            unreached.append((module, node.name))
    return unreached


def test_every_public_definition_is_reached():
    # the package is what its runners, the acceptance criteria and the
    # bench read; exporting a name does not reach it
    unreached = unreached_public_definitions()
    assert not unreached, \
        f"public but read by no module, gate or bench: {unreached}"


def sibling_imports(path):
    """Names of the decayinv modules that path imports."""
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 0 and node.module.startswith("decayinv."):
                found.add(node.module.split(".")[1])
    return found


def test_norms_and_quotient_are_independent():
    assert "quotient" not in sibling_imports(PACKAGE / "norms.py")
    assert "norms" not in sibling_imports(PACKAGE / "quotient.py")


def test_weights_is_the_bottom_layer():
    # the series primitives live in weights, which every numeric module
    # imports, so weights itself may import only the error types
    assert sibling_imports(PACKAGE / "weights.py") <= {"errors"}


def cache_references(path):
    """(line, decorated) of every read or import of functools.cache or
    lru_cache in path, by attribute or by bare name; decorated names the
    function or class whose decorator holds it, and is None elsewhere."""
    tree = ast.parse(path.read_text(), str(path))
    decorated = {sub: node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                 for dec in node.decorator_list for sub in ast.walk(dec)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if {"cache", "lru_cache"} & set(names):
            hits.append((node.lineno, decorated.get(node)))
    return hits


def test_no_module_level_caches():
    # data shared between calls is passed, not stored; the one cache holds
    # the Gauss-Legendre rules, a pure function of the node count
    found = [(path.stem, line, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in cache_references(path)]
    assert [hit for hit in found if hit[::2] != ("besov", "_legendre")] \
        == [], found


def scipy_imports(path):
    """(line, module) of every import of scipy or a scipy submodule in
    path, at any depth (imports inside functions too)."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        hits += [(node.lineno, module) for module in modules
                 if module.split(".")[0] == "scipy"]
    return hits


def test_import_loads_no_scipy():
    # the package runs on numpy alone: no module imports scipy, even
    # lazily, and importing it loads neither scipy (whose integrate alone
    # pulls in optimize and linalg, about a quarter of a second) nor
    # numpy.testing or numpy.f2py, which scipy's array-API layer brings
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if (hits := scipy_imports(path))}
    assert not found, f"scipy imported in: {found}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, decayinv, decayinv.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith(('scipy.', 'numpy.testing', 'numpy.f2py'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_readme_quick_start_runs():
    # the python block under "## Library quick start" runs as printed on
    # src alone, and its bound holds
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         cwd=PACKAGE.parents[1], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].endswith("True"), out.stdout


def decorator_names(node):
    """The last dotted name of each decorator of a function, called or
    not: both given(...) and hypothesis.given(...) read "given"."""
    names = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        names.add(dec.attr if isinstance(dec, ast.Attribute)
                  else getattr(dec, "id", None))
    return names


def unseeded_properties(path):
    """(line, name) of every function in path that hypothesis's given
    decorates without a seed decorator."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "given" in decorator_names(node)
            and "seed" not in decorator_names(node)]


def test_every_property_is_seeded(tmp_path):
    # a seeded property draws the same examples on every run
    probe = tmp_path / "probe.py"
    probe.write_text("@hypothesis.given(st.none())\ndef test_a(x): pass\n\n"
                     "@seed(1)\n@given(st.none())\ndef test_b(x): pass\n")
    assert unseeded_properties(probe) == [(2, "test_a")]
    tests = pathlib.Path(__file__).resolve().parent
    found = {path.name: hits for path in sorted(tests.glob("*.py"))
             if (hits := unseeded_properties(path))}
    assert not found, f"hypothesis properties without @seed: {found}"


FAILING_PROPERTY = """\
from hypothesis import given, seed, settings
from hypothesis import strategies as st


@seed(0)
@settings(database=None, max_examples=5)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_after_the_property():
    pass
"""


def test_a_failing_property_fails_only_itself(tmp_path):
    # when a property fails, hypothesis imports libcst to write a patch for
    # it; under the repo's warning filters that import must not turn into
    # an internal error that ends the run before the tests after it
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
         "-c", str(PACKAGE.parents[1] / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "test_after_the_property PASSED" in out.stdout, out.stdout


def symbol_type_tests(path):
    """(holder, line) of every isinstance call in path whose class
    argument names ToeplitzSymbol; holder is the top-level function or
    class that holds it, None at module level."""
    hits = []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "isinstance" \
                    and len(node.args) == 2 \
                    and "ToeplitzSymbol" in referenced_names(node.args[1]):
                hits.append((getattr(top, "name", None), node.lineno))
    return hits


def test_the_type_picks_the_route_in_one_seam():
    # a ToeplitzSymbol is read exactly and a LatticeMatrix from its window;
    # outside lattice (whose require_section refuses a symbol where a
    # window is needed) only the decay profile and the condition data
    # branch on the type
    found = {(path.stem, holder)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "lattice"
             for holder, _ in symbol_type_tests(path)}
    assert found == {("norms", "decay_profile"), ("bounds", "condition_data")}
    assert symbol_type_tests(PACKAGE / "lattice.py")


# bench/workloads.py passes method="window" to these two, so they keep the
# keyword until the benchmark stops passing it
METHOD_KEPT = {"baskakov_bound_Cr", "baskakov_bound_Jr"}


def test_no_exported_function_takes_a_method():
    # a symbol is read exactly and a section from its window; no route is
    # chosen by a separate argument
    import decayinv
    found = sorted(name for name in exported_names()
                   if inspect.isfunction(getattr(decayinv, name))
                   and "method" in inspect.signature(
                       getattr(decayinv, name)).parameters)
    assert found == sorted(METHOD_KEPT)


def exported_parameters():
    """(name, parameter names) of every exported function, and of the
    constructor and every public method of every exported class."""
    import decayinv
    for name in sorted(exported_names()):
        obj = getattr(decayinv, name)
        if inspect.isfunction(obj):
            yield name, set(inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            yield name, set(inspect.signature(obj.__init__).parameters)
            for attr in vars(obj):
                if not attr.startswith("_") \
                        and inspect.isroutine(getattr(obj, attr)):
                    yield (f"{name}.{attr}", set(inspect.signature(
                        getattr(obj, attr)).parameters))


def test_no_exported_name_takes_a_kind_or_a_mode():
    # a weight is polynomial, a smoothness sequence is Gevrey, the
    # Dales-Davie bound is its closed form and the identification check
    # measures p = 1: one value in use is a constant, not an argument
    import dataclasses
    import decayinv
    found = sorted(name for name, params in exported_parameters()
                   if params & {"kind", "mode"})
    assert found == []
    for cls in (decayinv.Weight, decayinv.SmoothnessSequence):
        assert [f.name for f in dataclasses.fields(cls)] == ["r"]
    assert "p" not in inspect.signature(
        decayinv.identification_rate_check).parameters


def tolerance_keys():
    """The keyword names of every _tolerances call in experiments.py: the
    tolerance keys, each with its default."""
    tree = ast.parse((PACKAGE / "experiments.py").read_text())
    return {kw.arg for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_tolerances"
            for kw in node.keywords}


def tolerances_reads(path):
    """(line, function) of every read of an attribute tolerances of an
    object other than self in path; function is the innermost function
    that holds it."""
    tree = ast.parse(path.read_text(), str(path))
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for sub in ast.walk(node):
                owner[sub] = node.name   # inner functions are walked later
    return [(node.lineno, owner.get(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "tolerances"
            and getattr(node.value, "id", None) != "self"]


def test_each_setting_has_one_owner():
    # every tolerance key and its default are written once, in the runner
    # that reads it, and cfg.tolerances is read only by the resolver; the
    # CLI names no key and reads no tolerances
    keys = tolerance_keys()
    assert {"slope_tol", "ratio_low", "ratio_high", "max_rel_err",
            "t_values"} <= keys
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    literals = {node.value for node in ast.walk(cli)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    assert not literals & keys
    assert tolerances_reads(PACKAGE / "cli.py") == []
    found = {path.name: [hit for hit in tolerances_reads(path)
                         if hit[1] != "_tolerances"]
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert {fn for _, fn in tolerances_reads(PACKAGE / "experiments.py")} \
        == {"_tolerances"}


def readers(path, names):
    """(name, holder) of every read of one of names in path outside its
    import statements: holder is the top-level function or class whose
    body holds the read, None at module level."""
    hits = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        holder = getattr(top, "name", None)
        for sub in ast.walk(top):
            name = sub.id if isinstance(sub, ast.Name) else \
                getattr(sub, "attr", None)
            if name in names:
                hits.add((name, holder))
    return hits


# besov computes no norm of its own: an operator norm of a difference is
# modulus_profile's, the hypersingular multiplier's is its own, and the
# mass the profile's cut leaves out is the tail sum of norms.banded_error;
# it takes no tail's max, sums no series, and every other norm comes from
# norms
BESOV_NORM_READERS = {
    "operator_norm_l2": {"modulus_profile", "hypersingular_seminorm"},
    "difference_power": {"modulus_profile", "hypersingular_seminorm"},
    "banded_error": {"hypersingular_seminorm"},
    "poly_geometric_max": set(),
    "log_concave_sum": set(),
    "log_weight_tail": set(),
    "log_poly_geometric": set(),
    "polylog_tail_logs": set(),
}


def test_besov_computes_no_norm_of_its_own():
    found = readers(PACKAGE / "besov.py", set(BESOV_NORM_READERS))
    stray = sorted((name, str(holder)) for name, holder in found
                   if holder not in BESOV_NORM_READERS[name])
    assert stray == [], f"norms computed outside their owner: {stray}"
    assert ("operator_norm_l2", "modulus_profile") in found
    assert ("banded_error", "hypersingular_seminorm") in found
    # and besov keeps no tail-mass helper of its own
    tree = ast.parse((PACKAGE / "besov.py").read_text())
    assert [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.endswith("_mass")] == []


def constants(path, value):
    """Line of every literal equal to value, of value's type, in path."""
    return [node.lineno for node in ast.walk(
        ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and type(node.value) is type(value)
        and node.value == value]


def float_max_reads(path):
    """Line of every np.finfo(...).max in path."""
    return [node.lineno for node in ast.walk(
        ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "max"
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", None) == "finfo"]


def test_each_numerical_rule_has_one_owner():
    # a series is summed, and a log judged past float range, in weights
    # alone: the others call log_weight_tail and exp_or_inf
    modules = sorted(path for path in PACKAGE.glob("*.py")
                     if path.name != "weights.py")
    summed = {path.name: readers(path, {"log_concave_sum"})
              for path in modules}
    assert {name: hits for name, hits in summed.items() if hits} == {}
    near_maxlog = {path.name: [node.lineno for node in ast.walk(
        ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool) and 700 <= node.value <= 710]
        for path in modules}
    assert {name: lines for name, lines in near_maxlog.items()
            if lines} == {}
    # the float range is weights.LOG_MAX, and no other module reads it off
    # np.finfo
    maxima = {path.name: float_max_reads(path) for path in modules}
    assert {name: lines for name, lines in maxima.items() if lines} == {}
    assert len(float_max_reads(PACKAGE / "weights.py")) == 1


def test_each_bound_rule_has_one_owner():
    # the condition test kappa >= 1 - 1e-9 is bounds._check_condition's,
    # and the inputs of a BoundReport are written by bounds._report alone
    bounds = PACKAGE / "bounds.py"
    assert len(constants(bounds, 1e-9)) == 1
    assert len(constants(bounds, "norm_A_alg")) == 1


# the smoothness functions: each measures in the c0 or the operator
# ambient, on the whole of its input
SMOOTHNESS = {
    "besov": ["modulus_profile", "besov_seminorm", "hypersingular_seminorm",
              "identification_rate_check"],
    "norms": ["dk_norm_log", "dk_norm_logs", "dales_davie_norm",
              "ambient_norm"],
}


def test_smoothness_functions_take_no_margin_and_two_ambients():
    # an inner block is read by passing its section, and the ambient is
    # "c0" or "operator", nothing else
    import decayinv
    from decayinv.errors import ParameterError
    from decayinv.norms import normalize_ambient
    found = sorted(name for module, names in SMOOTHNESS.items()
                   for name in names
                   if "margin" in inspect.signature(getattr(
                       getattr(decayinv, module), name)).parameters)
    assert found == []
    assert [normalize_ambient(a) for a in ("c0", "operator")] == \
        ["c0", "operator"]
    for ambient in (("jaffard", 1.0), "jaffard", None):
        with pytest.raises(ParameterError, match="unknown ambient"):
            normalize_ambient(ambient)
