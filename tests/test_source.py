import ast
import importlib
import inspect
from pathlib import Path

import qharmonic

SOURCES = sorted(Path(qharmonic.__file__).parent.glob("*.py"))


def test_package_has_no_bare_asserts():
    # `python -O` strips assert statements, so no invariant may rest on one.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


UNCHECKED_SERIES_CONSTRUCTORS = {"_trusted", "_from_ints"}


def test_unchecked_series_constructor_stays_in_series_module():
    # Series._trusted and Series._from_ints skip exponent validation (and
    # _from_ints the reduction to lowest terms); only the series kernels,
    # whose outputs are admissible by construction, may call them.  Builders
    # elsewhere go through Series.from_numerators, which checks.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "series.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr in UNCHECKED_SERIES_CONSTRUCTORS)
             or (isinstance(node, ast.Name) and node.id in UNCHECKED_SERIES_CONSTRUCTORS)]
    assert found == []
    series = next(path for path in SOURCES if path.name == "series.py")
    assert all(name in series.read_text() for name in UNCHECKED_SERIES_CONSTRUCTORS)


# CycloNumber's storage: integer numerators, one denominator, memoised hash.
# Other modules go through `coeffs`, `as_rational` and the arithmetic, so the
# normal form (denominator coprime to the numerators' content) stays the one
# module's business.
CYCLO_STORAGE = {"_num", "_den", "_hash"}


def test_only_exact_reads_cyclo_storage():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "exact.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr in CYCLO_STORAGE)
             or (isinstance(node, ast.Constant) and node.value in CYCLO_STORAGE)]
    assert found == []
    exact = next(path for path in SOURCES if path.name == "exact.py")
    assert all(f'"{name}"' in exact.read_text() for name in CYCLO_STORAGE)


# CycloNumber's integer kernels: multiply, add/subtract, inverse, the
# rotation by zeta^e and the closed forms at zeta_n (zeta^e, 1/(1 - zeta^e))
# work on int numerators over one denominator, through the module's product
# and reduction helpers, and so do the numerator views that the prefix-sum
# recursion of qseries runs on; Fractions appear only where a value is built
# from or read out as rationals.
INTEGER_KERNELS = ("CycloNumber.__mul__", "CycloNumber._combine", "CycloNumber.inverse",
                   "CycloNumber.times_zeta_power", "CycloNumber.zeta_power",
                   "CycloNumber.one_minus_zeta_power_inverse", "_product", "_reduce",
                   "_slot_add", "NumeratorRing.__init__", "NumeratorRing.column")


def _definitions(path: Path) -> dict:
    """Module-level functions and class methods of one source file, by
    (qualified) name."""
    tree = ast.parse(path.read_text(), str(path))
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update({f"{node.name}.{sub.name}": sub for sub in node.body
                         if isinstance(sub, ast.FunctionDef)})
    return defs


def test_cyclo_kernels_do_no_fraction_arithmetic():
    exact = next(path for path in SOURCES if path.name == "exact.py")
    defs = _definitions(exact)
    assert set(INTEGER_KERNELS) <= defs.keys()
    found = [f"{name}:{sub.lineno}" for name in INTEGER_KERNELS
             for sub in ast.walk(defs[name])
             if (isinstance(sub, ast.Name) and sub.id == "Fraction")
             or (isinstance(sub, ast.Attribute) and sub.attr == "Fraction")]
    assert found == []


# The rational Series kernels and the prefix-sum recursion of qseries multiply
# and add int numerators over one denominator; a Fraction is built only in
# exact._over, which finishes each output slot, and a rational Series builds
# its Fraction coefficients there only when its `terms` are first read.  The
# kernels, the Series methods that dispatch to them, and the helpers that
# scale an operand to ints or reduce a result build none, so Fraction
# normalisation cannot creep back into a loop.
RATIONAL_KERNELS = {"series.py": ("Series.__mul__", "Series.__truediv__", "Series._sum",
                                  "Series.__neg__", "Series.affine_t", "Series._ints",
                                  "Series.negate_vars", "Series.coefficient_of",
                                  "Series.from_numerators", "Series.substitute",
                                  "_int_sum", "_int_times", "_term_products", "_int_quotient",
                                  "_reduced", "_nonzero", "_common"),
                    "exact.py": ("_denominator_lcm", "_numerators", "_affine_items"),
                    "genfun.py": ("_change_of_variables",),
                    "qseries.py": ("_level_step", "_layer_step", "_levels")}


def _builds_fraction(node) -> list[int]:
    return [sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and ((isinstance(sub.func, ast.Name) and sub.func.id == "Fraction")
                 or (isinstance(sub.func, ast.Attribute) and sub.func.attr == "Fraction"))]


def test_rational_series_kernels_build_fractions_in_one_helper():
    by_name = {path.name: path for path in SOURCES}
    found = []
    for filename, kernels in RATIONAL_KERNELS.items():
        defs = _definitions(by_name[filename])
        assert set(kernels) <= defs.keys()
        found += [f"{filename}:{name}:{line}" for name in kernels
                  for line in _builds_fraction(defs[name])]
    assert found == []
    over = _definitions(by_name["exact.py"])["_over"]
    assert _builds_fraction(over)
    # the one place a Series in integer form turns into TPolys
    builds_terms = _definitions(by_name["series.py"])["Series.__getattr__"]
    assert any(isinstance(sub, ast.Name) and sub.id == "_over"
               for sub in ast.walk(builds_terms))


# The package docstring promises that everything outside qseries.z_t_float
# and the xi-check subcommand is exact: complex numbers (the cmath module,
# the complex type, imaginary literals) stay inside those two.
FLOAT_NAMES = {"cmath", "complex"}


def test_complex_arithmetic_stays_quarantined():
    found = []
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if path.name == "qseries.py" and getattr(top, "name", None) == "z_t_float":
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if (isinstance(node, ast.Name) and node.id in FLOAT_NAMES)
                      or (isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES)
                      or (isinstance(node, ast.alias) and node.name in FLOAT_NAMES)
                      or (isinstance(node, ast.Constant) and isinstance(node.value, complex))]
    assert found == []
    qseries = next(path for path in SOURCES if path.name == "qseries.py")
    assert "def z_t_float" in qseries.read_text()


def test_every_exported_name_resolves():
    missing = [name for name in qharmonic.__all__ if not hasattr(qharmonic, name)]
    assert missing == []


def _package_caches() -> dict:
    """Every lru_cache defined in the package, by module and qualified name,
    found in module and class namespaces."""
    found = {}
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"qharmonic.{path.stem}")
        spaces = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                if inspect.isclass(c) and c.__module__ == mod.__name__]
        for space in spaces:
            for obj in space.values():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                    found[f"{path.stem}.{obj.__qualname__}"] = obj.cache_info().maxsize
    return found


def test_qseries_caches_are_bounded():
    # qseries caches are keyed by SeriesParams, so an unbounded one would grow
    # with every base point a long run touches.
    caches = _package_caches()
    assert len(caches) == 21
    qseries = {name: size for name, size in caches.items() if name.startswith("qseries.")}
    assert "qseries._levels" in qseries and "qseries._factor" in qseries
    assert [name for name, size in qseries.items() if size is None] == []
    assert sum(size is None for size in caches.values()) == 7


# The acceptance gate imports series_irrational_term to check that Psi has
# rational coefficients at every root, so it stays in the package although
# nothing inside the package calls it.
REFERENCED_OUTSIDE = {"series_irrational_term"}


def test_every_definition_is_used_or_exported():
    # a module-level function or class that nothing in the package refers to
    # and that is not exported is dead code (or a test's own reference)
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}

    def names(node) -> list[str]:
        return [sub.id if isinstance(sub, ast.Name)
                else sub.attr if isinstance(sub, ast.Attribute)
                else sub.name for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))]

    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in names(tree):
            uses[name] = uses.get(name, 0) + 1
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # a reference inside its own body (recursion) does not count
            own = names(node).count(node.name)
            if uses.get(node.name, 0) == own and node.name not in qharmonic.__all__ \
                    and node.name not in REFERENCED_OUTSIDE:
                unused.append(f"{stem}.{node.name}")
    assert unused == []
