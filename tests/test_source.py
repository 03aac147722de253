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


UNCHECKED_SERIES_CONSTRUCTORS = {"_made"}


def test_unchecked_series_constructor_stays_in_series_module():
    # Series._made skips exponent validation and the reduction to lowest
    # terms; only the series kernels, whose outputs are admissible by
    # construction, may call it.  Builders elsewhere go through
    # Series(ring, terms) or Series.from_numerators, which check.
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


# A Series' form: its numerators, their denominator and their cyclotomic
# order.  Other modules read a series through `terms`, the kernels and the
# constructors, so the numerator format stays the series module's business.
SERIES_FORM = {"_order", "_denom", "_numer"}


def test_only_series_reads_the_series_form():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "series.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr in SERIES_FORM)
             or (isinstance(node, ast.Constant) and node.value in SERIES_FORM)]
    assert found == []
    series = next(path for path in SOURCES if path.name == "series.py")
    assert all(f'"{name}"' in series.read_text() for name in SERIES_FORM)


# The keys of a Series' form: each term's t-power above its exponent tuple
# packed into one int, the degree above one field per exponent.  SeriesRing
# packs and unpacks them and owns their layout (field width, degree shift,
# field offsets, the t-power's offset and the monomial mask, and the maps
# between the flat keys and {monomial: {t-power: numerator}}); other modules
# read a series through exponent tuples, so the packing stays the series
# module's business.
SERIES_KEYS = {"_pack", "_unpack", "_exponent", "_by_degree", "_flat", "_grouped",
               "_width", "_shift", "_offsets", "_toff", "_mono"}


def test_only_series_reads_the_series_keys():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "series.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr in SERIES_KEYS)
             or (isinstance(node, ast.Name) and node.id in SERIES_KEYS)
             or (isinstance(node, ast.Constant) and node.value in SERIES_KEYS)]
    assert found == []
    series = next(path for path in SOURCES if path.name == "series.py")
    helpers = {"_pack", "_unpack", "_exponent", "_by_degree", "_flat", "_grouped"}
    assert all(f'"{name}"' in series.read_text() for name in SERIES_KEYS - helpers)
    assert {f"SeriesRing.{name}" for name in helpers} <= _definitions(series).keys()


# A TPoly's form: its cyclotomic order, denominator and the one t-slot it
# keeps at key 0 of the numerator form below.  A Series keeps the same form
# slot by slot, so the series module reads a TPoly's slot too, through
# exact._t_slot; other modules read a TPoly through `coeffs`, the arithmetic
# and the constructors.
TPOLY_FORM = {"_t_slot"}


def test_only_exact_and_series_read_the_tpoly_form():
    from qharmonic.exact import TPoly

    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name not in ("exact.py", "series.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr in TPOLY_FORM)
             or (isinstance(node, ast.Name) and node.id in TPOLY_FORM)
             or (isinstance(node, ast.alias) and node.name in TPOLY_FORM)
             or (isinstance(node, ast.Constant) and node.value in TPOLY_FORM)]
    assert found == []
    exact = next(path for path in SOURCES if path.name == "exact.py")
    assert TPOLY_FORM <= _definitions(exact).keys()
    assert TPoly.__slots__ == ("coeffs",)
    assert [path.name for path in SOURCES if "_t_form" in path.read_text()] == []


# The numerator form of a polynomial: its cyclotomic order, denominator and
# one numerator slot per key.  TPoly (its one t-slot at key 0), ZPoly (TPoly
# slots by z-power) and series.PhiPoly (Series slots by z-power, plus its
# ring) keep it in the one attribute of exact.SparsePoly.  Other modules read
# a z-form through `coeffs`, the arithmetic, the constructors and the kernel
# methods (L_poly's numerators, x_sum's `sum_of`, theta_q's `_scale_slots`),
# so the format stays the exact module's business.  The name differs from
# the Series form's, so that the guard above still tells the two apart.
ZPOLY_FORM = {"_form"}


def test_only_exact_reads_the_zpoly_form():
    from qharmonic.exact import SparsePoly, ZForm, ZPoly
    from qharmonic.series import PhiPoly

    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "exact.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr in ZPOLY_FORM)
             or (isinstance(node, ast.Constant) and node.value in ZPOLY_FORM)]
    assert found == []
    exact = next(path for path in SOURCES if path.name == "exact.py")
    assert all(f'"{name}"' in exact.read_text() for name in ZPOLY_FORM)
    assert set(SparsePoly.__slots__) == ZPOLY_FORM
    assert (ZForm.__slots__, ZPoly.__slots__, PhiPoly.__slots__) == ((), (), ("ring",))
    assert [path.name for path in SOURCES if "_z_form" in path.read_text()] == []


# The reduction table: per order, phi(order) and the rows x^d mod Phi_order
# that _reduce adds along and _zeta_exponent reads the powers of zeta off.
# Other modules reduce through _reduce, so the row layout stays the exact
# module's business.  The caches the table is built from keep their names
# and stay unbounded, one key per order: the cache count pinned below and
# perfbench's cache metrics name them.
REDUCTION_TABLE = {"_REDUCTION_TERMS"}
ORDER_CACHES = ("exact._divisors", "exact.cyclotomic_polynomial", "exact.euler_phi")


def test_only_exact_reads_the_reduction_table():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "exact.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Name) and node.id in REDUCTION_TABLE)
             or (isinstance(node, ast.Attribute) and node.attr in REDUCTION_TABLE)
             or (isinstance(node, ast.alias) and node.name in REDUCTION_TABLE)]
    assert found == []
    exact = next(path for path in SOURCES if path.name == "exact.py")
    assert all(name in exact.read_text() for name in REDUCTION_TABLE)
    caches = _package_caches()
    assert [caches.get(name, "missing") for name in ORDER_CACHES] == [None] * 3


# The integer kernels of Q(zeta_n): the product, the Galois-norm inverse
# (_numerator_inverse) and zeta^e, the CycloNumber product and inverse that
# wrap them, and the numerator-list closed forms at zeta_n (sums of
# zeta-powers, which rotate by zeta^e and form Galois conjugates, and
# 1/(1 - zeta^e)) work on int numerators over one denominator, through the
# module's product and reduction helpers, and so do the numerator views that
# the nested sums of qseries run on; Fractions appear only where a value is
# built from or read out as rationals.
INTEGER_KERNELS = ("CycloNumber.__mul__", "CycloNumber.inverse", "_numerator_inverse",
                   "CycloNumber.zeta_power", "_zeta_sum", "_conjugate", "_zeta_exponent",
                   "_one_minus_zeta_power_inverse", "_product", "_reduce",
                   "_slot_add", "NumeratorRing.__init__", "NumeratorRing.column",
                   "NumeratorRing.inverse", "NumeratorRing.over")


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


# The TPoly, z-form (ZPoly, PhiPoly) and Series kernels and the nested sums
# of qseries (the summand table, the literal sums and the prefix-sum
# recursion) multiply and add int numerators (ints, or Z[zeta_N] coefficient
# tuples) over one denominator; a Fraction or a CycloNumber is built only in
# the coeffs view of a TPoly (TPoly.__getattr__), when it is first read, and
# in NumeratorRing.scalar, the one value a literal sum returns.  The kernels,
# the TPoly, z-form and Series methods that dispatch to them (a z-form's
# coeffs view builds TPolys or Series, not scalars), the constructors, the one scan of scalars
# into numerators, and the helpers that put operands at one order, scale a
# slot or reduce a result build none, so Fraction normalisation cannot creep
# back into a loop.
RATIONAL_KERNELS = {"series.py": ("Series.__mul__", "Series.__truediv__", "Series._sum",
                                  "Series.__neg__", "Series.affine_t", "Series.__init__",
                                  "Series._pair", "Series._made", "Series.__getattr__",
                                  "Series.negate_vars", "Series.coefficient_of",
                                  "Series.from_numerators", "Series.substitute",
                                  "Series.to_json", "SeriesRing._pack", "SeriesRing._unpack",
                                  "SeriesRing._exponent", "SeriesRing._flat",
                                  "SeriesRing._grouped", "SeriesRing._by_degree",
                                  "Series.weighted_sum", "_products", "_reduced_flat",
                                  "_lowest", "PhiPoly._form_of", "PhiPoly._product",
                                  "PhiPoly._coefficient"),
                    "exact.py": ("TPoly.__init__", "TPoly._from_numerators", "TPoly.__add__",
                                 "TPoly.__sub__", "TPoly.__mul__", "TPoly.is_zero",
                                 "TPoly.degree", "TPoly.rationalized", "TPoly.to_json",
                                 "SparsePoly._from_form", "SparsePoly._const",
                                 "SparsePoly._sum", "SparsePoly.__neg__",
                                 "SparsePoly.__mul__", "SparsePoly.__eq__", "_t_slot",
                                 "_numerators", "_sum_form", "_times_form", "_reduced",
                                 "_settled", "_reduced_slot", "_common", "_scaled", "_lifted",
                                 "_paired", "_joint_order", "_add_tuples_into",
                                 "_convolve_into", "_add_convolution", "_galois_cofactor",
                                 "_render_over",
                                 "_render_numerator", "scalar_to_json", "_joint_form", "_merge_into",
                                 "_order_settled", "ZForm.__init__",
                                 "ZPoly._from_numerators", "ZPoly.one", "ZPoly.sum_of",
                                 "ZForm.coeffs", "ZForm.first_mismatch",
                                 "ZForm.shift", "ZForm.eval_z_one", "ZForm._scale_slots",
                                 "ZPoly.to_json"),
                    "genfun.py": ("_change_of_variables", "u_poly", "p_poly", "eval_p"),
                    "qseries.py": ("_level_step", "_layer_step", "_levels", "_factor",
                                   "_q_integer_units", "_literal_sum")}

SCALAR_BUILDERS = {"Fraction", "CycloNumber", "_make"}


def _builds_scalar(node) -> list[int]:
    """The lines of the Fraction or CycloNumber calls in a node."""
    return [sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and ((isinstance(sub.func, ast.Name) and sub.func.id in SCALAR_BUILDERS)
                 or (isinstance(sub.func, ast.Attribute) and sub.func.attr in SCALAR_BUILDERS))]


def test_rational_series_kernels_build_fractions_in_one_helper():
    by_name = {path.name: path for path in SOURCES}
    found = []
    for filename, kernels in RATIONAL_KERNELS.items():
        defs = _definitions(by_name[filename])
        assert set(kernels) <= defs.keys()
        found += [f"{filename}:{name}:{line}" for name in kernels
                  for line in _builds_scalar(defs[name])]
    assert found == []
    exact = _definitions(by_name["exact.py"])
    assert "_over" not in exact and "_numerator_form" not in exact
    # the one place a TPoly builds its coefficients: both kinds
    view = exact["TPoly.__getattr__"]
    assert {ast.unparse(sub.func) for sub in ast.walk(view) if isinstance(sub, ast.Call)} \
        >= {"Fraction", "_make"}
    # the one place a Series turns its numerators into TPolys
    builds_terms = _definitions(by_name["series.py"])["Series.__getattr__"]
    assert any(isinstance(sub, ast.Attribute) and sub.attr == "_from_numerators"
               for sub in ast.walk(builds_terms))


# A Series at q = zeta_N holds Z[zeta_N] numerators and never a CycloNumber:
# no code of the series module names the class, builds one (exact._make) or
# inverts a scalar (exact._numerator_inverse, the inverse CycloNumber.inverse
# wraps), and no code but the terms reader makes TPolys from numerators,
# which build their coefficients only when their own coeffs view is read.  A
# quotient turns its divisor's constant term into an int through
# exact._galois_cofactor, the cofactor that the shared inverse divides by.
CYCLO_VALUES = {"CycloNumber", "_make", "_numerator_inverse", "inverse"}


def test_series_module_builds_no_scalar_but_through_over():
    series = next(path for path in SOURCES if path.name == "series.py")
    tree = ast.parse(series.read_text(), str(series))
    found = [f"series.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in CYCLO_VALUES)
             or (isinstance(node, ast.Attribute) and node.attr in CYCLO_VALUES)
             or (isinstance(node, ast.alias) and node.name in CYCLO_VALUES)]
    assert found == []
    assert _builds_scalar(tree) == []
    makers = [name for name, node in _definitions(series).items()
              if any(isinstance(sub, ast.Attribute) and sub.attr in ("_from_numerators", "_from_form")
                     for sub in ast.walk(node))]
    assert makers == ["Series.__getattr__"]
    exact = _definitions(next(path for path in SOURCES if path.name == "exact.py"))
    for node, helper in ((exact["CycloNumber.inverse"], "_numerator_inverse"),
                         (exact["NumeratorRing.inverse"], "_numerator_inverse"),
                         (exact["_numerator_inverse"], "_galois_cofactor"),
                         (_definitions(series)["Series.__truediv__"], "_galois_cofactor")):
        assert any(isinstance(sub, ast.Name) and sub.id == helper for sub in ast.walk(node))


# CycloNumber is a value, not a field API: the package runs Q(zeta_n)
# arithmetic on numerator lists, so the class keeps only the product of one
# order (one method under both names) and the inverse, thin wrappers over the
# kernels, which the benchmark still times.  SeriesParams recognises a root
# zeta_N^b once by index arithmetic, with no power of q.
ARITH_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
                 "__rpow__", "__neg__", "__pos__", "__abs__"}


def test_cyclo_number_keeps_only_the_product_and_the_inverse():
    from qharmonic.exact import CycloNumber

    kept = {name for name in vars(CycloNumber) if name in ARITH_DUNDERS}
    assert kept == {"__mul__", "__rmul__"}
    assert CycloNumber.__rmul__ is CycloNumber.__mul__
    assert callable(CycloNumber.inverse)
    assert not hasattr(CycloNumber, "_coerce") and not hasattr(CycloNumber, "_combine")
    qseries = _definitions(next(path for path in SOURCES if path.name == "qseries.py"))
    init = qseries["SeriesParams.__init__"]
    assert [ast.unparse(sub) for sub in ast.walk(init)
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Mult, ast.Pow))] == []


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


# The two qseries caches that step from an entry one below: _factor builds
# part k on part k - 1 and _levels an index on its tail.  Only their loop
# helpers, which ask for the entries below smallest first, and the caches
# themselves may call them, so no caller recurses once per part or level.
STEPPED_CACHES = {"_factor": {"_factor", "_part"}, "_levels": {"_levels", "_tail_levels"}}


def test_stepped_caches_are_called_through_their_loops():
    found = {}
    for path in SOURCES:
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in STEPPED_CACHES):
                    found.setdefault(node.func.id, set()).add(getattr(top, "name", None))
    assert found == STEPPED_CACHES


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
            if uses.get(node.name, 0) == own and node.name not in qharmonic.__all__:
                unused.append(f"{stem}.{node.name}")
    assert unused == []
