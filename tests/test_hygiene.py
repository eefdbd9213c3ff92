import ast
import re
from pathlib import Path

from g2heights.cli import JOB_KEYS

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """`path:line: name` for each name that path imports and never uses."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        imported += [(node.lineno, name) for name in names]
    # an attribute chain such as mp.mpf starts with the Name mp
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in sorted(imported) if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    paths = [p for p in sorted((ROOT / "src" / "g2heights").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    unused = [hit for p in paths for hit in _unused_imports(p)]
    assert unused == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _foreign_privates(path):
    """`path:line: mod._x` for each private name _x of a package module mod
    that path imports from mod, or reads as an attribute of mod imported as
    a module."""
    tree = ast.parse(path.read_text())
    package = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and (n.level == 1 or (n.module or "").split(".")[0] == "g2heights")]
    modules, hits = set(), []
    for n in package:
        mod = (n.module or "").removeprefix("g2heights").lstrip(".")
        if mod:
            hits += [(n.lineno, f"{mod}.{a.name}") for a in n.names if _private(a.name)]
        else:
            modules |= {a.asname or a.name for a in n.names}
    hits += [(n.lineno, f"{n.value.id}.{n.attr}") for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
             and n.value.id in modules and _private(n.attr)]
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in sorted(hits)]


def test_no_module_reads_another_modules_private_name():
    # a private name is its module's own: a format or a step that another
    # module drives by hand is known in two places.  The scan covers names
    # imported from a package module and attributes of a package module;
    # the attributes of a class, such as PeriodMatrix._of, are out of its
    # scope
    paths = sorted((ROOT / "src" / "g2heights").glob("*.py"))
    assert [hit for p in paths for hit in _foreign_privates(p)] == []


def _literal_workprecs(path):
    """`path:line` for each workprec(...) call in path whose precision is a
    literal."""
    tree = ast.parse(path.read_text())
    return [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "workprec"
            and node.args and isinstance(node.args[0], ast.Constant)]


def test_every_precision_derives_from_ctx():
    # an mpmath precision fixed by hand in the package is one that no
    # PrecisionContext sizes; doubles serve where a few bits are enough
    paths = sorted((ROOT / "src" / "g2heights").glob("*.py"))
    assert [hit for p in paths for hit in _literal_workprecs(p)] == []


def _used_names(path):
    """Every identifier that path reads (loads), as a Name or as an
    attribute: an assignment's own target does not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _callers():
    """The package's modules and the files whose calls count as the
    package's callers: the acceptance gate and the benchmark."""
    src = sorted((ROOT / "src" / "g2heights").glob("*.py"))
    return src, src + [ROOT / "tests" / "test_acceptance.py"] + sorted(
        (ROOT / "benchmarks").glob("*.py"))


def test_every_module_function_has_a_caller():
    # a library function that only its unit tests call is dead code; the
    # acceptance gate and the benchmark count as callers.  The same holds
    # for each method of a top-level class, dunders aside.  The scan works
    # on names, so a method passes when any caller reads its name, also as
    # an attribute of another class; a dead method whose name another class
    # shares goes unseen
    src, callers = _callers()
    used = set().union(*map(_used_names, callers))
    tops = [(p, node, node.name) for p in src if p.name != "__init__.py"
            for node in ast.parse(p.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    methods = [(p, m, f"{c.name}.{m.name}") for p, c, _ in tops
               if isinstance(c, ast.ClassDef) for m in c.body
               if isinstance(m, ast.FunctionDef)
               and not (m.name.startswith("__") and m.name.endswith("__"))]
    uncalled = [f"{p.relative_to(ROOT)}:{d.lineno}: {name}"
                for p, d, name in tops + methods if d.name not in used]
    assert uncalled == []


def test_every_module_constant_is_read():
    # a module-level constant that no caller reads is left over from code
    # that is gone, such as a margin or a unit roundoff whose test was
    # removed.  The callers are those of
    # test_every_module_function_has_a_caller
    src, callers = _callers()
    read = set().union(*map(_used_names, callers))
    unread = [f"{p.relative_to(ROOT)}:{node.lineno}: {n.id}" for p in src
              for node in ast.parse(p.read_text()).body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              for n in ast.walk(target) if isinstance(n, ast.Name) and n.id not in read]
    assert unread == []


def _calls(paths):
    """The calls in paths, by the name of the function or attribute called."""
    calls = {}
    for p in paths:
        for n in ast.walk(ast.parse(p.read_text())):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(n.func, "id", getattr(n.func, "attr", None)), []).append(n)
    return calls


def _sets(call, param, i):
    """Whether call passes param by keyword, or by position as its i-th
    argument (i is None for a keyword-only param)."""
    return any(k.arg == param for k in call.keywords) or (i is not None and len(call.args) > i)


# the defaulted parameters that no caller sets, each kept for its reason
_UNSET_DEFAULTS = {
    "theta.ThetaWalk.__init__(level=)": "the unit tests' reference for the root steps",
    "cli.main(argv=)": "the console script calls main() with no argument",
}


def _defaulted_params(src):
    """(report, called, param, i) for each defaulted parameter of the
    functions and methods of src: report names it, as `mod.f(param=)`,
    called is the name it is called by (a class for an __init__), and i
    is its position in a call, self aside (None for a keyword-only one)."""
    out = []
    for p in src:
        # (def, its name in the report, the name it is called by, the
        # leading parameters that a call does not pass)
        defs = []
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node, node.name, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    called = node.name if m.name == "__init__" else m.name
                    if m.name == "__init__" or not m.name.startswith("__"):
                        defs.append((m, f"{node.name}.{m.name}", called, 0 if static else 1))
        for d, name, called, skip in defs:
            a = d.args
            pos = [x.arg for x in a.posonlyargs + a.args]
            defaulted = pos[len(pos) - len(a.defaults):] + [
                x.arg for x, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
            for param in defaulted:
                i = pos.index(param) - skip if param in pos else None
                out.append((f"{p.stem}.{name}({param}=)", called, param, i))
    return out


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # a default that no caller overrides is an option nobody takes.  The
    # callers and the functions are those of
    # test_every_module_function_has_a_caller.  A call sets a parameter by
    # keyword or by position, self aside; an __init__ is called through its
    # class.  The scan works on names, as that test's does
    src, callers = _callers()
    calls = _calls(callers)
    unset = [report for report, called, param, i in _defaulted_params(src)
             if not any(_sets(c, param, i) for c in calls.get(called, []))]
    assert sorted(unset) == sorted(_UNSET_DEFAULTS)


def test_every_defaulted_parameter_has_a_caller_that_leaves_it_out():
    # a default that every call overrides is never taken: the parameter
    # should have none.  The callers are those of
    # test_every_module_function_has_a_caller and the tests, since a
    # default kept for the tests alone is taken there
    src, callers = _callers()
    calls = _calls(callers + sorted((ROOT / "tests").glob("*.py")))
    always = [report for report, called, param, i in _defaulted_params(src)
              if all(_sets(c, param, i) for c in calls.get(called, []))]
    assert always == []


def _is_record(node):
    """Whether the class node is a dataclass or a NamedTuple."""
    return (any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == "dataclass"
                for d in node.decorator_list)
            or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases))


def test_every_field_default_is_both_taken_and_overridden():
    # the field defaults of a dataclass or NamedTuple: as a parameter's,
    # one that no caller overrides is an option nobody takes, and since the
    # package builds its records itself, one that every caller overrides is
    # dead.  So each defaulted field needs a caller that sets it, by keyword
    # or by position, and one that leaves it out.  The callers are those of
    # test_every_module_function_has_a_caller
    src, callers = _callers()
    calls = _calls(callers)
    odd = []
    for p in src:
        for node in ast.parse(p.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and _is_record(node)):
                continue
            fields = [f for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            for i, f in enumerate(fields):
                sets = {_sets(c, f.target.id, i) for c in calls.get(node.name, [])}
                if f.value is not None and sets != {True, False}:
                    odd.append(f"{p.stem}.{node.name}({f.target.id}=)")
    assert odd == []


def test_every_record_field_is_read():
    # a field of a dataclass or NamedTuple that no caller reads as an
    # attribute is carried for nothing, such as a threshold's input left
    # behind by the test that read it.  The callers are those of
    # test_every_module_function_has_a_caller; no record of the package is
    # unpacked or turned into a dict, so an attribute read is the only read
    src, callers = _callers()
    read = {n.attr for p in callers for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{p.stem}.{node.name}.{f.target.id}" for p in src
              for node in ast.parse(p.read_text()).body
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for f in node.body if isinstance(f, ast.AnnAssign)
              and isinstance(f.target, ast.Name) and f.target.id not in read]
    assert unread == []


def test_readme_lists_the_job_keys():
    # each bullet of README's "Job files" opens with the keys it describes,
    # `key`, `key`: ...; they must be exactly the keys parse_job takes
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Job files\n", 1)[1].split("\n## ", 1)[0]
    listed = [key for head in re.findall(r"^- ([^:\n]*):", section, re.M)
              for key in re.findall(r"`(\w+)`", head)]
    assert sorted(listed) == sorted(JOB_KEYS)
