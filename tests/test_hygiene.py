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
    """Every identifier that path reads, as a Name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, (ast.Name, ast.Attribute))}


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


# the defaulted parameters that no caller sets, each kept for its reason
_UNSET_DEFAULTS = {
    "theta._walk_plan(level=)": "the unit tests' reference for the root steps",
    "cli.main(argv=)": "the console script calls main() with no argument",
}


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # a default that no caller overrides is an option nobody takes.  The
    # callers and the functions are those of
    # test_every_module_function_has_a_caller.  A call sets a parameter by
    # keyword or by position, self aside; an __init__ is called through its
    # class.  The scan works on names, as that test's does
    src, callers = _callers()
    calls = {}
    for p in callers:
        for n in ast.walk(ast.parse(p.read_text())):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(n.func, "id", getattr(n.func, "attr", None)), []).append(n)
    # (path, def, its name in the report, the name it is called by, the
    # leading parameters that a call does not pass)
    defs = []
    for p in src:
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((p, node, node.name, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    called = node.name if m.name == "__init__" else m.name
                    if m.name == "__init__" or not m.name.startswith("__"):
                        defs.append((p, m, f"{node.name}.{m.name}", called, 0 if static else 1))
    unset = []
    for p, d, name, called, skip in defs:
        a = d.args
        pos = [x.arg for x in a.posonlyargs + a.args]
        defaulted = pos[len(pos) - len(a.defaults):] + [
            x.arg for x, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
        for param in defaulted:
            i = pos.index(param) - skip if param in pos else None
            if not any(any(k.arg == param for k in c.keywords)
                       or (i is not None and len(c.args) > i) for c in calls.get(called, [])):
                unset.append(f"{p.stem}.{name}({param}=)")
    assert sorted(unset) == sorted(_UNSET_DEFAULTS)


def test_readme_lists_the_job_keys():
    # each bullet of README's "Job files" opens with the keys it describes,
    # `key`, `key`: ...; they must be exactly the keys parse_job takes
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Job files\n", 1)[1].split("\n## ", 1)[0]
    listed = [key for head in re.findall(r"^- ([^:\n]*):", section, re.M)
              for key in re.findall(r"`(\w+)`", head)]
    assert sorted(listed) == sorted(JOB_KEYS)
