"""The public API is what the program itself uses: every name a module of
``src/attrsparse`` exports in ``__all__`` must be referenced from code in
``src/``, and every dataclass field must be read by code in ``src/``. The
JSON artifact format is _util's alone. The README's Python examples run
against that API."""
import ast
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "attrsparse")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _references(node, skip):
    """Names read anywhere under node, except inside the definition named
    ``skip`` (a recursive call is no outside use). Every module imports what
    it uses by name, so an attribute such as ``trace.loss`` is another
    object's member, not a use of an export. Docstrings and __all__ entries
    are string constants, so they never count."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n.name == skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        stack.extend(ast.iter_child_nodes(n))
    return found


def test_every_export_is_used_by_the_program():
    modules = list(_modules())
    unused = []
    for module, tree in modules:
        for name in _exports(tree):
            if not any(name in _references(other, name) for _, other in modules):
                unused.append(f"{module}: {name}")
    assert not unused, f"exported but unused in src/: {unused}"


def _is_dataclass(node):
    if not isinstance(node, ast.ClassDef):
        return False
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _loads(node, skip):
    """Attribute names read anywhere under node, except inside the nodes in skip."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in skip:
            continue
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def _reads_all_fields(cls):
    """Whether the class hands itself to asdict, which reads every field."""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "asdict"
               and n.args and isinstance(n.args[0], ast.Name) and n.args[0].id == "self"
               for n in ast.walk(cls))


def test_every_dataclass_field_is_read_by_the_program():
    # a field read only by its own __init__/__post_init__ (or by tests) is
    # state the program carries for no reader
    modules = list(_modules())
    unread = []
    for module, tree in modules:
        for cls in filter(_is_dataclass, ast.walk(tree)):
            if _reads_all_fields(cls):
                continue
            own = [n for n in cls.body
                   if isinstance(n, ast.FunctionDef) and n.name in ("__init__", "__post_init__")]
            read = set().union(*(_loads(other, own) for _, other in modules))
            unread += [f"{module}: {cls.name}.{n.target.id}" for n in cls.body
                       if isinstance(n, ast.AnnAssign) and n.target.id not in read]
    assert not unread, f"dataclass fields no code in src/ reads: {unread}"


def _named(node, *names):
    return isinstance(node, ast.Name) and node.id in names


def test_only_util_writes_json_artifacts():
    # the artifact format lives in _util.write_json: no other module calls
    # json.dump or json.dumps, imports them by name, or builds a list of
    # fmt_float strings (by a comprehension, or list or tuple over a map)
    stray = []
    for module, tree in _modules():
        if module == "_util.py":
            continue
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr in ("dump", "dumps")
                    and _named(n.value, "json")):
                stray.append(f"{module}:{n.lineno}: json.{n.attr}")
            elif isinstance(n, ast.ImportFrom) and n.module == "json":
                stray += [f"{module}:{n.lineno}: from json import {a.name}" for a in n.names
                          if a.name in ("dump", "dumps")]
            elif isinstance(n, (ast.ListComp, ast.GeneratorExp)) and any(
                    isinstance(c, ast.Call) and _named(c.func, "fmt_float") for c in ast.walk(n.elt)):
                stray.append(f"{module}:{n.lineno}: a comprehension of fmt_float strings")
            elif (isinstance(n, ast.Call) and _named(n.func, "list", "tuple") and n.args
                  and isinstance(n.args[0], ast.Call) and _named(n.args[0].func, "map")
                  and any(_named(a, "fmt_float") for a in n.args[0].args[:1])):
                stray.append(f"{module}:{n.lineno}: {n.func.id}(map(fmt_float, ...))")
    assert stray == []


def test_no_source_line_exceeds_100_characters():
    # a line budget counts lines, so it must not be met by packing them
    long = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                long += [f"{name}:{i}" for i, line in enumerate(fh, start=1)
                         if len(line.rstrip("\n")) > 100]
    assert long == []


def test_readme_python_examples_run():
    # the README's ```python blocks, run in order in one namespace
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["fits"]) == 3
