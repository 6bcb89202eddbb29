"""The error taxonomy: one exception family per exit code, and no class that
nothing raises.

cli.main maps InputError to exit 2, GraphError to 3 and NumericError to 4,
and a raise site tells its case apart by its message. So errors.py declares
only the base class, the three families, ParseError (which carries the row
and column of a bad cell) and the two warning categories that
pyproject.toml's filterwarnings names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prisomap"
DECLARED = ["PrisomapError", "InputError", "ParseError", "GraphError", "NumericError",
            "RankDeficientWarning", "DegenerateDuplicatesWarning"]
EXIT_CODES = {"InputError": 2, "GraphError": 3, "NumericError": 4}


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def raised(tree: ast.Module) -> set[str]:
    """The names raised in tree, called or bare, and those passed to a warn call."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names |= {exc.id} if isinstance(exc, ast.Name) else set()
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "warn":
            names |= {arg.id for arg in node.args if isinstance(arg, ast.Name)}
    return names


def handled(function: ast.FunctionDef) -> dict[str, object]:
    """Each name an except clause of function catches, with the constant that
    clause returns (None when it returns none)."""
    codes = {}
    for handler in (node for node in ast.walk(function) if isinstance(node, ast.ExceptHandler)):
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        code = next((node.value.value for node in ast.walk(handler) if isinstance(node, ast.Return)
                     and isinstance(node.value, ast.Constant)), None)
        codes.update({t.id: code for t in types if isinstance(t, ast.Name)})
    return codes


def declared() -> list[str]:
    return [node.name for node in parse("errors.py").body if isinstance(node, ast.ClassDef)]


def test_errors_declares_the_families_alone():
    assert declared() == DECLARED


def test_every_class_but_the_base_is_raised_or_warned_in_the_package():
    used = set().union(*(raised(ast.parse(path.read_text(encoding="utf-8")))
                         for path in PACKAGE.glob("*.py")))
    assert set(declared()) - used == {"PrisomapError"}


def test_main_catches_each_family_with_its_exit_code():
    main = next(node for node in parse("cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = handled(main)
    assert {name: caught[name] for name in DECLARED if name in caught} == EXIT_CODES


def test_the_checks_see_raises_warnings_and_handlers():
    tree = ast.parse("import warnings\n"
                     "def main():\n"
                     "    try:\n"
                     "        raise A('x')\n"
                     "    except (B, OSError):\n"
                     "        return 2\n"
                     "    except C as exc:\n"
                     "        raise D from exc\n"
                     "    warnings.warn('y', E)\n"
                     "    F('not raised')\n")
    assert raised(tree) == {"A", "D", "E"}
    assert handled(tree.body[1]) == {"B": 2, "OSError": 2, "C": None}
