import inspect
import pathlib
import re

import isotopelab

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_api():
    """module -> names, from the bullets "* `module`: `name`, ..." that
    open README's Public API section."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listing = section.split("\n\n")[1]
    api = {}
    for bullet in listing.split("\n* "):
        module, *names = re.findall(r"`(\w+)`", bullet)
        api[module] = sorted(names)
    return api


def test_readme_lists_exactly_the_exported_names():
    exported = {}
    for name, obj in vars(isotopelab).items():
        if not name.startswith("_") and not inspect.ismodule(obj):
            module = obj.__module__.removeprefix("isotopelab.")
            exported.setdefault(module, []).append(name)
    assert _readme_api() == {module: sorted(names) for module, names in exported.items()}
