import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "code_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # a trailing comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n        docstring."""\n'
        "        return (\n"
        '            "a"\n'
        "        )\n"
        "\n"
        "\n"
        'Y = """a string that\nis no docstring"""\n',
        encoding="utf-8",
    )
    # X, class, def, the three lines of the return and the two of Y
    assert load_script().code_lines(source) == 8
