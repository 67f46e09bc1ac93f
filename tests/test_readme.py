import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    # the README's Python example runs as written and prints the worked
    # example's two MEMs of ACATA: ACAT over genomes 0-2, ATA over 1-2
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["0 4 0 2", "2 3 1 2"]
