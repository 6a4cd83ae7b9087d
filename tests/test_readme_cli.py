"""The README's CLI examples, run in-process against golden output.

Every ``markov-paging ...`` command in the README's bash blocks (backslash
continuations joined) is run through ``cli.main`` and its stdout and exit
code are compared byte for byte with ``tests/golden/readme/``. A change that
moves any printed byte therefore shows up as a golden-file diff.

To rewrite the golden files after an intended output change:

    PYTHONPATH=src python -m tests.test_readme_cli
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from markov_paging.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme"
PROG = "markov-paging"


def readme_examples() -> list[tuple[str, list[str]]]:
    """(golden file name, argv) for each README CLI command, in order."""
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S):
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == PROG:
                name = f"{len(examples) + 1:02d}-{words[1]}.txt"
                examples.append((name, words[1:]))
    return examples


def render(argv) -> str:
    """The golden text of one command: its argv, its exit code, then stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"$ {shlex.join([PROG, *argv])}\n# exit {code}\n{out.getvalue()}"


EXAMPLES = readme_examples()


def test_golden_files_match_readme():
    assert EXAMPLES, "no markov-paging commands found in README.md"
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(n for n, _ in EXAMPLES)


@pytest.mark.parametrize("name,argv", EXAMPLES, ids=[n for n, _ in EXAMPLES])
def test_readme_example_output(name, argv):
    assert render(argv) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, argv in EXAMPLES:
        (GOLDEN / name).write_text(render(argv))
        print(f"wrote {name}")
