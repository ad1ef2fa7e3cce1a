"""The README's library tour runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs_verbatim():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    bound = scope["sgrid"].meta["recovery_bound"]
    assert scope["field"].truncation_estimate == bound
    # the Parseval gap is a weighted mean of R - 1 over the field's band
    assert scope["report"].gap_euclidean <= bound
