"""The determinism & fork-safety lint: rules, pragmas, and the dogfood
gate (the repository's own source must stay clean)."""

from pathlib import Path

from repro.lint import lint_paths, lint_source

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


def codes(diags):
    return {d.code for d in diags}


def lint(source, path="core/module.py"):
    """Lint a snippet under a pool-crossing path (so every rule applies)."""
    return lint_source(source, path)


# ----------------------------------------------------------------------
# LNT001 / LNT002 — global RNG and time seeds
# ----------------------------------------------------------------------
def test_global_rng_call_flagged():
    diags = lint("import random\nx = random.random()\n")
    assert codes(diags) == {"LNT001"}


def test_rng_constructor_allowed():
    assert lint("import random\nrng = random.Random(7)\n") == []


def test_numpy_global_rng_flagged():
    diags = lint("import numpy as np\nx = np.random.randint(3)\n")
    assert "LNT001" in codes(diags)
    assert "LNT001" not in codes(
        lint("import numpy as np\nrng = np.random.default_rng(7)\n")
    )


def test_time_derived_seed_flagged():
    diags = lint(
        "import random\nimport time\nrng = random.Random(time.time_ns())\n"
    )
    assert "LNT002" in codes(diags)


def test_seed_method_with_wall_clock_flagged():
    diags = lint(
        "import time\n"
        "def reseed(rng):\n"
        "    rng.seed(int(time.time()))\n"
    )
    assert "LNT002" in codes(diags)


def test_explicit_seed_clean():
    assert lint("import random\nrng = random.Random(12345)\n") == []


# ----------------------------------------------------------------------
# LNT003 — RNG draws under unordered iteration
# ----------------------------------------------------------------------
def test_rng_draw_in_set_iteration_flagged():
    source = (
        "def scramble(rng, states):\n"
        "    for s in set(states):\n"
        "        rng.random()\n"
    )
    assert "LNT003" in codes(lint(source))


def test_rng_draw_in_sorted_iteration_clean():
    source = (
        "def scramble(rng, states):\n"
        "    for s in sorted(set(states)):\n"
        "        rng.random()\n"
    )
    assert "LNT003" not in codes(lint(source))


# ----------------------------------------------------------------------
# LNT004 — pool-crossing pickle safety
# ----------------------------------------------------------------------
LOCKED_CLASS = (
    "import threading\n"
    "class Holder:\n"
    "    def __init__(self):\n"
    "        self.lock = threading.Lock()\n"
)


def test_unpicklable_pool_crossing_class_flagged():
    assert "LNT004" in codes(lint(LOCKED_CLASS, path="core/holder.py"))


def test_pickle_hook_silences_lnt004():
    source = LOCKED_CLASS + (
        "    def __getstate__(self):\n"
        "        return {}\n"
    )
    assert "LNT004" not in codes(lint(source, path="core/holder.py"))


def test_lnt004_scoped_to_pool_crossing_packages():
    """The same class outside the pool-crossing packages is fine: an
    observability class is never pickled into a pool task."""
    assert "LNT004" not in codes(lint(LOCKED_CLASS, path="observability/report.py"))


# ----------------------------------------------------------------------
# LNT005 / LNT006 — module state and imports
# ----------------------------------------------------------------------
def test_module_level_mutable_flagged_unless_all_caps():
    assert "LNT005" in codes(lint("cache = {}\n"))
    assert "LNT005" not in codes(lint("CACHE = {}\n"))
    assert "LNT005" not in codes(lint("__all__ = []\n"))


def test_unused_import_flagged_but_not_in_init():
    assert "LNT006" in codes(lint("import os\n"))
    assert lint_source("import os\n", "core/__init__.py") == []


def test_all_listing_counts_as_use():
    assert "LNT006" not in codes(
        lint("from os import path\n__all__ = ['path']\n")
    )


# ----------------------------------------------------------------------
# LNT007 — population size captured at construction time
# ----------------------------------------------------------------------
def test_init_size_snapshot_flagged():
    source = (
        "class S:\n"
        "    def __init__(self, config):\n"
        "        self.m = config.size\n"
    )
    assert "LNT007" in codes(lint(source))
    assert "LNT007" in codes(
        lint(source.replace("config.size", "len(config)"))
    )


def test_non_population_names_not_flagged():
    source = (
        "class S:\n"
        "    def __init__(self, items):\n"
        "        self.m = len(items)\n"
    )
    assert "LNT007" not in codes(lint(source))


def test_closure_over_size_snapshot_flagged():
    source = (
        "def run(config):\n"
        "    m = config.size\n"
        "    def finish():\n"
        "        return m * 2\n"
        "    return finish\n"
    )
    assert "LNT007" in codes(lint(source))
    lam = "def run(config):\n    m = config.size\n    return lambda: m + 1\n"
    assert "LNT007" in codes(lint(lam))


def test_refreshed_local_not_flagged():
    # A local reassigned elsewhere (e.g. at a fault barrier) is live, not
    # a stale snapshot — the rule must stay quiet.
    source = (
        "def run(config):\n"
        "    m = config.size\n"
        "    def finish():\n"
        "        return m * 2\n"
        "    m = config.size\n"
        "    return finish\n"
    )
    assert "LNT007" not in codes(lint(source))


def test_shadowing_parameter_not_flagged():
    source = (
        "def run(config):\n"
        "    m = config.size\n"
        "    def finish(m):\n"
        "        return m * 2\n"
        "    return finish\n"
    )
    assert "LNT007" not in codes(lint(source))


def test_lnt007_pragma_suppressible():
    source = (
        "class S:\n"
        "    def __init__(self, config):\n"
        "        self.m = config.size  # lint-ok: LNT007\n"
    )
    assert lint(source) == []


# ----------------------------------------------------------------------
# Engine: pragmas, syntax errors, ordering
# ----------------------------------------------------------------------
def test_blanket_pragma_waives_line():
    assert lint("import random\nx = random.random()  # lint-ok\n") == []


def test_code_specific_pragma_waives_only_listed_code():
    assert lint("import random\nx = random.random()  # lint-ok: LNT001\n") == []
    diags = lint("import random\nx = random.random()  # lint-ok: LNT999\n")
    assert "LNT001" in codes(diags)


def test_syntax_error_becomes_lnt000():
    diags = lint("def broken(:\n")
    assert len(diags) == 1
    assert diags[0].code == "LNT000" and diags[0].severity == "error"


def test_findings_sorted_by_line():
    source = "import os\nimport random\nx = random.random()\n"
    diags = lint(source)
    lines = [int(d.location) for d in diags]
    assert lines == sorted(lines)


# ----------------------------------------------------------------------
# The dogfood gate
# ----------------------------------------------------------------------
def test_repository_source_is_lint_clean():
    """`python -m repro lint` must stay clean; this is the same walk."""
    findings = lint_paths([SRC])
    rendered = "\n".join(d.render() for d in findings)
    assert findings == [], f"src/repro lint findings:\n{rendered}"
