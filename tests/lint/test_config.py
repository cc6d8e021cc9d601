"""``LintConfig``, the linter's tree-level configuration."""

from repro.lint.config import LintConfig


class TestLintConfigViews:
    def test_site_and_module_sets(self):
        config = LintConfig(
            wall_clock_modules=("a.py", "b.py"),
            wall_clock_sites=(("c.py", "f"),),
            pure_roots=(),
        )
        assert config.wall_clock_module_set == {"a.py", "b.py"}
        assert config.wall_clock_site_set == {("c.py", "f")}
