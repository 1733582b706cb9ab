"""Repository benchmark harness; see ``run.py`` and ``README.md``."""
