"""The repository's sweep benchmark; ``perfbench/run.py`` is the entry point."""
