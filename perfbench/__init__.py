"""The repository's serving benchmark (see README.md in this directory)."""
