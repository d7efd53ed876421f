"""Test-side support code shared by several suites (reference oracles)."""
