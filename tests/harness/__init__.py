"""Fault-injection harnesses and test oracles shared by
unit/integration/property tests."""
