"""Deduction rules, regimes and the staged closure engine."""
