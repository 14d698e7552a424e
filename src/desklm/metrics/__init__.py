"""Evaluation metrics: CoNLL 2018 morphosyntax scores, span F1, semantic
graph scoring via maximum common edge subgraph, and fold aggregation."""
