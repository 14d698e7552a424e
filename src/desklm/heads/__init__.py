"""Downstream task heads: edit-script lemmatization with tagging, biaffine
dependency parsing, flat and nested NER, and the sentiment protocol."""
