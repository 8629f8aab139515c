"""Repository data model: normal-form axioms, RDF encoding, assembly."""
